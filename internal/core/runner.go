package core

import (
	"fmt"
	"time"

	"github.com/dessertlab/certify/internal/armv7"
	"github.com/dessertlab/certify/internal/board"
	"github.com/dessertlab/certify/internal/jailhouse"
	"github.com/dessertlab/certify/internal/sim"
)

// RunResult is the record of one experiment run — everything the paper's
// rig wrote to its log file, machine-readable.
type RunResult struct {
	Plan    string
	Seed    uint64
	Verdict Verdict

	// Injections performed during the run.
	Injections []InjectionRecord
	// CallCounts per injection point (matching calls).
	CallCounts map[jailhouse.InjectionPoint]uint64

	// Console artefacts.
	RootTranscript string
	CellTranscript string
	HVConsole      []string

	// Liveness stats.
	CellLines  int
	LEDToggles int
	Horizon    sim.Time

	// DetectionLatency is the virtual time between the first injection
	// and the first observable failure event (park or panic); -1 when
	// no injection happened or nothing was detected. Certification
	// cares about this number: it bounds how long a corrupted system
	// runs before anyone notices.
	DetectionLatency sim.Time

	// TraceHash is the stable digest of the run's full event trace
	// (sim.Trace.Hash), the per-run reproducibility fingerprint shard
	// artefacts carry: two processes that claim the same run of the same
	// campaign must produce the same hash. Zero unless
	// RunOptions.CaptureTraceHash was set — hashing folds every trace
	// record as it is appended, a cost ordinary campaigns skip.
	TraceHash uint64
}

// Outcome is shorthand for the verdict's outcome.
func (r *RunResult) Outcome() Outcome { return r.Verdict.Outcome }

// RunOptions tunes one experiment execution.
type RunOptions struct {
	// Mode selects evidence retention: ModeFull builds transcripts and
	// call-count maps; ModeDistribution skips them, keeping only what the
	// classifier and the streaming aggregator need.
	Mode CampaignMode
	// Pool, when non-nil, draws the machine from a warm pool (taken
	// before the run, put back after) and rewinds it to a golden
	// checkpoint instead of rebuilding the stack. Nil builds the machine
	// cold. Share one pool across workers, campaigns or shards to keep
	// machines warm across them.
	Pool *MachinePool
	// CaptureTraceHash computes RunResult.TraceHash after classification.
	// Campaigns enable it when a streaming artefact hook is installed.
	CaptureTraceHash bool
}

// RunExperiment executes one fault-injection run with full evidence
// retention: build the machine for the plan's workload, arm the injector,
// run the horizon, classify.
func RunExperiment(plan *TestPlan, seed uint64) (*RunResult, error) {
	return RunExperimentOpts(plan, seed, RunOptions{})
}

// RunExperimentOpts is RunExperiment with explicit retention mode and
// machine reuse — the campaign workers' entry point.
func RunExperimentOpts(plan *TestPlan, seed uint64, ro RunOptions) (*RunResult, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	started := time.Now()
	opts := runMachineOptions(plan, seed)
	m, fresh, release, err := acquireMachine(ro.Pool, opts)
	if err != nil {
		return nil, err
	}
	defer release()
	res, err := runOn(m, fresh, ro.Pool != nil, opts, plan, ro)
	if err != nil {
		return nil, err
	}
	metRunsTotal.Inc()
	metRunDuration.ObserveSince(started)
	if ev := countSimEvents(m.Board.Engine); ev > 0 {
		metSimEventsPerRun.Observe(float64(ev))
	}
	return res, nil
}

// countSimEvents adds the events e delivered since its last restore to
// the sim-event counters and returns their number.
func countSimEvents(e *sim.Engine) uint64 {
	var total uint64
	for k, n := range e.ExecutedByKind() {
		if n > 0 {
			metSimEventsByKind.With(board.EventKindName(sim.HandlerKind(k))).Add(n)
			total += n
		}
	}
	metSimEvents.Add(total)
	return total
}

// runMachineOptions derives the machine configuration of a plan's run.
func runMachineOptions(plan *TestPlan, seed uint64) MachineOptions {
	opts := MachineOptions{Seed: seed, StateWatchdog: true}
	// Pre-size the trace arenas from the plan profile: one allocation
	// per arena up front instead of a doubling cascade during the run.
	// Pooled machines grow theirs to the hint when they are rewound.
	opts.TraceRecords, opts.TraceArgs = TraceBudget(plan)
	switch plan.Workload {
	case WorkloadManagement:
		opts.RecreateLoop = true
		opts.RecreatePeriod = 5 * sim.Second
	case WorkloadDelayedCreate:
		opts.DelayedCreate = true
	}
	return opts
}

// runOn executes one run of plan on m, booted (fresh) or left by its
// previous run, and assembles the result. With timeline set, the run
// starts from the latest golden checkpoint its injector cannot have
// fired before, on a timeline recorded up to its horizon first if need
// be; otherwise m must be fresh and runs straight from boot.
func runOn(m *Machine, fresh, timeline bool, opts MachineOptions, plan *TestPlan, ro RunOptions) (*RunResult, error) {
	// Derive the injector's random stream from the run seed so the
	// workload's own draws do not perturb injection choices.
	injSeed := opts.Seed
	rng := sim.NewRNG(sim.SplitMix64(&injSeed))
	inj, err := NewInjector(plan, DefaultProfile(), rng, m.Board.Now)
	if err != nil {
		return nil, err
	}
	inj.BindMachine(m)
	start := m.Board.Now()
	if timeline {
		rewind := time.Now()
		if start, err = m.prepare(opts, plan, inj, fresh); err != nil {
			return nil, fmt.Errorf("restore machine: %w", err)
		}
		if !fresh {
			metRestore.ObserveSince(rewind)
		}
	} else {
		armRun(inj, plan, start)
	}
	m.HV.Hook = inj.Hook

	m.Run(start + plan.EffectiveDuration() - m.Board.Now())

	res := &RunResult{
		Plan:             plan.Name,
		Seed:             opts.Seed,
		Verdict:          Classify(m),
		Injections:       inj.Records(),
		CellLines:        m.Board.UART7.LineCount(),
		Horizon:          m.Board.Now(),
		DetectionLatency: detectionLatency(m, inj.FirstInjectionAt()),
	}
	if ro.CaptureTraceHash {
		res.TraceHash = m.Board.Trace().Hash()
	}
	if ro.Mode == ModeFull {
		res.CallCounts = inj.Calls()
		res.RootTranscript = m.Board.UART0.Transcript()
		res.CellTranscript = m.Board.UART7.Transcript()
		res.HVConsole = append([]string(nil), m.HV.ConsoleLines...)
	}
	if m.RTOS != nil {
		res.LEDToggles = m.RTOS.LEDToggleCount()
	}
	return res, nil
}

// armRun arms the run's injection window relative to the post-boot
// instant start. Steady workloads arm after the cell is up (the rig
// starts its test once the workload runs); management workloads inject
// from the start — create/boot windows are their subject.
func armRun(inj *Injector, plan *TestPlan, start sim.Time) {
	var offset sim.Time
	if plan.Workload == WorkloadSteady {
		offset = 2 * sim.Second
	}
	inj.ArmWindow(start+offset, start+plan.EffectiveDuration())
}

// noRelease is the release stub for machines nobody reclaims.
func noRelease() {}

// acquireMachine resolves the run's machine source: the pool, or a cold
// build when pool is nil. fresh reports a machine just built and booted
// for opts; a pooled machine comes back as its previous run left it,
// for Machine.prepare to rewind. The release callback returns pooled
// machines; everything the caller still needs from the machine
// (transcripts, counters) must be copied out before release runs —
// RunExperimentOpts copies during result assembly, so its deferred
// release is safe.
func acquireMachine(pool *MachinePool, opts MachineOptions) (m *Machine, fresh bool, release func(), err error) {
	if pool == nil {
		if m, err = BuildMachine(opts); err != nil {
			return nil, false, nil, fmt.Errorf("build machine: %w", err)
		}
		return m, true, noRelease, nil
	}
	if m, fresh, err = pool.take(opts); err != nil {
		return nil, false, nil, fmt.Errorf("pool machine: %w", err)
	}
	return m, fresh, func() { pool.Put(m) }, nil
}

// detectionKinds are the record kinds that evidence a detection.
var detectionKinds = sim.Kinds(sim.KindPark, sim.KindPanic, sim.KindHypTrap, sim.KindWedge)

// detectionLatency measures first-injection → first detection evidence:
// a park, a panic, an internal HYP trap or the bounded-progress watchdog.
// first is the virtual time of the first injection (-1 when none
// happened). The trace is scanned in place without rendering messages.
// The golden base and spliced golden stretches hold no detection kinds
// and are skipped whole.
func detectionLatency(m *Machine, first sim.Time) sim.Time {
	if first < 0 {
		return -1
	}
	latency := sim.Time(-1)
	m.Board.Trace().ScanKindsFrom(0, detectionKinds, func(at sim.Time, _ sim.Kind, _ int) bool {
		if at >= first {
			latency = at - first
			return false
		}
		return true
	})
	return latency
}

// GoldenProfile is the result of a fault-free profiling run: activation
// counts of the three candidate functions, the paper's §III profiling
// step that selected the injection points.
type GoldenProfile struct {
	Seed       uint64
	Duration   sim.Time
	Activation map[jailhouse.InjectionPoint]uint64
	CellLines  int
	RootLines  int
	LEDToggles int
	TraceHash  uint64
}

// GoldenRun executes a fault-free run with counting hooks only.
func GoldenRun(seed uint64, d sim.Time) (*GoldenProfile, error) {
	m, err := BuildMachine(DefaultMachineOptions(seed))
	if err != nil {
		return nil, err
	}
	return goldenProfileOn(m, seed, d)
}

// goldenProfileOn runs the fault-free profile on an already-built
// machine — shared by GoldenRun and the warm-pool golden test, which
// feeds it a restored machine to prove warm golden runs hash
// identically.
func goldenProfileOn(m *Machine, seed uint64, d sim.Time) (*GoldenProfile, error) {
	counts := make(map[jailhouse.InjectionPoint]uint64)
	m.HV.Hook = func(point jailhouse.InjectionPoint, cpu int, cell string, ctx *armv7.TrapContext) jailhouse.InjectionResult {
		counts[point]++
		return jailhouse.InjectionResult{}
	}
	m.Run(d)

	gp := &GoldenProfile{
		Seed:       seed,
		Duration:   d,
		Activation: counts,
		CellLines:  m.Board.UART7.LineCount(),
		RootLines:  m.Board.UART0.LineCount(),
		TraceHash:  m.Board.Trace().Hash(),
	}
	if m.RTOS != nil {
		gp.LEDToggles = m.RTOS.LEDToggleCount()
	}
	if v := Classify(m); v.Outcome != OutcomeCorrect {
		return gp, fmt.Errorf("golden run classified %v: %v", v.Outcome, v.Evidence)
	}
	return gp, nil
}
