package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/dessertlab/certify/internal/armv7"
	"github.com/dessertlab/certify/internal/jailhouse"
	"github.com/dessertlab/certify/internal/sim"
)

// Exactness suite for the golden timeline: a run started from any
// checkpoint it is eligible for must be indistinguishable from the
// straight run from boot — same RunResult, same final machine state.

// straightRun executes plan at seed on a freshly built machine with one
// uninterrupted Engine.Run and no checkpoints — the reference every
// checkpointed run is held to. Returns the result and the final state
// digest.
func straightRun(t *testing.T, plan *TestPlan, seed uint64) (*RunResult, uint64) {
	t.Helper()
	opts := runMachineOptions(plan, seed)
	m, err := BuildMachine(opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runOn(m, true, false, opts, plan, RunOptions{Mode: ModeFull, CaptureTraceHash: true})
	if err != nil {
		t.Fatal(err)
	}
	return res, m.StateDigest()
}

// pooledRun executes plan at seed through pool (the checkpointing path)
// and returns the result, the final state digest of the machine it ran
// on, and that machine.
func pooledRun(t *testing.T, pool *MachinePool, plan *TestPlan, seed uint64) (*RunResult, uint64, *Machine) {
	t.Helper()
	res, err := RunExperimentOpts(plan, seed, RunOptions{Mode: ModeFull, Pool: pool, CaptureTraceHash: true})
	if err != nil {
		t.Fatal(err)
	}
	n := len(pool.idle)
	if n == 0 {
		t.Fatal("run left no warm machine in the pool")
	}
	m := pool.idle[n-1] // the run's machine, parked last
	if m.profile != profileOf(runMachineOptions(plan, seed)) {
		t.Fatalf("last parked machine serves another profile than %s", plan.Name)
	}
	return res, m.StateDigest(), m
}

// holdOnePerPlan takes one machine per plan from pool at once and
// parks them all again. A pool keeps at most as many machines as were
// out at once, so afterwards it holds one machine per plan's profile
// and interleaving those plans reuses them instead of replacing them.
func holdOnePerPlan(t *testing.T, pool *MachinePool, plans ...*TestPlan) {
	t.Helper()
	var held []*Machine
	for _, plan := range plans {
		m, err := pool.Get(runMachineOptions(plan, 1))
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, m)
	}
	for _, m := range held {
		pool.Put(m)
	}
}

// quietVariant is plan with an occurrence rate no horizon reaches: the
// same golden timeline (profile, call filter), but the run
// never injects, so one run records checkpoints up to the horizon.
func quietVariant(plan *TestPlan) *TestPlan {
	q := *plan
	q.Rate = 1 << 30
	return &q
}

// timelineFor returns m's timeline for a run of plan.
func timelineFor(t *testing.T, m *Machine, plan *TestPlan) *timeline {
	t.Helper()
	key := timelineKeyOf(plan)
	for _, tl := range m.timelines {
		if tl.key == key {
			return tl
		}
	}
	t.Fatalf("machine has no timeline for %s", plan.Name)
	return nil
}

// runInjector builds the injector a run of plan at seed arms (the same
// derivation as runOn), bound to clock now.
func runInjector(t *testing.T, plan *TestPlan, seed uint64, now func() sim.Time) *Injector {
	t.Helper()
	injSeed := seed
	inj, err := NewInjector(plan, DefaultProfile(), sim.NewRNG(sim.SplitMix64(&injSeed)), now)
	if err != nil {
		t.Fatal(err)
	}
	armRun(inj, plan, 0)
	return inj
}

// TestCheckpointRunsMatchStraightRuns: for every builtin plan and every
// registered fault model, record a golden timeline to the horizon, then
// for each seed start a run from every checkpoint the seed's injector is
// eligible for. Each must equal the straight run from boot in the full
// RunResult (transcripts, call counts, injections, trace hash) and in
// the final StateDigest.
func TestCheckpointRunsMatchStraightRuns(t *testing.T) {
	seeds := []uint64{2022, 7, 0xfeedface}
	duration := 10 * sim.Second
	if testing.Short() {
		seeds = seeds[:1]
		duration = 6 * sim.Second
	}
	for _, name := range BuiltinPlanNames() {
		for _, model := range FaultModelNames() {
			base, err := PlanByName(name)
			if err != nil {
				t.Fatal(err)
			}
			plan := *base
			plan.FaultName = model
			plan.Duration = duration
			t.Run(name+"/"+model, func(t *testing.T) {
				checkEveryCheckpoint(t, &plan, seeds)
			})
		}
	}
}

func checkEveryCheckpoint(t *testing.T, plan *TestPlan, seeds []uint64) {
	pool := NewMachinePool()
	quiet := quietVariant(plan)
	_, _, m := pooledRun(t, pool, quiet, 1)
	tl := timelineFor(t, m, plan)
	if got, want := tl.frontier().at(), plan.EffectiveDuration(); got != want {
		t.Fatalf("quiet run recorded the timeline to %v, want the horizon %v", got, want)
	}
	full := append([]*checkpoint(nil), tl.cps...)
	fullCalls := append([]sim.Time(nil), tl.calls...)
	type runCase struct {
		plan *TestPlan
		seed uint64
	}
	// The quiet plan never injects, so every checkpoint is eligible.
	cases := []runCase{{quiet, 3}}
	for _, seed := range seeds {
		cases = append(cases, runCase{plan, seed})
	}
	for _, rc := range cases {
		plan, seed := rc.plan, rc.seed
		want, wantDigest := straightRun(t, plan, seed)
		inj := runInjector(t, plan, seed, m.Board.Now)
		tl.cps, tl.calls = full, fullCalls
		latest := tl.latest(inj, plan.EffectiveDuration())
		for k, c := range full {
			if k > 0 && full[k-1] == latest {
				break
			}
			// Cut the timeline back to checkpoint k: the run then starts
			// there (k is eligible) and re-records the rest.
			tl.cps = append([]*checkpoint(nil), full[:k+1]...)
			tl.calls = append([]sim.Time(nil), fullCalls[:c.total]...)
			restores := metCheckpointRestores.Value()
			got, gotDigest, _ := pooledRun(t, pool, plan, seed)
			if k > 0 && metCheckpointRestores.Value() != restores+1 {
				t.Fatalf("seed %#x: run did not start from checkpoint %d", seed, k)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %#x from checkpoint %d (%v): result differs from the straight run\n got: %s\nwant: %s",
					seed, k, c.at(), summarize(got), summarize(want))
			}
			if gotDigest != wantDigest {
				t.Fatalf("seed %#x from checkpoint %d (%v): final state digest %#x, straight run %#x",
					seed, k, c.at(), gotDigest, wantDigest)
			}
		}
	}
}

func summarize(r *RunResult) string {
	return fmt.Sprintf("%v inj=%d calls=%v lines=%d leds=%d hash=%#x det=%v",
		r.Outcome(), len(r.Injections), r.CallCounts, r.CellLines, r.LEDToggles, r.TraceHash, r.DetectionLatency)
}

// TestCheckpointedCampaignMatchesColdCampaign runs a full-horizon E3 and
// E1 campaign over a shared pool — runs restore from checkpoints other
// runs recorded — against the checkpoint-free cold-build campaign.
func TestCheckpointedCampaignMatchesColdCampaign(t *testing.T) {
	runs := 12
	if testing.Short() {
		runs = 4
	}
	for _, plan := range []*TestPlan{PlanE3Fig3(), PlanE1HVC()} {
		run := func(c Campaign) []*RunResult {
			c.Plan, c.Runs, c.MasterSeed, c.Workers, c.Mode = plan, runs, 2022, 2, ModeFull
			res, err := c.Execute(t.Context())
			if err != nil {
				t.Fatal(err)
			}
			return res.Runs
		}
		restores := metCheckpointRestores.Value()
		warm := run(Campaign{Pool: NewMachinePool()})
		if metCheckpointRestores.Value() == restores {
			t.Fatalf("%s: no run started from a checkpoint", plan.Name)
		}
		cold := run(Campaign{ColdBuild: true})
		for i := range cold {
			if !reflect.DeepEqual(warm[i], cold[i]) {
				t.Fatalf("%s run %d: checkpointed %s, cold %s", plan.Name, i, summarize(warm[i]), summarize(cold[i]))
			}
		}
	}
}

// TestMachineRNGUntouchedByFaultFreePrefix pins the premise the golden
// timeline rests on: a fault-free run draws nothing from the machine
// RNG, so its state at every checkpoint is the freshly seeded stream and
// a restore's reseed is exact.
func TestMachineRNGUntouchedByFaultFreePrefix(t *testing.T) {
	for _, name := range BuiltinPlanNames() {
		plan, err := PlanByName(name)
		if err != nil {
			t.Fatal(err)
		}
		const seed = 99
		m, err := BuildMachine(runMachineOptions(plan, seed))
		if err != nil {
			t.Fatal(err)
		}
		m.HV.Hook = func(jailhouse.InjectionPoint, int, string, *armv7.TrapContext) jailhouse.InjectionResult {
			return jailhouse.InjectionResult{}
		}
		m.Run(plan.EffectiveDuration())
		ref := sim.NewRNG(seed)
		for i := 0; i < 4; i++ {
			if got, want := m.Board.Engine.RNG().Uint64(), ref.Uint64(); got != want {
				t.Fatalf("%s: machine RNG drawn during the fault-free run (draw %d: %#x, fresh stream %#x)", name, i, got, want)
			}
		}
	}
}

// TestChosenCheckpointPrecedesFirstInjection fuzzes seeds, occurrence
// rates and arm windows: the checkpoint eligibility picks for an
// injector must never lie at or after that injector's first injection
// in the straight run.
func TestChosenCheckpointPrecedesFirstInjection(t *testing.T) {
	samples := 40
	if testing.Short() {
		samples = 10
	}
	rng := rand.New(rand.NewSource(0x7E57))
	const horizon = 20 * sim.Second
	for _, name := range []string{"E3-fig3", "E1-hvc", "A3-irqchip"} {
		base, err := PlanByName(name)
		if err != nil {
			t.Fatal(err)
		}
		plan := *base
		plan.Duration = horizon
		pool := NewMachinePool()
		_, _, m := pooledRun(t, pool, quietVariant(&plan), 1)
		tl := timelineFor(t, m, &plan)
		for i := 0; i < samples; i++ {
			p := plan
			p.Rate = 1 + rng.Intn(120)
			seed := rng.Uint64()
			from := sim.Time(rng.Int63n(int64(horizon)))
			until := from + sim.Time(rng.Int63n(int64(horizon)))
			mk := func(now func() sim.Time) *Injector {
				injSeed := seed
				inj, err := NewInjector(&p, DefaultProfile(), sim.NewRNG(sim.SplitMix64(&injSeed)), now)
				if err != nil {
					t.Fatal(err)
				}
				inj.ArmWindow(from, until)
				return inj
			}
			c := tl.latest(mk(m.Board.Now), horizon)

			ref, err := BuildMachine(runMachineOptions(&p, seed))
			if err != nil {
				t.Fatal(err)
			}
			inj := mk(ref.Board.Now)
			inj.BindMachine(ref)
			ref.HV.Hook = inj.Hook
			ref.Run(horizon)
			if len(inj.records) == 0 {
				continue
			}
			first := inj.records[0]
			if c.at() >= first.At || c.total >= first.CallNo {
				t.Fatalf("%s rate %d seed %#x window [%v,%v]: chose checkpoint %v (call %d), first injection at %v (call %d)",
					name, p.Rate, seed, from, until, c.at(), c.total, first.At, first.CallNo)
			}
		}
	}
}

// TestTraceBudgetCoversBuiltinPlans holds TraceBudget to what runs
// actually use: over several seeds, no builtin plan's full-horizon run
// outgrows the record or argument budget it is provisioned with.
func TestTraceBudgetCoversBuiltinPlans(t *testing.T) {
	seeds := []uint64{1, 2, 99, 2022, 0xfeedface}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, name := range BuiltinPlanNames() {
		plan, err := PlanByName(name)
		if err != nil {
			t.Fatal(err)
		}
		recBudget, argBudget := TraceBudget(plan)
		peakRecs, peakArgs := 0, 0
		for _, seed := range seeds {
			opts := runMachineOptions(plan, seed)
			m, err := BuildMachine(opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := runOn(m, true, false, opts, plan, RunOptions{Mode: ModeFull}); err != nil {
				t.Fatal(err)
			}
			peakRecs = max(peakRecs, m.Board.Trace().Len())
			peakArgs = max(peakArgs, m.Board.Trace().ArgLen())
		}
		if peakRecs > recBudget || peakArgs > argBudget {
			t.Errorf("%s: peak %d records / %d args over %d seeds, budget %d / %d",
				name, peakRecs, peakArgs, len(seeds), recBudget, argBudget)
		}
		t.Logf("%s: peak %d/%d records, %d/%d args", name, peakRecs, recBudget, peakArgs, argBudget)
	}
}

// TestCheckpointsSurviveProfileSwitches interleaves full-length plans
// of different boot profiles on one pool that holds a machine per
// profile, so each profile's machine resumes its own timelines between
// the other profiles' runs: each run must still equal its straight run.
func TestCheckpointsSurviveProfileSwitches(t *testing.T) {
	pool := NewMachinePool()
	plans := []*TestPlan{PlanE3Fig3(), PlanE1HVC(), PlanE2Core1()}
	holdOnePerPlan(t, pool, plans...)
	restores := metCheckpointRestores.Value()
	rounds := 4
	if testing.Short() {
		rounds = 2
	}
	for round := 0; round < rounds; round++ {
		for i, plan := range plans {
			seed := uint64(100*round + i)
			want, wantDigest := straightRun(t, plan, seed)
			got, gotDigest, _ := pooledRun(t, pool, plan, seed)
			if !reflect.DeepEqual(got, want) || gotDigest != wantDigest {
				t.Fatalf("round %d %s seed %d: pooled %s (digest %#x), straight %s (digest %#x)",
					round, plan.Name, seed, summarize(got), gotDigest, summarize(want), wantDigest)
			}
		}
	}
	if metCheckpointRestores.Value() == restores {
		t.Fatal("no run started from a checkpoint")
	}
}

// TestGoldenLogsHoldNoDetectionKinds: detectionLatency scans a run's
// trace from its first record and relies on the golden records — a
// restored trace's base and its spliced stretches — holding no
// detection kind, so that ScanKindsFrom passes over each published
// segment in one step. For each builtin plan, a machine restored to the
// last checkpoint of its timeline, recorded to the horizon, reads the
// whole published golden log up to there as its base: no record of it
// may have a detection kind.
func TestGoldenLogsHoldNoDetectionKinds(t *testing.T) {
	for _, name := range BuiltinPlanNames() {
		plan, err := PlanByName(name)
		if err != nil {
			t.Fatal(err)
		}
		_, _, m := pooledRun(t, NewMachinePool(), quietVariant(plan), 1)
		tl := timelineFor(t, m, plan)
		last := tl.frontier()
		if last.at()+checkpointSpacing <= tl.cps[0].at()+plan.EffectiveDuration() {
			t.Fatalf("%s: the timeline stops at %v, short of the horizon", name, last.at())
		}
		m.restoreTo(last, 1)
		tr := m.Board.Trace()
		if tr.Len() == 0 {
			t.Fatalf("%s: restored trace is empty", name)
		}
		tr.ScanKindsFrom(0, detectionKinds, func(at sim.Time, kind sim.Kind, _ int) bool {
			t.Errorf("%s: golden %v record at %v", name, kind, at)
			return true
		})
	}
}
