package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/dessertlab/certify/internal/sim"
)

// runFingerprint is everything the differential suite compares per run:
// the classification, the latency evidence and the byte-identity
// fingerprint of the whole event stream.
type runFingerprint struct {
	outcome    Outcome
	injections int
	detection  sim.Time
	horizon    sim.Time
	cellLines  int
	traceHash  uint64
	rootText   string // ModeFull only
	cellText   string // ModeFull only
}

func fingerprint(r *RunResult) runFingerprint {
	return runFingerprint{
		outcome:    r.Outcome(),
		injections: len(r.Injections),
		detection:  r.DetectionLatency,
		horizon:    r.Horizon,
		cellLines:  r.CellLines,
		traceHash:  r.TraceHash,
		rootText:   r.RootTranscript,
		cellText:   r.CellTranscript,
	}
}

// campaignSeeds replays the campaign's seed chain: MasterSeed through
// SplitMix64, one output per run.
func campaignSeeds(master uint64, n int) []uint64 {
	state := master
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = sim.SplitMix64(&state)
	}
	return seeds
}

// coldReference runs every seed on a freshly built machine — no pool —
// the ground truth the warm paths must reproduce byte for byte.
func coldReference(t *testing.T, plan *TestPlan, seeds []uint64, mode CampaignMode) []runFingerprint {
	t.Helper()
	out := make([]runFingerprint, len(seeds))
	for i, seed := range seeds {
		r, err := RunExperimentOpts(plan, seed, RunOptions{Mode: mode, CaptureTraceHash: true})
		if err != nil {
			t.Fatalf("cold run %d (seed %#x): %v", i, seed, err)
		}
		out[i] = fingerprint(r)
	}
	return out
}

// shortPlans returns the three experiment families at differential-suite
// durations: long enough for E1 to complete recreate cycles and for E2's
// delayed bring-up window to open, short enough to run the full
// plan × seed × mode matrix.
func shortPlans() []*TestPlan {
	e1 := *PlanE1HVC()
	e1.Duration = 12 * sim.Second
	e1.Name = "E1-warmdiff"
	e2 := *PlanE2Core1()
	e2.Duration = 8 * sim.Second
	e2.Name = "E2-warmdiff"
	e3 := *PlanE3Fig3()
	e3.Duration = 8 * sim.Second
	e3.Name = "E3-warmdiff"
	return []*TestPlan{&e1, &e2, &e3}
}

// TestWarmPoolDifferentialDeterminism is the admissibility proof for
// machine reuse: for every plan family (E1/E2/E3), several master
// seeds and both retention modes, a campaign over a shared warm pool —
// and one over its default campaign-private pool — must be
// byte-identical to cold fresh-build runs: same outcome, same injection
// count, same detection latency, same per-run trace hash, and in Full
// mode the very same transcripts.
func TestWarmPoolDifferentialDeterminism(t *testing.T) {
	runs := 6
	masters := []uint64{2022, 7, 0xfeedface}
	if testing.Short() {
		// The race gate runs this too; keep the full plan × mode matrix
		// but trim the seed axis and the per-cell run count.
		runs = 3
		masters = masters[:1]
	}
	for _, plan := range shortPlans() {
		for _, master := range masters {
			for _, mode := range []CampaignMode{ModeFull, ModeDistribution} {
				name := fmt.Sprintf("%s/seed-%d/%s", plan.Name, master, mode)
				t.Run(name, func(t *testing.T) {
					seeds := campaignSeeds(master, runs)
					cold := coldReference(t, plan, seeds, mode)

					for _, cfg := range []struct {
						label string
						pool  *MachinePool
					}{
						{"shared-pool", NewMachinePool()},
						{"campaign-pool", nil},
					} {
						reusesBefore := metPoolReuses.Value()
						var mu sync.Mutex
						warm := make([]runFingerprint, runs)
						c := &Campaign{
							Plan: plan, Runs: runs, MasterSeed: master,
							Mode: mode, Pool: cfg.pool,
							OnRun: func(index int, r *RunResult) {
								mu.Lock()
								warm[index] = fingerprint(r)
								mu.Unlock()
							},
						}
						if _, err := c.Execute(context.Background()); err != nil {
							t.Fatalf("%s campaign: %v", cfg.label, err)
						}
						for i := range cold {
							if warm[i] != cold[i] {
								t.Fatalf("%s diverged from cold build on run %d (seed %#x):\nwarm: %+v\ncold: %+v",
									cfg.label, i, seeds[i], warm[i], cold[i])
							}
						}
						if metPoolReuses.Value() == reusesBefore && runs > 1 {
							t.Fatalf("%s never reused a machine — the warm path was not exercised", cfg.label)
						}
					}
				})
			}
		}
	}
}

// TestSnapshotDifferentialFaultModels sweeps the snapshot-restore pool
// across every registered fault model: each model rewrites different
// state (GIC bitmaps, RAM words, register frames, IRQ storms), so each
// is an independent chance for a restore to miss a dirtied layer. For
// every model × plan family × master seed × retention mode, a pooled
// campaign must reproduce the cold fresh-build fingerprints exactly.
func TestSnapshotDifferentialFaultModels(t *testing.T) {
	// More runs than workers: each worker holds at most one machine, so
	// at most `workers` cold builds happen and the remaining runs must
	// restore a pooled machine — whatever the host's core count.
	const workers = 2
	runs := 4
	masters := []uint64{2022, 7, 0xfeedface}
	plans := shortPlans()
	if testing.Short() {
		// The race gate runs this too: keep every fault model but trim
		// the seed and plan axes.
		runs = workers + 1
		masters = masters[:1]
		plans = plans[2:] // E3, the paper's main campaign family
	}
	for _, model := range FaultModelNames() {
		for _, base := range plans {
			plan := *base
			plan.FaultName = model
			plan.Name = base.Name + "-" + model
			for _, master := range masters {
				for _, mode := range []CampaignMode{ModeFull, ModeDistribution} {
					name := fmt.Sprintf("%s/%s/seed-%d/%s", model, base.Name, master, mode)
					t.Run(name, func(t *testing.T) {
						seeds := campaignSeeds(master, runs)
						cold := coldReference(t, &plan, seeds, mode)
						pool := NewMachinePool()
						var mu sync.Mutex
						warm := make([]runFingerprint, runs)
						c := &Campaign{
							Plan: &plan, Runs: runs, MasterSeed: master,
							Mode: mode, Pool: pool, Workers: workers,
							OnRun: func(index int, r *RunResult) {
								mu.Lock()
								warm[index] = fingerprint(r)
								mu.Unlock()
							},
						}
						if _, err := c.Execute(context.Background()); err != nil {
							t.Fatalf("pooled campaign: %v", err)
						}
						for i := range cold {
							if warm[i] != cold[i] {
								t.Fatalf("model %s diverged from cold build on run %d (seed %#x):\nwarm: %+v\ncold: %+v",
									model, i, seeds[i], warm[i], cold[i])
							}
						}
						if _, reuses := pool.Stats(); reuses == 0 && runs > 1 {
							t.Fatal("pool never restored a machine — the snapshot path was not exercised")
						}
					})
				}
			}
		}
	}
}

// TestWarmPoolGoldenSerial pins the seed-2022 40-run E3 campaign — the
// repo's golden split — under the shared warm pool: 23 correct, 1
// inconsistent, 16 panic-park, 56 injections, exactly the cold numbers.
func TestWarmPoolGoldenSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full-duration campaign")
	}
	want := map[Outcome]int{
		OutcomeCorrect:      23,
		OutcomeInconsistent: 1,
		OutcomePanicPark:    16,
	}
	pool := NewMachinePool()
	for _, mode := range []CampaignMode{ModeFull, ModeDistribution} {
		c := &Campaign{Plan: PlanE3Fig3(), Runs: 40, MasterSeed: 2022, Mode: mode, Pool: pool}
		res, err := c.Execute(context.Background())
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		for _, o := range AllOutcomes() {
			if res.Count(o) != want[o] {
				t.Fatalf("mode %v: count(%v) = %d, want %d", mode, o, res.Count(o), want[o])
			}
		}
		if res.Total() != 40 || res.InjectionsTotal() != 56 {
			t.Fatalf("mode %v: total=%d injections=%d, want 40/56", mode, res.Total(), res.InjectionsTotal())
		}
	}
	if builds, reuses := pool.Stats(); reuses == 0 {
		t.Fatalf("pool stats builds=%d reuses=%d — golden campaign never reused", builds, reuses)
	}
}

// TestWarmPoolGoldenMinuteTraceHash proves a restored machine replays
// the fault-free golden minute bit for bit: a machine dirtied by a
// high-intensity injection run, drawn warm from the pool, must produce
// the pinned golden trace hash and liveness counters.
func TestWarmPoolGoldenMinuteTraceHash(t *testing.T) {
	if testing.Short() {
		t.Skip("full-duration golden run")
	}
	pool := NewMachinePool()
	// A steady full-mode plan boots the golden run's profile, so the
	// golden minute runs on the machine this run dirtied.
	dirty := *PlanE3Fig3()
	dirty.Intensity = IntensityHigh
	dirty.Duration = 12 * sim.Second
	dirty.Name = "E3-dirty"
	if _, err := RunExperimentOpts(&dirty, 99, RunOptions{Pool: pool}); err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{1, 2022} {
		m, err := pool.Get(DefaultMachineOptions(seed))
		if err != nil {
			t.Fatalf("warm Get(seed %d): %v", seed, err)
		}
		gp, err := goldenProfileOn(m, seed, sim.Minute)
		if err != nil {
			t.Fatalf("warm golden run (seed %d): %v", seed, err)
		}
		if gp.TraceHash != goldenMinuteTraceHash {
			t.Fatalf("warm golden run (seed %d) trace hash = %#x, want golden %#x",
				seed, gp.TraceHash, goldenMinuteTraceHash)
		}
		if gp.CellLines != 291 || gp.RootLines != 10 || gp.LEDToggles != 120 {
			t.Fatalf("warm golden run (seed %d) liveness = (cell %d, root %d, led %d), want (291, 10, 120)",
				seed, gp.CellLines, gp.RootLines, gp.LEDToggles)
		}
		pool.Put(m)
	}
	if builds, reuses := pool.Stats(); builds != 1 || reuses != 2 {
		t.Fatalf("pool builds=%d reuses=%d — the golden minutes did not run on the dirtied machine", builds, reuses)
	}
}

// TestStateLeakFuzzSnapshotRestoreMatchesFresh is the leak detector:
// dirty a pool machine with a run of a random plan × fault model × mode
// at a random seed (injections park CPUs, panic the hypervisor, halt
// kernels, fill UARTs), restore it to the post-boot state of its own
// profile under a new seed, and demand the full observable state digest
// — pending/active IRQ bitmaps, UART buffers, engine queue, cell
// states, trace, RAM content, guest state — equals a freshly built
// machine's, bit for bit, before and after both run the same horizon.
func TestStateLeakFuzzSnapshotRestoreMatchesFresh(t *testing.T) {
	plans := shortPlans()
	models := FaultModelNames()
	modes := []CampaignMode{ModeFull, ModeDistribution}
	rng := rand.New(rand.NewSource(0xBADC0DE))
	iters := 12
	if testing.Short() {
		iters = 4
	}
	for iter := 0; iter < iters; iter++ {
		plan := *plans[rng.Intn(len(plans))]
		plan.FaultName = models[rng.Intn(len(models))]
		mode := modes[rng.Intn(len(modes))]
		dirtySeed := rng.Uint64()
		pool := NewMachinePool()
		if _, err := RunExperimentOpts(&plan, dirtySeed, RunOptions{Mode: mode, Pool: pool}); err != nil {
			t.Fatalf("iter %d: dirty run (%s/%s, seed %#x): %v", iter, plan.Name, plan.FaultName, dirtySeed, err)
		}
		if len(pool.idle) != 1 {
			t.Fatalf("iter %d: dirty run (%s/%s, seed %#x) left no machine in the pool", iter, plan.Name, plan.FaultName, dirtySeed)
		}
		m := pool.idle[0]

		opts := runMachineOptions(&plan, rng.Uint64())
		if err := m.Restore(opts); err != nil {
			t.Fatalf("iter %d: restore: %v", iter, err)
		}
		fresh, err := BuildMachine(opts)
		if err != nil {
			t.Fatalf("iter %d: fresh build: %v", iter, err)
		}
		if w, f := m.StateDigest(), fresh.StateDigest(); w != f {
			t.Fatalf("iter %d: state leak after %s/%s (dirty seed %#x): restored digest %#x != fresh digest %#x (opts %+v)",
				iter, plan.Name, plan.FaultName, dirtySeed, w, f, opts)
		}
		// A leak in unobserved state (e.g. RNG position) shows up as
		// divergence once events fire.
		m.Run(3 * sim.Second)
		fresh.Run(3 * sim.Second)
		if w, f := m.StateDigest(), fresh.StateDigest(); w != f {
			t.Fatalf("iter %d: divergence after running the restored machine: %#x != %#x", iter, w, f)
		}
	}
}

// TestPoolDropsWedgedMachine is the regression for the pool accepting
// unusable machines: a machine whose engine tripped the bounded-progress
// watchdog (or recorded a simulator fault) is tainted — Put must drop it
// on the floor and count the drop, and the next Get must serve a cold
// build indistinguishable from a fresh machine.
func TestPoolDropsWedgedMachine(t *testing.T) {
	pool := NewMachinePool()
	opts := DefaultMachineOptions(5)
	m, err := pool.Get(opts)
	if err != nil {
		t.Fatal(err)
	}

	// Wedge the machine: a zero-delay self-rescheduling event executes
	// forever at one virtual instant until the watchdog halts the run.
	armSpin(m)
	m.Run(1 * sim.Second)
	if !m.Tainted() {
		t.Fatal("wedged machine does not report tainted")
	}

	drops := metPoolDrops.Value()
	pool.Put(m)
	if got := metPoolDrops.Value(); got != drops+1 {
		t.Fatalf("tainted drop counter = %d, want %d", got, drops+1)
	}

	m2, err := pool.Get(opts)
	if err != nil {
		t.Fatal(err)
	}
	if m2 == m {
		t.Fatal("pool handed the wedged machine back out")
	}
	fresh, err := BuildMachine(opts)
	if err != nil {
		t.Fatal(err)
	}
	if m2.StateDigest() != fresh.StateDigest() {
		t.Fatalf("post-wedge rebuild digest %#x != cold build %#x", m2.StateDigest(), fresh.StateDigest())
	}
}

// TestStateDigestDiscriminates guards the digest itself: machines with
// different seeds or different boot options must not collide (else the
// leak fuzz proves nothing).
func TestStateDigestDiscriminates(t *testing.T) {
	a, err := BuildMachine(DefaultMachineOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildMachine(DefaultMachineOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if a.StateDigest() != b.StateDigest() {
		t.Fatal("identical builds digest differently")
	}
	a.Run(2 * sim.Second)
	if a.StateDigest() == b.StateDigest() {
		t.Fatal("running the machine did not change the digest")
	}
	c, err := BuildMachine(MachineOptions{Seed: 1, StateWatchdog: true, DelayedCreate: true})
	if err != nil {
		t.Fatal(err)
	}
	if c.StateDigest() == b.StateDigest() {
		t.Fatal("different boot options digest identically")
	}
}

// TestMachinePoolConcurrentWorkers exercises the pool from many
// goroutines at once — the configuration the bench.sh race gate runs —
// and checks the shared-pool campaign still lands on the serial
// aggregate.
func TestMachinePoolConcurrentWorkers(t *testing.T) {
	plan := *PlanE3Fig3()
	plan.Duration = 6 * sim.Second
	plan.Name = "E3-pool-race"
	const runs = 24

	serial := &Campaign{Plan: &plan, Runs: runs, MasterSeed: 11, Workers: 1}
	want, err := serial.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	pool := NewMachinePool()
	parallel := &Campaign{Plan: &plan, Runs: runs, MasterSeed: 11, Workers: 8, Pool: pool}
	got, err := parallel.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range AllOutcomes() {
		if got.Count(o) != want.Count(o) {
			t.Fatalf("count(%v) = %d pooled, %d serial", o, got.Count(o), want.Count(o))
		}
	}
	if got.InjectionsTotal() != want.InjectionsTotal() {
		t.Fatalf("injections %d pooled, %d serial", got.InjectionsTotal(), want.InjectionsTotal())
	}
	builds, reuses := pool.Stats()
	if builds+reuses != runs {
		t.Fatalf("pool served %d machines for %d runs", builds+reuses, runs)
	}
	if builds > 8 {
		t.Fatalf("pool built %d machines for 8 workers — reuse is not happening", builds)
	}
}

// TestPoolServesEachProfileItsOwnMachine pins the pool's profile
// affinity: once three machines were out at once, E3, E1 and E2 runs
// interleaved on one pool leave exactly one machine per boot profile,
// and every run equals its straight run from a fresh build. Plans that
// differ only in duration share a profile, so they share one machine,
// one timeline and one golden lineage, and so do a plan's full- and
// distribution-mode runs. A fourth profile replaces the least recently
// parked machine instead of growing the pool. Restore refuses a foreign
// profile and a tainted machine.
func TestPoolServesEachProfileItsOwnMachine(t *testing.T) {
	plans := shortPlans() // E1, E2, E3
	pool := NewMachinePool()
	holdOnePerPlan(t, pool, plans...)
	for _, seed := range []uint64{3, 42} {
		for _, plan := range []*TestPlan{plans[2], plans[0], plans[1]} {
			got, err := RunExperimentOpts(plan, seed, RunOptions{Mode: ModeFull, Pool: pool, CaptureTraceHash: true})
			if err != nil {
				t.Fatalf("%s seed %d pooled: %v", plan.Name, seed, err)
			}
			want, err := RunExperimentOpts(plan, seed, RunOptions{Mode: ModeFull, CaptureTraceHash: true})
			if err != nil {
				t.Fatalf("%s seed %d straight: %v", plan.Name, seed, err)
			}
			if fingerprint(got) != fingerprint(want) {
				t.Fatalf("%s seed %d: pooled run diverged from its straight run:\npooled:   %+v\nstraight: %+v",
					plan.Name, seed, fingerprint(got), fingerprint(want))
			}
		}
	}
	if builds, reuses := pool.Stats(); builds != 3 || reuses != 6 {
		t.Fatalf("pool builds=%d reuses=%d, want one build and two reuses per profile", builds, reuses)
	}
	profiles := make(map[profileKey]bool)
	for _, m := range pool.idle {
		profiles[m.profile] = true
	}
	if len(pool.idle) != 3 || len(profiles) != 3 {
		t.Fatalf("pool holds %d machines of %d profiles, want 3 of 3", len(pool.idle), len(profiles))
	}

	short := plans[2]
	long := *short
	long.Duration = 2 * short.Duration
	long.Name = "E3-warmdiff-long"
	if _, err := RunExperimentOpts(&long, 5, RunOptions{Mode: ModeFull, Pool: pool}); err != nil {
		t.Fatal(err)
	}
	if builds, _ := pool.Stats(); builds != 3 || len(pool.idle) != 3 {
		t.Fatalf("a longer E3 plan built a machine of its own (builds=%d, idle=%d)", builds, len(pool.idle))
	}
	e3 := pool.idle[2]
	if e3.profile != profileOf(runMachineOptions(&long, 5)) {
		t.Fatal("the longer E3 plan did not run on the E3 machine")
	}
	if len(e3.timelines) != 1 {
		t.Fatalf("E3 machine keeps %d timelines for two durations, want 1", len(e3.timelines))
	}
	for i, c := range e3.timelines[0].cps {
		if c.golden != e3.postBoot.golden {
			t.Fatalf("checkpoint %d of the E3 timeline lies on another golden lineage", i)
		}
	}

	// The capture mode is not part of the profile: a distribution-mode
	// E3 run reuses the E3 machine.
	if _, err := RunExperimentOpts(short, 5, RunOptions{Mode: ModeDistribution, Pool: pool}); err != nil {
		t.Fatal(err)
	}
	if builds, _ := pool.Stats(); builds != 3 || len(pool.idle) != 3 || pool.idle[2] != e3 {
		t.Fatalf("a distribution-mode E3 run did not reuse the E3 machine (builds=%d, idle=%d)", builds, len(pool.idle))
	}

	// idle is in parking order: E1, E2, then the E3 machine. A fourth
	// profile — the E3 workload without its state watchdog — replaces
	// the E1 machine.
	e1 := pool.idle[0]
	unwatched := runMachineOptions(short, 5)
	unwatched.StateWatchdog = false
	m4, err := pool.Get(unwatched)
	if err != nil {
		t.Fatal(err)
	}
	pool.Put(m4)
	if builds, _ := pool.Stats(); builds != 4 || len(pool.idle) != 3 || slices.Contains(pool.idle, e1) {
		t.Fatalf("a fourth profile grew the pool (builds=%d, idle=%d, E1 machine kept %v)",
			builds, len(pool.idle), slices.Contains(pool.idle, e1))
	}

	m, err := pool.Get(runMachineOptions(short, 9))
	if err != nil {
		t.Fatal(err)
	}
	if m != e3 {
		t.Fatal("the E3 machine was evicted although it was parked after the E1 machine")
	}
	if err := m.Restore(runMachineOptions(plans[0], 9)); err == nil {
		t.Fatal("Restore accepted the E1 profile on an E3 machine")
	}
	armSpin(m)
	m.Run(sim.Second)
	if !m.Tainted() {
		t.Fatal("wedged machine does not report tainted")
	}
	if err := m.Restore(runMachineOptions(short, 9)); err == nil {
		t.Fatal("Restore accepted a tainted machine")
	}
}

// TestFullAndDistributionRunsShareOneMachine: full- and
// distribution-mode runs of one workload boot the same profile, so
// E1-hvc and E3-fig3 runs interleaved across both modes on one pool
// build one machine per workload, and every run equals its straight run
// from a fresh build in the same mode — result fingerprint and final
// state digest.
func TestFullAndDistributionRunsShareOneMachine(t *testing.T) {
	plans := shortPlans()
	e1, e3 := plans[0], plans[2]
	pool := NewMachinePool()
	holdOnePerPlan(t, pool, e1, e3)
	steps := []struct {
		plan *TestPlan
		mode CampaignMode
	}{{e1, ModeFull}, {e3, ModeDistribution}, {e1, ModeDistribution}, {e3, ModeFull}}
	for _, seed := range []uint64{3, 42} {
		for _, st := range steps {
			ro := RunOptions{Mode: st.mode, CaptureTraceHash: true}
			opts := runMachineOptions(st.plan, seed)
			fresh, err := BuildMachine(opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := runOn(fresh, true, false, opts, st.plan, ro)
			if err != nil {
				t.Fatal(err)
			}
			ro.Pool = pool
			got, err := RunExperimentOpts(st.plan, seed, ro)
			if err != nil {
				t.Fatal(err)
			}
			m := pool.idle[len(pool.idle)-1] // the run's machine, parked last
			if fingerprint(got) != fingerprint(want) {
				t.Fatalf("%s %v seed %d: pooled run diverged from its straight run:\npooled:   %+v\nstraight: %+v",
					st.plan.Name, st.mode, seed, fingerprint(got), fingerprint(want))
			}
			if g, w := m.StateDigest(), fresh.StateDigest(); g != w {
				t.Fatalf("%s %v seed %d: pooled digest %#x != straight digest %#x", st.plan.Name, st.mode, seed, g, w)
			}
		}
	}
	if builds, reuses := pool.Stats(); builds != 2 || reuses != 2*uint64(len(steps)) {
		t.Fatalf("pool builds=%d reuses=%d, want one build per workload and a reuse per run", builds, reuses)
	}
}
