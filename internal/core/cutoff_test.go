package core

import (
	"reflect"
	"testing"

	"github.com/dessertlab/certify/internal/board"
	"github.com/dessertlab/certify/internal/sim"
)

// Exactness suite for the convergence cut-off: a run that stops at a
// boundary where it rejoined its golden trajectory and splices the
// golden suffix in must be indistinguishable from the straight run —
// the same full-mode RunResult (verdict and evidence, injections, call
// counts, transcripts, console, LED toggles, cell lines, detection
// latency, trace hash) and the same final StateDigest, queued events
// included.

// cutoffDuration is the horizon the plan × model sweep runs at: long
// enough for injections, recovery and several boundaries after them,
// short enough to sweep every builtin plan and fault model over many
// seeds.
const cutoffDuration = 12 * sim.Second

// TestCutoffRunsMatchStraightRuns: for every builtin plan and every
// registered fault model, a pool whose timeline reaches the horizon runs
// ≥60 seeds; each run — cut off or not — must equal its straight run.
// The sweep must cut off runs that injected, not only fault-free ones.
func TestCutoffRunsMatchStraightRuns(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 6
	}
	var cut, cutInjected int
	for _, name := range BuiltinPlanNames() {
		for _, model := range FaultModelNames() {
			base, err := PlanByName(name)
			if err != nil {
				t.Fatal(err)
			}
			plan := *base
			plan.FaultName = model
			plan.Duration = cutoffDuration
			t.Run(name+"/"+model, func(t *testing.T) {
				pool := NewMachinePool()
				pooledRun(t, pool, quietVariant(&plan), 1)
				for i := 0; i < seeds; i++ {
					state := uint64(i) + 0xC0FFEE
					seed := sim.SplitMix64(&state)
					before := metCutoffRuns.Value()
					got, gotDigest, _ := pooledRun(t, pool, &plan, seed)
					want, wantDigest := straightRun(t, &plan, seed)
					if !reflect.DeepEqual(got, want) || gotDigest != wantDigest {
						t.Fatalf("seed %#x (cut off: %v): pooled %s (digest %#x), straight %s (digest %#x)",
							seed, metCutoffRuns.Value() > before, summarize(got), gotDigest, summarize(want), wantDigest)
					}
					if metCutoffRuns.Value() > before {
						cut++
						if len(got.Injections) > 0 {
							cutInjected++
						}
					}
				}
			})
		}
	}
	t.Logf("%d runs cut off, %d of them after injecting", cut, cutInjected)
	if cutInjected == 0 {
		t.Fatal("no run that injected was cut off")
	}
}

// TestCutoffFullLengthE3 holds full-horizon E3-fig3 runs — the plan the
// cut-off is for — to their straight runs, starting from a cold pool so
// the timeline reaches the horizon only through the lazy extension.
func TestCutoffFullLengthE3(t *testing.T) {
	seeds := 24
	if testing.Short() {
		seeds = 6
	}
	plan := PlanE3Fig3()
	pool := NewMachinePool()
	cut, ext := metCutoffRuns.Value(), metTimelineExtension.Value()
	for i := 0; i < seeds; i++ {
		seed := uint64(2022 + i)
		got, gotDigest, m := pooledRun(t, pool, plan, seed)
		want, wantDigest := straightRun(t, plan, seed)
		if !reflect.DeepEqual(got, want) || gotDigest != wantDigest {
			t.Fatalf("seed %d: pooled %s (digest %#x), straight %s (digest %#x)",
				seed, summarize(got), gotDigest, summarize(want), wantDigest)
		}
		if m.owed != nil && m.owed.tl.frontier().at() >= plan.EffectiveDuration() {
			t.Fatalf("seed %d: extension owed on a timeline that already reaches the horizon", seed)
		}
	}
	if metTimelineExtension.Value() == ext {
		t.Fatal("no timeline extension was paid")
	}
	if metCutoffRuns.Value() == cut {
		t.Fatal("no run was cut off")
	}
}

// TestCutoffNeedsEveryCheck pins the eligibility checks one at a time:
// a run that rejoined (its state equals the golden checkpoint at a
// boundary) must not be cut off when its queue, its RAM or its future
// triggers say otherwise.
func TestCutoffNeedsEveryCheck(t *testing.T) {
	plan := *PlanE3Fig3()
	plan.Duration = cutoffDuration
	quiet := quietVariant(&plan)
	pool := NewMachinePool()
	_, _, m := pooledRun(t, pool, quiet, 1)
	tl := timelineFor(t, m, &plan)
	origin := tl.cps[0].at()
	horizon := origin + plan.EffectiveDuration()
	b := origin + 6*checkpointSpacing
	cb := tl.cps[6]
	if cb.total == tl.cps[len(tl.cps)-1].total {
		t.Fatal("no golden call between the boundary and the horizon")
	}

	// prepareAt rewinds m to the golden checkpoint at b with a quiet
	// injector: every check passes there unless the test breaks one.
	prepareAt := func() timelineRun {
		t.Helper()
		inj := runInjector(t, quiet, 5, m.Board.Now)
		inj.BindMachine(m)
		m.restoreTo(cb, 5)
		inj.preload(cb.calls, cb.total)
		m.HV.Hook = inj.Hook
		return timelineRun{tl: tl, inj: inj}
	}
	check := func(name string, breakIt func(r timelineRun), want bool) {
		t.Helper()
		r := prepareAt()
		breakIt(r)
		if got := m.rejoin(r, b, horizon); got != want {
			t.Fatalf("%s: rejoin = %v, want %v", name, got, want)
		}
	}
	check("golden state", func(timelineRun) {}, true)
	// The extra event sorts after every event a handle refers to, so
	// only the queue comparison can see it.
	check("extra queued event", func(timelineRun) {
		m.Board.Engine.After(sim.Minute, board.EvRaiseSPI, 40, 0)
	}, false)
	check("RAM word", func(timelineRun) {
		_ = m.Board.RAM.WriteWord(board.DRAMBase+0x100, 0xBAD)
	}, false)
	check("later trigger", func(r timelineRun) {
		// The real rate, phased to fire on the first golden call after b.
		rate := uint64(plan.EffectiveRate())
		r.inj.plan = &plan
		r.inj.phase = (rate - (cb.total+1)%rate) % rate
	}, false)
	check("tainted", func(timelineRun) { m.simFault = "test" }, false)
}

// TestStateDigestFoldsQueuedEvents: two machines that differ only in one
// queued event's argument must digest differently; the queue's length
// alone no longer decides.
func TestStateDigestFoldsQueuedEvents(t *testing.T) {
	digest := func(arg uint64) uint64 {
		m, err := BuildMachine(DefaultMachineOptions(3))
		if err != nil {
			t.Fatal(err)
		}
		m.Board.Engine.After(sim.Second, board.EvSendSGI, 0, 1<<8|arg)
		return m.StateDigest()
	}
	if digest(2) == digest(3) {
		t.Fatal("machines differing in a queued event's argument digest equal")
	}
	if digest(2) != digest(2) {
		t.Fatal("identical machines digest differently")
	}
}
