package core

import (
	"reflect"
	"strings"
	"testing"

	"github.com/dessertlab/certify/internal/board"
	"github.com/dessertlab/certify/internal/obs"
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
// the timeline reaches the horizon only through the golden pass.
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
		if at := timelineFor(t, m, plan).frontier().at(); i == 0 && at != plan.EffectiveDuration() {
			t.Fatalf("timeline reaches %v before the second run, want the horizon %v", at, plan.EffectiveDuration())
		}
	}
	if metTimelineExtension.Value() == ext {
		t.Fatal("no timeline extension was paid")
	}
	if metCutoffRuns.Value() == cut {
		t.Fatal("no run was cut off")
	}
}

// TestFailedProbeRunsRejoin: on E1 a corrupted hypercall or trap often
// fails root Linux's GET_STATE probe once. The failure is printed on
// the root console and changes nothing the run goes on to do, so such a
// run must still rejoin its golden trajectory — it is cut off — and
// equal its straight run in the full RunResult and the final
// StateDigest.
func TestFailedProbeRunsRejoin(t *testing.T) {
	for _, plan := range []*TestPlan{PlanE1HVC(), PlanE1Trap()} {
		t.Run(plan.Name, func(t *testing.T) {
			pool := NewMachinePool()
			found := 0
			for seed := uint64(31); seed < 31+64 && (found == 0 || !testing.Short() && found < 4); seed++ {
				cut := metCutoffRuns.Value()
				got, gotDigest, _ := pooledRun(t, pool, plan, seed)
				want, wantDigest := straightRun(t, plan, seed)
				if !reflect.DeepEqual(got, want) || gotDigest != wantDigest {
					t.Fatalf("seed %d: pooled %s (digest %#x), straight %s (digest %#x)",
						seed, summarize(got), gotDigest, summarize(want), wantDigest)
				}
				if metCutoffRuns.Value() > cut && strings.Contains(got.RootTranscript, "cell state failed") {
					t.Logf("seed %d: cut off after a failed state probe", seed)
					found++
				}
			}
			if found == 0 {
				t.Fatal("no run whose state probe failed was cut off")
			}
		})
	}
}

// TestFastForwardRunsMatchStraightRuns: a run that rejoins its golden
// trajectory between injections jumps to the last checkpoint before its
// next one and simulates that injection for real. Full-horizon E3-fig3
// runs from a cold pool (the golden pass records the timeline first)
// and every builtin plan × fault model at cutoffDuration, with a rate
// that spaces firings ~4 s apart on a timeline that reaches the horizon,
// must each equal the straight run. Fast-forwards must happen. On a
// timeline that reaches the horizon every jump short of it lands before
// a known firing call, and every jump follows an injection, so each
// fast-forwarded run there injects at least twice.
func TestFastForwardRunsMatchStraightRuns(t *testing.T) {
	seeds, e3Seeds := 20, 24
	if testing.Short() {
		seeds, e3Seeds = 4, 8
	}
	var jumped, injectedAfter int
	// run compares the pooled run of plan at seed with its straight run
	// and reports whether the pooled one fast-forwarded.
	run := func(t *testing.T, pool *MachinePool, plan *TestPlan, seed uint64) (*RunResult, bool) {
		t.Helper()
		before := metFastForwards.Value()
		got, gotDigest, _ := pooledRun(t, pool, plan, seed)
		want, wantDigest := straightRun(t, plan, seed)
		ff := metFastForwards.Value() > before
		if !reflect.DeepEqual(got, want) || gotDigest != wantDigest {
			t.Fatalf("seed %#x (fast-forwarded: %v): pooled %s (digest %#x), straight %s (digest %#x)",
				seed, ff, summarize(got), gotDigest, summarize(want), wantDigest)
		}
		if ff {
			jumped++
		}
		return got, ff
	}
	t.Run("E3-fig3", func(t *testing.T) {
		pool := NewMachinePool()
		for i := 0; i < e3Seeds; i++ {
			run(t, pool, PlanE3Fig3(), uint64(2022+i))
		}
	})
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
				_, _, m := pooledRun(t, pool, quietVariant(&plan), 1)
				// A third of the golden calls up to the horizon: about
				// three firings, ~4 s apart.
				plan.Rate = max(1, len(timelineFor(t, m, &plan).calls)/3)
				for i := 0; i < seeds; i++ {
					state := uint64(i) + 0xFA57
					seed := sim.SplitMix64(&state)
					got, ff := run(t, pool, &plan, seed)
					if !ff {
						continue
					}
					if len(got.Injections) < 2 {
						t.Fatalf("seed %#x fast-forwarded but injected %d time(s)", seed, len(got.Injections))
					}
					injectedAfter++
				}
			})
		}
	}
	t.Logf("%d runs fast-forwarded, %d of them on a horizon-length timeline", jumped, injectedAfter)
	if injectedAfter == 0 {
		t.Fatal("no fast-forwarded run injected after its jump")
	}
}

// TestCutoffNeedsEveryCheck pins the rejoin checks one at a time: a run
// that rejoined (its state equals the golden checkpoint at a boundary)
// must jump neither to the horizon nor to a later checkpoint when its
// queue, its RAM or its health say otherwise, and the injector's next
// firing call decides where it lands. A skewed LED toggle count, a log,
// must not refuse a jump, and the run must land with the target's
// golden count plus its skew: a splice that kept the run's count or
// took the golden one would fail here.
func TestCutoffNeedsEveryCheck(t *testing.T) {
	plan := *PlanE3Fig3()
	plan.Duration = cutoffDuration
	quiet := quietVariant(&plan)
	pool := NewMachinePool()
	_, _, m := pooledRun(t, pool, quiet, 1)
	tl := timelineFor(t, m, &plan)
	origin := tl.cps[0].at()
	horizon := origin + plan.EffectiveDuration()
	ih := int(plan.EffectiveDuration() / checkpointSpacing)
	// The boundary at 6 s, past the plan's arm offset.
	ib := int(6 * sim.Second / checkpointSpacing)
	b := origin + sim.Time(ib)*checkpointSpacing
	cb := tl.cps[ib]
	if tl.cps[ib+1].total == cb.total {
		t.Fatal("no golden call in the segment after the boundary")
	}
	// later is the last golden call up to the horizon; landing is the
	// last checkpoint before it.
	later := tl.cps[ih].total
	landing := ib
	for tl.cps[landing+1].total < later {
		landing++
	}
	if landing == ib {
		t.Fatal("no checkpoint between the boundary and the last golden call")
	}

	// expect rewinds m to the golden checkpoint at b with an injector
	// that fires on golden call fire (never when 0), lets breakIt break
	// one thing and calls rejoin. It checks the answer, and that the
	// machine stands at checkpoint at with the injector's counters at
	// its golden counts, and which jump counter moved.
	expect := func(name string, fire uint64, breakIt func(), want bool, at *checkpoint) {
		t.Helper()
		inj := runInjector(t, quiet, 5, m.Board.Now)
		if fire > 0 {
			// The real rate, phased to fire on golden call fire.
			rate := uint64(plan.EffectiveRate())
			inj.plan = &plan
			inj.phase = (rate - fire%rate) % rate
		}
		armRun(inj, &plan, origin)
		inj.BindMachine(m)
		m.restoreTo(cb, 5)
		inj.preload(cb)
		m.HV.Hook = inj.Hook
		breakIt()
		cut, ff := metCutoffRuns.Value(), metFastForwards.Value()
		if got := m.rejoin(timelineRun{tl: tl, inj: inj}, b, horizon); got != want {
			t.Fatalf("%s: rejoin = %v, want %v", name, got, want)
		}
		if now := m.Board.Now(); now != at.at() {
			t.Fatalf("%s: machine at %v, want %v", name, now, at.at())
		}
		if inj.TotalCalls() != at.total || inj.calls != at.calls {
			t.Fatalf("%s: injector counted %d calls %v, golden counts at %v are %d %v",
				name, inj.TotalCalls(), inj.calls, at.at(), at.total, at.calls)
		}
		jump := at != cb
		if (metCutoffRuns.Value() > cut) != (jump && at == tl.cps[ih]) ||
			(metFastForwards.Value() > ff) != (jump && at != tl.cps[ih]) {
			t.Fatalf("%s: cut-offs %d→%d, fast-forwards %d→%d", name, cut, metCutoffRuns.Value(), ff, metFastForwards.Value())
		}
	}
	nothing := func() {}
	refused := rejoinRefusals()
	expect("golden state", 0, nothing, true, tl.cps[ih])
	expect("next trigger", cb.total+1, nothing, false, cb)
	expect("later trigger", later, nothing, false, tl.cps[landing])
	if n := rejoinRefusals() - refused; n != 0 {
		t.Fatalf("%d refusals counted where no check refused", n)
	}
	for _, c := range []struct {
		name    string
		breakIt func()
		refused *obs.Counter
	}{
		// The extra event sorts after every event a handle refers to, so
		// only the queue comparison can see it.
		{"extra queued event", func() { m.Board.Engine.After(sim.Minute, board.EvRaiseSPI, 40, 0) }, refusedQueue},
		{"RAM word", func() { _ = m.Board.RAM.WriteWord(board.DRAMBase+0x100, 0xBAD) }, refusedRAM},
		{"tainted", func() { m.simFault = "test" }, refusedTainted},
	} {
		refused, mine := rejoinRefusals(), c.refused.Value()
		expect(c.name+" (no trigger left)", 0, c.breakIt, false, cb)
		expect(c.name+" (later trigger)", later, c.breakIt, false, cb)
		if rejoinRefusals()-refused != 2 || c.refused.Value()-mine != 2 {
			t.Fatalf("%s: refusals %d→%d, %d→%d under its own check; want 2 more under its own",
				c.name, refused, rejoinRefusals(), mine, c.refused.Value())
		}
	}

	// toggles reads the LED toggle count at checkpoint c, or the
	// machine's own when c is nil.
	toggles := func(c *checkpoint) int {
		if c != nil {
			m.restoreTo(c, 5)
		}
		return m.Board.GPIO.ToggleCount()
	}
	// skew raises the LED count by 4: an even number of toggles leaves
	// the LED level, which is state, as b has it.
	skew := func() {
		led := m.Board.GPIO.Get()
		for i := 0; i < 4; i++ {
			led = !led
			m.Board.GPIO.Set(led)
		}
	}
	for _, c := range []struct {
		name string
		fire uint64
		want bool
		at   *checkpoint
	}{
		{"LED toggle skew (no trigger left)", 0, true, tl.cps[ih]},
		{"LED toggle skew (later trigger)", later, false, tl.cps[landing]},
	} {
		from, to := toggles(cb), toggles(c.at)
		if from == to {
			t.Fatalf("%s: the LED toggle count does not move between b and the target (%d)", c.name, from)
		}
		refused := rejoinRefusals()
		expect(c.name, c.fire, skew, c.want, c.at)
		if got := toggles(nil); got != to+4 {
			t.Fatalf("%s: machine lands with %d LED toggles, want the target's golden %d plus 4", c.name, got, to)
		}
		if rejoinRefusals() != refused {
			t.Fatalf("%s: counted as a refusal", c.name)
		}
	}
}

// rejoinRefusals sums certify_core_rejoin_refused_total over its checks.
func rejoinRefusals() uint64 {
	var n float64
	for _, s := range obs.Default.Snapshot() {
		if s.Name == "certify_core_rejoin_refused_total" {
			for _, ser := range s.Series {
				n += ser.Value
			}
		}
	}
	return uint64(n)
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
