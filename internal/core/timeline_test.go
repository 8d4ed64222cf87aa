package core

import (
	"reflect"
	"strings"
	"testing"

	"github.com/dessertlab/certify/internal/sim"
)

// gridPoint returns the last checkpoint instant of tl at or before
// plan's horizon.
func gridPoint(tl *timeline, plan *TestPlan) sim.Time {
	return tl.cps[0].at() + plan.EffectiveDuration()/checkpointSpacing*checkpointSpacing
}

// TestFirstRunCoversHorizon: the golden pass records a fresh pool's
// timeline up to the plan's horizon grid point before the first run of
// every builtin plan, and no later run of the plan captures a
// checkpoint.
func TestFirstRunCoversHorizon(t *testing.T) {
	later := 4
	if testing.Short() {
		later = 2
	}
	for _, name := range BuiltinPlanNames() {
		plan, err := PlanByName(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			pool := NewMachinePool()
			_, _, m := pooledRun(t, pool, plan, 1)
			tl := timelineFor(t, m, plan)
			if got, want := tl.frontier().at(), gridPoint(tl, plan); got != want {
				t.Fatalf("frontier at %v after the first run, want the horizon grid point %v", got, want)
			}
			cps, captures := len(tl.cps), metCheckpointCaptures.Value()
			for seed := uint64(2); seed < uint64(2+later); seed++ {
				pooledRun(t, pool, plan, seed)
			}
			if len(tl.cps) != cps || metCheckpointCaptures.Value() != captures {
				t.Fatalf("later runs grew the timeline from %d to %d checkpoints (%d captures)",
					cps, len(tl.cps), metCheckpointCaptures.Value()-captures)
			}
		})
	}
}

// TestLongerHorizonExtendsTimeline: a plan file with the timeline key of
// an earlier plan and a longer horizon extends the timeline once more,
// up to its own horizon, even when the machine's last run left the
// golden trajectory; its runs, and the shorter plan's runs after it,
// equal their straight runs.
func TestLongerHorizonExtendsTimeline(t *testing.T) {
	withDuration := func(d string) *TestPlan {
		t.Helper()
		text := MarshalPlan(PlanE3Fig3())
		text = strings.Replace(text, "duration  = 1m0s", "duration  = "+d, 1)
		plan, err := ParsePlan(text)
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	short, long, longer := withDuration("8s"), withDuration("16s"), withDuration("16.25s")
	if short.EffectiveDuration() != 8*sim.Second || longer.EffectiveDuration() != long.EffectiveDuration()+checkpointSpacing {
		t.Fatalf("plan files read horizons %v, %v and %v",
			short.EffectiveDuration(), long.EffectiveDuration(), longer.EffectiveDuration())
	}
	pool := NewMachinePool()
	check := func(plan *TestPlan, seed uint64) (*RunResult, *Machine) {
		t.Helper()
		got, gotDigest, m := pooledRun(t, pool, plan, seed)
		want, wantDigest := straightRun(t, plan, seed)
		if !reflect.DeepEqual(got, want) || gotDigest != wantDigest {
			t.Fatalf("%v horizon, seed %d: pooled %s (digest %#x), straight %s (digest %#x)",
				plan.EffectiveDuration(), seed, summarize(got), gotDigest, summarize(want), wantDigest)
		}
		return got, m
	}
	_, m := check(short, 1)
	tl := timelineFor(t, m, short)
	if got := tl.frontier().at(); got != gridPoint(tl, short) {
		t.Fatalf("short plan recorded its timeline to %v", got)
	}
	// The golden pass must start from the frontier, not from where a
	// run that did not end on the golden trajectory left the machine.
	for seed := uint64(2); ; seed++ {
		if res, _ := check(short, seed); res.Outcome() != OutcomeCorrect {
			break
		}
		if seed == 40 {
			t.Fatal("no short run ended off the golden trajectory")
		}
	}
	extended := func(plan *TestPlan, seeds ...uint64) {
		t.Helper()
		ext := metTimelineExtension.Value()
		from := tl.frontier().at()
		for _, seed := range seeds {
			check(plan, seed)
			if timelineFor(t, m, plan) != tl {
				t.Fatal("a longer plan got a timeline of its own")
			}
			if got, want := metTimelineExtension.Value()-ext, virtualMillis(gridPoint(tl, plan)-from); got != want {
				t.Fatalf("%v horizon, seed %d: timelines extended by %d ms, want %d ms once", plan.EffectiveDuration(), seed, got, want)
			}
			if got := tl.frontier().at(); got != gridPoint(tl, plan) {
				t.Fatalf("%v horizon, seed %d: frontier at %v", plan.EffectiveDuration(), seed, got)
			}
		}
	}
	extended(long, 41, 42, 43, 44, 45, 46)
	extended(longer, 47, 48)
	for seed := uint64(49); seed < 53; seed++ {
		check(short, seed)
	}
}
