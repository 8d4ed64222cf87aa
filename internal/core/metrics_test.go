package core

import (
	"context"
	"testing"

	"github.com/dessertlab/certify/internal/board"
	"github.com/dessertlab/certify/internal/obs"
	"github.com/dessertlab/certify/internal/sim"
)

// TestSimEventsByKindSumToTotal pins the per-kind dispatch split: over
// a campaign, the certify_core_sim_events_by_kind_total children grow
// by exactly what certify_core_sim_events_total grows by, and the kinds
// an E1 campaign dispatches — timer ticks and root Linux's recreate
// cycles — show up under their own names.
func TestSimEventsByKindSumToTotal(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(true) // recording is on by default

	byKind := func() (out [board.NumEventKinds]uint64) {
		for k := range out {
			out[k] = metSimEventsByKind.With(board.EventKindName(sim.HandlerKind(k))).Value()
		}
		return out
	}
	total, kinds := metSimEvents.Value(), byKind()
	c := &Campaign{Plan: PlanE1HVC(), Runs: 4, MasterSeed: 9, Workers: 1, Mode: ModeDistribution}
	if _, err := c.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	var sum uint64
	after := byKind()
	for k := range after {
		sum += after[k] - kinds[k]
	}
	if grew := metSimEvents.Value() - total; grew == 0 || sum != grew {
		t.Fatalf("per-kind counts grew by %d, certify_core_sim_events_total by %d", sum, grew)
	}
	for _, k := range []sim.HandlerKind{board.EvTimer, board.EvLinuxRecreate} {
		if after[k] == kinds[k] {
			t.Errorf("no %s events counted", board.EventKindName(k))
		}
	}
}

// TestSimEventsCountGoldenPass: the golden pass that records a fresh
// pool's timeline up to the horizon counts towards
// certify_core_sim_events_total on top of the run's own events, which
// alone go to the per-run histogram.
func TestSimEventsCountGoldenPass(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(true) // recording is on by default

	plan := PlanE3Fig3()
	opts := runMachineOptions(plan, 1)
	m, err := BuildMachine(opts)
	if err != nil {
		t.Fatal(err)
	}
	m.CaptureSnapshot()
	if err := m.Restore(opts); err != nil {
		t.Fatal(err)
	}
	m.Run(plan.EffectiveDuration())
	golden := m.Board.Engine.Executed()

	total, perRun := metSimEvents.Value(), metSimEventsPerRun.Sum()
	if _, err := RunExperimentOpts(plan, 2022, RunOptions{Mode: ModeDistribution, Pool: NewMachinePool()}); err != nil {
		t.Fatal(err)
	}
	own := uint64(metSimEventsPerRun.Sum() - perRun)
	if grew := metSimEvents.Value() - total; grew != golden+own {
		t.Fatalf("first run on a fresh pool counted %d events, want the golden pass's %d plus the run's own %d", grew, golden, own)
	}
}
