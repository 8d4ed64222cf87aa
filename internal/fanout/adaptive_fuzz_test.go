package fanout

import (
	"context"
	"testing"
	"time"

	"github.com/dessertlab/certify/internal/analytics"
	"github.com/dessertlab/certify/internal/core"
	"github.com/dessertlab/certify/internal/dist"
)

// adaptiveReference runs the in-memory adaptive campaign and returns
// its aggregate (carrying the stop decision) — the baseline every
// supervised configuration must reproduce exactly.
func adaptiveReference(t *testing.T, plan *core.TestPlan, runs int, seed uint64, stop *core.StopSpec) *core.CampaignResult {
	t.Helper()
	policy, err := analytics.NewStopPolicy(stop)
	if err != nil {
		t.Fatal(err)
	}
	c := &core.Campaign{Plan: plan, Runs: runs, MasterSeed: seed, Mode: core.ModeDistribution, Stop: policy}
	res, err := c.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// requireSameDecision asserts two adaptive aggregates agree on the stop
// decision and the certified prefix's distribution.
func requireSameDecision(t *testing.T, label string, got, want *core.CampaignResult) {
	t.Helper()
	if got.Stop == nil || want.Stop == nil {
		t.Fatalf("%s: stop decision missing (got %+v, want %+v)", label, got.Stop, want.Stop)
	}
	if *got.Stop != *want.Stop {
		t.Fatalf("%s: stop decision %+v, reference %+v", label, got.Stop, want.Stop)
	}
	if got.Total() != want.Total() {
		t.Fatalf("%s: aggregate %d runs, reference %d", label, got.Total(), want.Total())
	}
	for _, o := range core.AllOutcomes() {
		if got.Count(o) != want.Count(o) {
			t.Fatalf("%s: count(%v) = %d, reference %d", label, o, got.Count(o), want.Count(o))
		}
	}
}

// FuzzAdaptiveStopShardInvariance fuzzes the certified-prefix contract
// across deployment shapes: for arbitrary (seed, CI width) the decided
// index and the certified prefix's distribution are identical whether
// the campaign runs in one process or is supervised across K ∈ {1,3,8}
// fan-out workers — including a fan-out where one worker is killed
// mid-shard and restarted. The stop decision is a pure function of the
// seed chain; no amount of re-sharding or crash-recovery may move it.
func FuzzAdaptiveStopShardInvariance(f *testing.F) {
	f.Add(uint64(2022), uint16(3000))
	f.Add(uint64(7), uint16(4500))
	f.Add(uint64(99), uint16(6000))
	plan := shortE3()
	f.Fuzz(func(t *testing.T, seed uint64, widthRaw uint16) {
		// Keep the target loose (30–80pp) so the policy fires within a
		// test-sized campaign for any seed.
		stop := &core.StopSpec{Policy: core.StopPolicyCIWidth, WidthBP: 3000 + int(widthRaw)%5000}
		const runs = 24
		ref := adaptiveReference(t, plan, runs, seed, stop)

		for _, k := range []int{1, 3, 8} {
			spec := &dist.Spec{Plan: plan, Runs: runs, MasterSeed: seed, Shards: k,
				Mode: core.ModeDistribution, Stop: stop.Clone()}
			res, err := Run(context.Background(), Config{
				Spec: spec, Dir: t.TempDir(), Poll: 2 * time.Millisecond,
			})
			if err != nil {
				t.Fatalf("shards-%d: %v", k, err)
			}
			requireSameDecision(t, "shards", res.Merged, ref)
		}

		// Crash recovery: a worker killed after streaming at least one
		// record is restarted by the supervisor, and the merged decision
		// is still the reference's.
		const killRuns = 120
		killRef := adaptiveReference(t, plan, killRuns, seed, stop)
		spec := &dist.Spec{Plan: plan, Runs: killRuns, MasterSeed: seed, Shards: 3,
			Mode: core.ModeDistribution, Stop: stop.Clone()}
		res, err := Run(context.Background(), Config{
			Spec: spec, Dir: t.TempDir(), Retries: 2,
			Launcher: &killFirstLauncher{target: 1}, Poll: 2 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("killed-worker fanout: %v", err)
		}
		requireSameDecision(t, "killed-worker", res.Merged, killRef)
	})
}
