package core

import (
	"context"
	"testing"

	"github.com/dessertlab/certify/internal/sim"
)

// goldenMinuteTraceHash is the Trace.Hash() of a fault-free one-minute
// golden run, recorded from the pre-pool, eager-formatting engine (PR 1
// baseline). The event-slab, deferred-formatting and machine-reuse
// rewrites must keep the rendered trace byte-identical, so this value is
// load-bearing: if it moves, the engine's observable behaviour changed.
const goldenMinuteTraceHash = uint64(0xa10df7f198db0642)

func TestGoldenRunTraceHashUnchangedByEngineRewrite(t *testing.T) {
	for _, seed := range []uint64{1, 2022} {
		gp, err := GoldenRun(seed, sim.Minute)
		if err != nil {
			t.Fatalf("GoldenRun(%d): %v", seed, err)
		}
		if gp.TraceHash != goldenMinuteTraceHash {
			t.Fatalf("GoldenRun(%d) trace hash = %#x, want golden %#x", seed, gp.TraceHash, goldenMinuteTraceHash)
		}
		if gp.CellLines != 291 || gp.RootLines != 10 || gp.LEDToggles != 120 {
			t.Fatalf("GoldenRun(%d) liveness = (cell %d, root %d, led %d), want (291, 10, 120)",
				seed, gp.CellLines, gp.RootLines, gp.LEDToggles)
		}
	}
}

// TestCampaignDistributionGolden pins the full E3/Figure-3 campaign
// aggregate for a fixed master seed to the values produced by the
// pre-rewrite engine: the throughput overhaul must not move a single run
// between outcome classes.
func TestCampaignDistributionGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-duration campaign")
	}
	want := map[Outcome]int{
		OutcomeCorrect:      23,
		OutcomeInconsistent: 1,
		OutcomePanicPark:    16,
	}
	for _, mode := range []CampaignMode{ModeFull, ModeDistribution} {
		c := &Campaign{Plan: PlanE3Fig3(), Runs: 40, MasterSeed: 2022, Mode: mode}
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
}

// TestSerialAndParallelCampaignsAgree is the property the campaign's
// seed-derivation scheme promises: worker count must never perturb the
// aggregate. Runs use a shortened plan to keep the test quick.
func TestSerialAndParallelCampaignsAgree(t *testing.T) {
	plan := *PlanE3Fig3()
	plan.Duration = 8 * sim.Second
	plan.Name = "E3-determinism"

	distributions := make([]map[Outcome]int, 0, 3)
	injections := make([]int, 0, 3)
	configs := []struct {
		workers int
		mode    CampaignMode
	}{
		{1, ModeFull},
		{8, ModeFull},
		{8, ModeDistribution},
	}
	for _, cfg := range configs {
		c := &Campaign{Plan: &plan, Runs: 24, MasterSeed: 77, Workers: cfg.workers, Mode: cfg.mode}
		res, err := c.Execute(context.Background())
		if err != nil {
			t.Fatalf("workers=%d mode=%v: %v", cfg.workers, cfg.mode, err)
		}
		distributions = append(distributions, res.Distribution())
		injections = append(injections, res.InjectionsTotal())
	}
	for i := 1; i < len(distributions); i++ {
		for _, o := range AllOutcomes() {
			if distributions[i][o] != distributions[0][o] {
				t.Fatalf("config %d diverged on %v: %d vs %d (serial)", i, o, distributions[i][o], distributions[0][o])
			}
		}
		if injections[i] != injections[0] {
			t.Fatalf("config %d diverged on injections: %d vs %d", i, injections[i], injections[0])
		}
	}
}

// TestScratchReuseDoesNotPerturbRuns runs the same seed list twice —
// once through one pool (machine reuse), once cold — and demands
// identical verdicts and artefact counts.
func TestScratchReuseDoesNotPerturbRuns(t *testing.T) {
	plan := *PlanE3Fig3()
	plan.Duration = 8 * sim.Second
	seeds := []uint64{3, 42, 1011, 0xfeed}

	pool := NewMachinePool()
	for _, seed := range seeds {
		warm, err := RunExperimentOpts(&plan, seed, RunOptions{Pool: pool})
		if err != nil {
			t.Fatalf("warm run seed %d: %v", seed, err)
		}
		cold, err := RunExperiment(&plan, seed)
		if err != nil {
			t.Fatalf("cold run seed %d: %v", seed, err)
		}
		if warm.Outcome() != cold.Outcome() {
			t.Fatalf("seed %d: pooled reuse changed outcome %v → %v", seed, cold.Outcome(), warm.Outcome())
		}
		if len(warm.Injections) != len(cold.Injections) || warm.CellLines != cold.CellLines ||
			warm.DetectionLatency != cold.DetectionLatency || warm.Horizon != cold.Horizon {
			t.Fatalf("seed %d: pooled reuse changed artefacts: warm=%+v cold=%+v", seed, warm, cold)
		}
		if warm.RootTranscript != cold.RootTranscript || warm.CellTranscript != cold.CellTranscript {
			t.Fatalf("seed %d: pooled reuse changed transcripts", seed)
		}
	}
	if builds, reuses := pool.Stats(); builds != 1 || reuses != uint64(len(seeds)-1) {
		t.Fatalf("pool builds=%d reuses=%d, want 1 and %d", builds, reuses, len(seeds)-1)
	}
}

// TestDistributionModeDropsHeavyArtefacts pins what ModeDistribution is
// allowed to omit — and what it must still deliver.
func TestDistributionModeDropsHeavyArtefacts(t *testing.T) {
	plan := *PlanE3Fig3()
	plan.Duration = 8 * sim.Second
	r, err := RunExperimentOpts(&plan, 42, RunOptions{Mode: ModeDistribution})
	if err != nil {
		t.Fatal(err)
	}
	if r.RootTranscript != "" || r.CellTranscript != "" || r.HVConsole != nil || r.CallCounts != nil {
		t.Fatal("distribution mode retained transcripts/console/call counts")
	}
	full, err := RunExperiment(&plan, 42)
	if err != nil {
		t.Fatal(err)
	}
	if r.Outcome() != full.Outcome() || len(r.Injections) != len(full.Injections) {
		t.Fatalf("distribution mode changed classification: %v/%d vs %v/%d",
			r.Outcome(), len(r.Injections), full.Outcome(), len(full.Injections))
	}
}

// TestCampaignResultZeroValue guards the nil-map safety of the streaming
// aggregate: a zero-value result must answer every query without
// panicking, and MergeFrom must start from it.
func TestCampaignResultZeroValue(t *testing.T) {
	var zero CampaignResult
	if zero.Total() != 0 || zero.Count(OutcomeCorrect) != 0 || zero.Fraction(OutcomePanicPark) != 0 {
		t.Fatal("zero-value result returned non-zero aggregates")
	}
	if zero.InjectionsTotal() != 0 || zero.MeanDetectionLatency() != -1 {
		t.Fatal("zero-value injections/latency wrong")
	}
	d := zero.Distribution()
	for o, n := range d {
		if n != 0 {
			t.Fatalf("zero-value distribution has %v=%d", o, n)
		}
	}

	var acc CampaignResult
	other := &CampaignResult{}
	other.addRun(&RunResult{Verdict: Verdict{Outcome: OutcomeCorrect}, DetectionLatency: -1}, false)
	other.addRun(&RunResult{Verdict: Verdict{Outcome: OutcomePanicPark}, DetectionLatency: 10}, false)
	acc.MergeFrom(other)
	acc.MergeFrom(nil) // must be a no-op
	if acc.Total() != 2 || acc.Count(OutcomeCorrect) != 1 || acc.Count(OutcomePanicPark) != 1 {
		t.Fatalf("MergeFrom into zero value: total=%d dist=%v", acc.Total(), acc.Distribution())
	}
	if acc.MeanDetectionLatency() != 10 {
		t.Fatalf("MeanDetectionLatency = %v, want 10", acc.MeanDetectionLatency())
	}
}
