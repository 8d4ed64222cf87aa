package dist

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"github.com/dessertlab/certify/internal/core"
	"github.com/dessertlab/certify/internal/obs"
)

// TestInstrumentationIsOutOfBand is the differential pin for the flight
// recorder's hard constraint: metrics observe the campaign, they never
// participate in it. The seed-2022 40-run E3 campaign must produce
// byte-identical artefacts and the pinned 23 correct / 1 inconsistent /
// 16 panic-park split whether instrumentation records or not — any
// drift means a metric leaked into the trace, the RNG chain or the
// digest, and the certification evidence can no longer be trusted.
func TestInstrumentationIsOutOfBand(t *testing.T) {
	if testing.Short() {
		t.Skip("full-duration campaign")
	}
	run := func(t *testing.T, enabled bool, path string) *core.CampaignResult {
		t.Helper()
		obs.SetEnabled(enabled)
		defer obs.SetEnabled(true) // recording is on by default
		spec := &Spec{Plan: core.PlanE3Fig3(), Runs: 40, MasterSeed: 2022, Shards: 1, Mode: core.ModeDistribution}
		res, skipped, err := ExecuteShardPool(context.Background(), spec, 0, 0, path, core.NewMachinePool())
		if err != nil || skipped {
			t.Fatalf("campaign (obs=%v): skipped=%v err=%v", enabled, skipped, err)
		}
		return res
	}

	dir := t.TempDir()
	onPath := filepath.Join(dir, "instrumented.jsonl")
	offPath := filepath.Join(dir, "uninstrumented.jsonl")
	resOn := run(t, true, onPath)
	resOff := run(t, false, offPath)

	for _, tc := range []struct {
		res  *core.CampaignResult
		mode string
	}{{resOn, "instrumented"}, {resOff, "uninstrumented"}} {
		if got := tc.res.Count(core.OutcomeCorrect); got != 23 {
			t.Errorf("%s: correct = %d, want 23", tc.mode, got)
		}
		if got := tc.res.Count(core.OutcomeInconsistent); got != 1 {
			t.Errorf("%s: inconsistent = %d, want 1", tc.mode, got)
		}
		if got := tc.res.Count(core.OutcomePanicPark); got != 16 {
			t.Errorf("%s: panic-park = %d, want 16", tc.mode, got)
		}
		if got := tc.res.InjectionsTotal(); got != 56 {
			t.Errorf("%s: injections = %d, want 56", tc.mode, got)
		}
	}

	on, err := os.ReadFile(onPath)
	if err != nil {
		t.Fatal(err)
	}
	off, err := os.ReadFile(offPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(on, off) {
		t.Fatalf("instrumented artefact differs from uninstrumented: %d vs %d bytes — observability leaked into the evidence", len(on), len(off))
	}
}
