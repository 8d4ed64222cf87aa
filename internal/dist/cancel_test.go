package dist

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"github.com/dessertlab/certify/internal/core"
)

// TestExecuteShardCancelMidCampaign pins the abort contract the serve
// daemon's job cancellation rides on: cancelling the context mid-shard
// returns an error satisfying errors.Is(err, context.Canceled), and the
// artefact left behind is a same-campaign incomplete remnant that a
// later invocation reruns to the full, bit-exact result.
func TestExecuteShardCancelMidCampaign(t *testing.T) {
	dir := t.TempDir()
	// Enough runs that the shard is still going when the cancel lands:
	// warm runs start from golden checkpoints and many are cut off, so a
	// short shard can finish between two polls on a loaded host.
	spec := &Spec{
		Plan: core.PlanE3Fig3(), Runs: 400, MasterSeed: 2022,
		Shards: 1, Mode: core.ModeDistribution,
	}
	path := filepath.Join(dir, "runs.jsonl")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		_, _, err := ExecuteShardPool(ctx, spec, 0, 2, path, nil)
		errc <- err
	}()

	// Wait for real progress, then pull the plug mid-campaign.
	tail := NewTail(path)
	deadline := time.Now().Add(30 * time.Second)
	for {
		p, _ := tail.Poll()
		if p.Runs >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("campaign never made progress")
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	err := <-errc
	if err == nil {
		t.Fatal("cancelled shard returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled shard error = %v, want errors.Is(context.Canceled)", err)
	}

	// The remnant parses as this campaign, incomplete — resumable, not
	// poison.
	sf, rerr := ReadShard(path)
	if rerr != nil {
		t.Fatalf("cancelled artefact unreadable: %v", rerr)
	}
	sh, _ := spec.Shard(0)
	if !sf.Manifest.SameCampaignAs(sh) {
		t.Fatalf("cancelled artefact names a foreign campaign: %+v", sf.Manifest)
	}
	if sf.Complete {
		t.Fatal("cancelled artefact claims completeness")
	}
	if sf.Records == 0 {
		t.Fatal("cancelled artefact holds no records despite observed progress")
	}

	// Rerunning the same spec over the remnant completes the shard.
	res, skipped, err := ExecuteShardPool(context.Background(), spec, 0, 2, path, nil)
	if err != nil {
		t.Fatalf("rerun after cancellation: %v", err)
	}
	if skipped {
		t.Fatal("incomplete remnant was skipped instead of rerun")
	}
	if res.Total() != spec.Runs {
		t.Fatalf("rerun total = %d, want %d", res.Total(), spec.Runs)
	}
	sf2, rerr := ReadShard(path)
	if rerr != nil || !sf2.Complete {
		t.Fatalf("rerun artefact not complete (err=%v)", rerr)
	}
}

// TestExecuteShardCancelledBeforeFirstRun pins the zero-progress abort:
// a context cancelled before any run completes still classifies as a
// cancellation, not as a generic empty-campaign failure.
func TestExecuteShardCancelledBeforeFirstRun(t *testing.T) {
	spec := &Spec{
		Plan: core.PlanE3Fig3(), Runs: 4, MasterSeed: 9,
		Shards: 1, Mode: core.ModeDistribution,
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := ExecuteShardPool(ctx, spec, 0, 1, filepath.Join(t.TempDir(), "runs.jsonl"), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled shard error = %v, want errors.Is(context.Canceled)", err)
	}
}
