package fanout

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"
	"time"

	"github.com/dessertlab/certify/internal/core"
	"github.com/dessertlab/certify/internal/dist"
)

// crossPathCompare holds the two evidence paths against each other run
// for run: the campaign dossier opened through the fan-out's master
// index versus the serial (single-artefact) dossier. Index rows must
// agree on outcome, trace hash, injections and detection latency, and
// the records themselves must be byte-identical — same JSON line for
// the same global run, regardless of which shard file it landed in.
func crossPathCompare(t *testing.T, cd *dist.CampaignDossier, serial *dist.Dossier, runs int) {
	t.Helper()
	if cd.NumRuns() != runs || serial.NumRuns() != runs {
		t.Fatalf("run counts: campaign %d, serial %d, want %d", cd.NumRuns(), serial.NumRuns(), runs)
	}
	serialEntries := serial.Entries()
	for i, e := range cd.Entries() {
		se := serialEntries[i]
		if e.Index != se.Index {
			t.Fatalf("entry %d: index %d in master-index order, %d serial", i, e.Index, se.Index)
		}
		if e.Outcome != se.Outcome || e.TraceHash != se.TraceHash ||
			e.Injections != se.Injections || e.DetectionNS != se.DetectionNS {
			t.Fatalf("run %d: master index disagrees with serial index:\n  fanout: %+v\n  serial: %+v", e.Index, e, se)
		}
		a, err := cd.RawRun(e.Index)
		if err != nil {
			t.Fatalf("campaign RawRun(%d): %v", e.Index, err)
		}
		b, err := serial.RawRun(e.Index)
		if err != nil {
			t.Fatalf("serial RawRun(%d): %v", e.Index, err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("run %d: sharded record diverges from serial record:\n  sharded: %s\n  serial:  %s", e.Index, a, b)
		}
	}
}

// runCrossPath executes the cross-path check for one plan/size: a
// 3-shard fan-out with a killed-and-restarted worker produces a master
// index; a serial execution of the same campaign produces one dossier;
// both must agree run for run.
func runCrossPath(t *testing.T, plan *core.TestPlan, runs int) {
	t.Helper()
	pool := core.NewMachinePool()
	spec := &dist.Spec{Plan: plan, Runs: runs, MasterSeed: 2022, Shards: 3, Mode: core.ModeDistribution}
	dir := t.TempDir()
	res, err := Run(context.Background(), Config{
		Spec: spec, Dir: dir, Retries: 2,
		Launcher: &killFirstLauncher{target: 1, pool: pool}, Poll: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MasterIndexPath == "" || res.MasterIndex == nil {
		t.Fatal("fan-out completed without composing a master index")
	}
	if res.Manifest.MasterIndex != dist.MasterIndexFileName {
		t.Fatalf("fanout.json names master index %q, want %q", res.Manifest.MasterIndex, dist.MasterIndexFileName)
	}
	crashed := false
	for _, w := range res.Manifest.Workers {
		for _, a := range w.Attempts {
			if a.Outcome == "crashed" {
				crashed = true
			}
		}
	}
	if !crashed {
		t.Fatal("the doomed worker never crashed — the cross-path test must cover a restarted shard")
	}
	for _, s := range res.MasterIndex.Shards {
		if !s.Indexed {
			t.Fatalf("shard %d not indexed in the master index — the restarted worker's footer is missing", s.Shard)
		}
	}

	cd, err := dist.OpenCampaignFromMaster(res.MasterIndexPath)
	if err != nil {
		t.Fatal(err)
	}
	defer cd.Close()

	serialSpec := &dist.Spec{Plan: plan, Runs: runs, MasterSeed: 2022, Shards: 1, Mode: core.ModeDistribution}
	serialPath := filepath.Join(t.TempDir(), "serial.jsonl")
	if _, _, err := dist.ExecuteShardPool(context.Background(), serialSpec, 0, 0, serialPath, pool); err != nil {
		t.Fatal(err)
	}
	serial, err := dist.OpenDossier(serialPath)
	if err != nil {
		t.Fatal(err)
	}
	defer serial.Close()
	if !serial.Indexed() || !serial.Complete() {
		t.Fatalf("serial dossier: indexed=%v complete=%v", serial.Indexed(), serial.Complete())
	}
	crossPathCompare(t, cd, serial, runs)
}

// TestFanoutMasterIndexCrossPath is the fast cross-path check on the
// crash-and-resume E3 plan (see killableE3).
func TestFanoutMasterIndexCrossPath(t *testing.T) {
	runCrossPath(t, killableE3(), 120)
}

// TestFanoutMasterIndexGoldenSeed2022 is the cross-path golden gate:
// the master index built over the pinned seed-2022 E3 fan-out (3
// shards, one worker killed and restarted) agrees with the serial
// dossier's index run for run — 40 byte-identical records, and the
// 23/1/16 split visible straight from the campaign-level counts.
func TestFanoutMasterIndexGoldenSeed2022(t *testing.T) {
	if testing.Short() {
		t.Skip("full-duration campaign")
	}
	runCrossPath(t, core.PlanE3Fig3(), 40)
}
