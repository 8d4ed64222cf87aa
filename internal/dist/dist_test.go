package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/dessertlab/certify/internal/core"
	"github.com/dessertlab/certify/internal/sim"
)

// shortE3 is the invariance tests' plan: E3/Figure-3 shortened so a
// run costs ~1/8 of the paper's minute.
func shortE3() *core.TestPlan {
	plan := *core.PlanE3Fig3()
	plan.Duration = 8 * sim.Second
	plan.Name = "E3-dist"
	return &plan
}

func TestShardPlannerWindows(t *testing.T) {
	for _, tc := range []struct {
		runs, shards int
		want         [][2]int
	}{
		{10, 1, [][2]int{{0, 10}}},
		{10, 3, [][2]int{{0, 4}, {4, 7}, {7, 10}}},
		{9, 3, [][2]int{{0, 3}, {3, 6}, {6, 9}}},
		{5, 5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}}},
	} {
		spec := &Spec{Plan: shortE3(), Runs: tc.runs, MasterSeed: 1, Shards: tc.shards}
		shards, err := spec.AllShards()
		if err != nil {
			t.Fatalf("%d/%d: %v", tc.runs, tc.shards, err)
		}
		for i, sh := range shards {
			if sh.Start != tc.want[i][0] || sh.End != tc.want[i][1] {
				t.Fatalf("%d runs / %d shards: shard %d = [%d,%d), want [%d,%d)",
					tc.runs, tc.shards, i, sh.Start, sh.End, tc.want[i][0], tc.want[i][1])
			}
		}
	}
}

func TestSpecValidation(t *testing.T) {
	for name, spec := range map[string]*Spec{
		"no plan":          {Runs: 10, Shards: 2},
		"zero runs":        {Plan: shortE3(), Runs: 0, Shards: 1},
		"zero shards":      {Plan: shortE3(), Runs: 10, Shards: 0},
		"shards over runs": {Plan: shortE3(), Runs: 3, Shards: 4},
	} {
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	spec := &Spec{Plan: shortE3(), Runs: 10, Shards: 3}
	if _, err := spec.Shard(-1); err == nil {
		t.Error("negative shard index accepted")
	}
	if _, err := spec.Shard(3); err == nil {
		t.Error("out-of-range shard index accepted")
	}
}

// stripIndexFooter rewrites a plain artefact without its index footer
// block — the pre-index layout, which the byte-editing tests below
// manipulate line by line (the binary footer is not line-structured).
func stripIndexFooter(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < plainTrailerSize {
		t.Fatalf("%s: too short to carry an index trailer", path)
	}
	footOff, _, ok := parsePlainTrailer(data[len(data)-plainTrailerSize:])
	if !ok {
		t.Fatalf("%s: no index trailer to strip", path)
	}
	if err := os.WriteFile(path, data[:footOff], 0o644); err != nil {
		t.Fatal(err)
	}
}

// serialReference runs the unsharded campaign, collecting the per-run
// trace hashes the streaming hook sees.
func serialReference(t *testing.T, plan *core.TestPlan, runs int, seed uint64, mode core.CampaignMode) (*core.CampaignResult, map[int]uint64) {
	t.Helper()
	var mu sync.Mutex
	hashes := make(map[int]uint64, runs)
	c := &core.Campaign{
		Plan: plan, Runs: runs, MasterSeed: seed, Mode: mode,
		OnRun: func(index int, r *core.RunResult) {
			mu.Lock()
			hashes[index] = r.TraceHash
			mu.Unlock()
		},
	}
	res, err := c.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res, hashes
}

// runSharded executes every shard of spec into dir and merges the files.
func runSharded(t *testing.T, spec *Spec, dir string) (*core.CampaignResult, []*ShardFile) {
	t.Helper()
	paths := make([]string, spec.Shards)
	for i := range paths {
		paths[i] = filepath.Join(dir, fmt.Sprintf("shard-%02d.jsonl", i))
		if _, skipped, err := ExecuteShard(context.Background(), spec, i, 0, paths[i]); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		} else if skipped {
			t.Fatalf("shard %d skipped on first execution", i)
		}
	}
	merged, shards, err := Merge(paths)
	if err != nil {
		t.Fatal(err)
	}
	return merged, shards
}

// TestShardedCampaignMatchesSerial is the subsystem's core promise: for
// K ∈ {1, 3, 8}, splitting the campaign into K shard processes and
// merging their artefacts reproduces the serial campaign exactly — the
// same outcome distribution, the same injection total, and the same
// per-run trace hash for every run index.
func TestShardedCampaignMatchesSerial(t *testing.T) {
	const runs, seed = 24, uint64(2022)
	plan := shortE3()
	serial, serialHashes := serialReference(t, plan, runs, seed, core.ModeDistribution)
	if len(serialHashes) != runs {
		t.Fatalf("serial reference produced %d hashes, want %d", len(serialHashes), runs)
	}

	for _, k := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("shards-%d", k), func(t *testing.T) {
			spec := &Spec{Plan: plan, Runs: runs, MasterSeed: seed, Shards: k, Mode: core.ModeDistribution}
			merged, shards := runSharded(t, spec, t.TempDir())

			if merged.Total() != serial.Total() || merged.InjectionsTotal() != serial.InjectionsTotal() {
				t.Fatalf("merged total/injections = %d/%d, serial = %d/%d",
					merged.Total(), merged.InjectionsTotal(), serial.Total(), serial.InjectionsTotal())
			}
			for _, o := range core.AllOutcomes() {
				if merged.Count(o) != serial.Count(o) {
					t.Fatalf("count(%v) = %d sharded, %d serial", o, merged.Count(o), serial.Count(o))
				}
			}
			if merged.MeanDetectionLatency() != serial.MeanDetectionLatency() {
				t.Fatalf("mean detection latency %v sharded, %v serial",
					merged.MeanDetectionLatency(), serial.MeanDetectionLatency())
			}
			got := make(map[int]uint64, runs)
			for _, sf := range shards {
				for idx, h := range sf.TraceHashes {
					got[idx] = h
				}
			}
			if len(got) != runs {
				t.Fatalf("shard artefacts hold %d run records, want %d", len(got), runs)
			}
			for idx, h := range serialHashes {
				if got[idx] != h {
					t.Fatalf("run %d: trace hash %#x sharded, %#x serial", idx, got[idx], h)
				}
			}
		})
	}
}

// TestShardedCampaignGoldenSeed2022 is the acceptance gate: the pinned
// E3/Figure-3 campaign (40 one-minute runs, master seed 2022, golden
// distribution 23 correct / 1 inconsistent / 16 panic-park — see
// core's TestCampaignDistributionGolden) split across 3 shard
// processes and merged back must land on the identical aggregate.
func TestShardedCampaignGoldenSeed2022(t *testing.T) {
	if testing.Short() {
		t.Skip("full-duration campaign")
	}
	spec := &Spec{Plan: core.PlanE3Fig3(), Runs: 40, MasterSeed: 2022, Shards: 3, Mode: core.ModeDistribution}
	merged, shards := runSharded(t, spec, t.TempDir())

	want := map[core.Outcome]int{
		core.OutcomeCorrect:      23,
		core.OutcomeInconsistent: 1,
		core.OutcomePanicPark:    16,
	}
	for _, o := range core.AllOutcomes() {
		if merged.Count(o) != want[o] {
			t.Fatalf("count(%v) = %d, want %d", o, merged.Count(o), want[o])
		}
	}
	if merged.Total() != 40 || merged.InjectionsTotal() != 56 {
		t.Fatalf("total=%d injections=%d, want 40/56", merged.Total(), merged.InjectionsTotal())
	}
	records := 0
	for _, sf := range shards {
		records += sf.Records
	}
	if records != 40 {
		t.Fatalf("JSONL artefacts hold %d run records, want one per run (40)", records)
	}
}

// TestShardedWarmPoolGoldenSeed2022 pins the golden split when all
// three shards execute in one process over a shared warm-machine pool
// (the fan-out in-process configuration): machines booted by shard 0
// are restored and reused by shards 1 and 2, and the merged campaign
// still lands exactly on 23/1/16 with 56 injections — plus per-run
// trace hashes identical to the serial reference.
func TestShardedWarmPoolGoldenSeed2022(t *testing.T) {
	if testing.Short() {
		t.Skip("full-duration campaign")
	}
	_, serialHashes := serialReference(t, core.PlanE3Fig3(), 40, 2022, core.ModeDistribution)

	spec := &Spec{Plan: core.PlanE3Fig3(), Runs: 40, MasterSeed: 2022, Shards: 3, Mode: core.ModeDistribution}
	pool := core.NewMachinePool()
	dir := t.TempDir()
	paths := make([]string, spec.Shards)
	for i := range paths {
		paths[i] = filepath.Join(dir, fmt.Sprintf("shard-%02d.jsonl", i))
		if _, skipped, err := ExecuteShardPool(context.Background(), spec, i, 0, paths[i], pool); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		} else if skipped {
			t.Fatalf("shard %d skipped on first execution", i)
		}
	}
	merged, shards, err := Merge(paths)
	if err != nil {
		t.Fatal(err)
	}

	want := map[core.Outcome]int{
		core.OutcomeCorrect:      23,
		core.OutcomeInconsistent: 1,
		core.OutcomePanicPark:    16,
	}
	for _, o := range core.AllOutcomes() {
		if merged.Count(o) != want[o] {
			t.Fatalf("count(%v) = %d, want %d", o, merged.Count(o), want[o])
		}
	}
	if merged.Total() != 40 || merged.InjectionsTotal() != 56 {
		t.Fatalf("total=%d injections=%d, want 40/56", merged.Total(), merged.InjectionsTotal())
	}
	got := make(map[int]uint64, 40)
	for _, sf := range shards {
		for idx, h := range sf.TraceHashes {
			got[idx] = h
		}
	}
	for idx, h := range serialHashes {
		if got[idx] != h {
			t.Fatalf("run %d: trace hash %#x warm-sharded, %#x serial", idx, got[idx], h)
		}
	}
	builds, reuses := pool.Stats()
	if reuses == 0 {
		t.Fatalf("pool stats builds=%d reuses=%d — shards never shared a machine", builds, reuses)
	}
}

// TestExecuteShardResume pins the resume contract: a completed shard
// file short-circuits the rerun; an interrupted one (no summary) is
// re-executed; a file from a different campaign is never overwritten.
func TestExecuteShardResume(t *testing.T) {
	spec := &Spec{Plan: shortE3(), Runs: 6, MasterSeed: 7, Shards: 2, Mode: core.ModeDistribution}
	dir := t.TempDir()
	path := filepath.Join(dir, "shard-0.jsonl")

	first, skipped, err := ExecuteShard(context.Background(), spec, 0, 0, path)
	if err != nil || skipped {
		t.Fatalf("first execution: skipped=%v err=%v", skipped, err)
	}
	again, skipped, err := ExecuteShard(context.Background(), spec, 0, 0, path)
	if err != nil {
		t.Fatalf("rerun: %v", err)
	}
	if !skipped {
		t.Fatal("completed shard was re-executed")
	}
	if again.Total() != first.Total() || again.InjectionsTotal() != first.InjectionsTotal() {
		t.Fatalf("resumed aggregate %d/%d, original %d/%d",
			again.Total(), again.InjectionsTotal(), first.Total(), first.InjectionsTotal())
	}

	// Simulate a crash: drop the summary footer (and a record). The
	// index footer goes first — a crashed writer never wrote one.
	stripIndexFooter(t, path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	truncated := strings.Join(lines[:len(lines)-2], "\n") + "\n"
	if err := os.WriteFile(path, []byte(truncated), 0o644); err != nil {
		t.Fatal(err)
	}
	sf, err := ReadShard(path)
	if err != nil {
		t.Fatalf("truncated shard unreadable: %v", err)
	}
	if sf.Complete {
		t.Fatal("truncated shard parsed as complete")
	}
	redone, skipped, err := ExecuteShard(context.Background(), spec, 0, 0, path)
	if err != nil {
		t.Fatalf("rerun after crash: %v", err)
	}
	if skipped {
		t.Fatal("interrupted shard was skipped instead of rerun")
	}
	if redone.Total() != first.Total() {
		t.Fatalf("rerun total %d, want %d", redone.Total(), first.Total())
	}

	// A different campaign's artefact must be refused, not clobbered.
	other := &Spec{Plan: shortE3(), Runs: 6, MasterSeed: 8, Shards: 2, Mode: core.ModeDistribution}
	if _, _, err := ExecuteShard(context.Background(), other, 0, 0, path); err == nil {
		t.Fatal("overwrote an artefact of a different campaign")
	}
}

// TestTornPlainManifestIsRerun: a plain artefact cut off inside its
// very first line (no newline anywhere) cannot be anyone's finished
// evidence — it must classify as ErrTorn and be rerun, exactly like a
// torn gzip header. A newline-terminated garbage file, by contrast,
// stays a hard refusal.
func TestTornPlainManifestIsRerun(t *testing.T) {
	spec := &Spec{Plan: shortE3(), Runs: 4, MasterSeed: 21, Shards: 2, Mode: core.ModeDistribution}
	path := filepath.Join(t.TempDir(), "shard-0.jsonl")
	if err := os.WriteFile(path, []byte(`{"type":"manif`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadShard(path); !errors.Is(err, ErrTorn) {
		t.Fatalf("torn manifest prefix error = %v, want ErrTorn", err)
	}
	if res, skipped, err := ExecuteShard(context.Background(), spec, 0, 0, path); err != nil || skipped {
		t.Fatalf("rerun over torn manifest remnant: skipped=%v err=%v", skipped, err)
	} else if res.Total() != 2 {
		t.Fatalf("rerun total %d, want 2", res.Total())
	}

	other := filepath.Join(filepath.Dir(path), "garbage.jsonl")
	if err := os.WriteFile(other, []byte("not an artefact\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadShard(other); err == nil || errors.Is(err, ErrTorn) {
		t.Fatalf("newline-terminated garbage error = %v, want hard refusal", err)
	}
	if _, _, err := ExecuteShard(context.Background(), spec, 0, 0, other); err == nil {
		t.Fatal("overwrote a newline-terminated foreign file")
	}
}

// TestMergeRejectsBadShardSets enumerates the manifest checks.
func TestMergeRejectsBadShardSets(t *testing.T) {
	spec := &Spec{Plan: shortE3(), Runs: 6, MasterSeed: 7, Shards: 2, Mode: core.ModeDistribution}
	dir := t.TempDir()
	paths := make([]string, spec.Shards)
	for i := range paths {
		paths[i] = filepath.Join(dir, fmt.Sprintf("shard-%d.jsonl", i))
		if _, _, err := ExecuteShard(context.Background(), spec, i, 0, paths[i]); err != nil {
			t.Fatal(err)
		}
	}

	if _, _, err := Merge(nil); err == nil {
		t.Error("empty merge accepted")
	}
	if _, _, err := Merge(paths[:1]); err == nil || !strings.Contains(err.Error(), "missing shard") {
		t.Errorf("missing shard not reported: %v", err)
	}
	if _, _, err := Merge([]string{paths[0], paths[0]}); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("duplicate shard not reported: %v", err)
	}

	// A shard of a different campaign (other seed) must be rejected.
	other := &Spec{Plan: shortE3(), Runs: 6, MasterSeed: 8, Shards: 2, Mode: core.ModeDistribution}
	alien := filepath.Join(dir, "alien.jsonl")
	if _, _, err := ExecuteShard(context.Background(), other, 1, 0, alien); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Merge([]string{paths[0], alien}); err == nil || !strings.Contains(err.Error(), "different campaign") {
		t.Errorf("cross-campaign merge not reported: %v", err)
	}

	// A shard whose manifest claims another shard's index but keeps its
	// window overlaps that window: refused by the tiling check, by Merge
	// and by the campaign dossier alike.
	first, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	imposter := filepath.Join(dir, "imposter.jsonl")
	edited := bytes.Replace(first, []byte(`"shard":0,`), []byte(`"shard":1,`), 1)
	if err := os.WriteFile(imposter, edited, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Merge([]string{paths[0], imposter}); err == nil || !strings.Contains(err.Error(), "do not tile") {
		t.Errorf("overlapping windows not reported by Merge: %v", err)
	}
	if _, err := OpenCampaignDossier([]string{paths[0], imposter}); err == nil || !strings.Contains(err.Error(), "do not tile") {
		t.Errorf("overlapping windows not reported by OpenCampaignDossier: %v", err)
	}

	// An incomplete shard must be named. (Strip the index footer first
	// so the line surgery below edits the record stream, not the binary
	// footer a complete artefact now ends with.)
	stripIndexFooter(t, paths[1])
	data, err := os.ReadFile(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if err := os.WriteFile(paths[1], []byte(strings.Join(lines[:len(lines)-1], "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Merge(paths); err == nil || !strings.Contains(err.Error(), "incomplete") {
		t.Errorf("incomplete shard not reported: %v", err)
	}

	// A manifest whose shard index escapes [0, Shards) is rejected at
	// parse time, before any merge bookkeeping can mask it.
	bogus := filepath.Join(dir, "bogus.jsonl")
	manifest := `{"type":"manifest","schema":1,"plan":"x","plan_hash":"0x1","master_seed":"0x7","runs":6,"shards":2,"shard":5,"start":0,"end":3,"mode":"distribution"}` + "\n"
	if err := os.WriteFile(bogus, []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadShard(bogus); err == nil || !strings.Contains(err.Error(), "inconsistent") {
		t.Errorf("out-of-range manifest shard index not rejected: %v", err)
	}
}

// TestMergeRejectsCrossModelShardSets pins satellite robustness: shard
// artefacts carry their fault-model identity, absent fields normalise
// to the default register model (pre-registry artefacts stay mergeable),
// and Merge refuses shard sets whose models disagree — by name, even
// when every other identity field matches.
func TestMergeRejectsCrossModelShardSets(t *testing.T) {
	spec := &Spec{Plan: shortE3(), Runs: 4, MasterSeed: 11, Shards: 2, Mode: core.ModeDistribution}

	// Manifest-level normalisation: "" and "register" are one identity;
	// any other name is a different campaign.
	sh, err := spec.Shard(0)
	if err != nil {
		t.Fatal(err)
	}
	man := sh.Manifest()
	if man.FaultModel != "" {
		t.Fatalf("register-model manifest writes fault_model %q, want omitted", man.FaultModel)
	}
	explicit := man
	explicit.FaultModel = core.DefaultFaultModelName
	if !man.sameCampaign(explicit) || !man.matches(explicit) {
		t.Error("explicit register model not recognised as the default identity")
	}
	foreign := man
	foreign.FaultModel = "ram"
	if man.sameCampaign(foreign) || man.matches(foreign) {
		t.Error("disagreeing fault models accepted as one campaign")
	}
	if d := man.campaignDiff(foreign); !strings.Contains(d, "fault model") {
		t.Errorf("campaignDiff does not name the fault model: %q", d)
	}

	// End to end: two shards of one campaign, one manifest doctored to
	// claim another model. Merge must refuse and say why.
	dir := t.TempDir()
	paths := make([]string, spec.Shards)
	for i := range paths {
		paths[i] = filepath.Join(dir, fmt.Sprintf("shard-%d.jsonl", i))
		if _, _, err := ExecuteShard(context.Background(), spec, i, 0, paths[i]); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	doctored := strings.Replace(string(data),
		`"mode":"distribution"`, `"mode":"distribution","fault_model":"ram"`, 1)
	if doctored == string(data) {
		t.Fatal("manifest line did not contain the expected mode field")
	}
	if err := os.WriteFile(paths[1], []byte(doctored), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Merge(paths)
	if err == nil || !strings.Contains(err.Error(), "fault model") {
		t.Errorf("cross-model merge not refused by model name: %v", err)
	}
}

// TestJSONLTranscriptRetention pins the evidence contract: full-mode
// shards embed transcripts in their records, distribution-mode shards
// stay lean — the streaming writer restores *per-run* evidence at
// scale without re-enabling transcript retention.
func TestJSONLTranscriptRetention(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		mode core.CampaignMode
		want bool
	}{
		{core.ModeFull, true},
		{core.ModeDistribution, false},
	} {
		spec := &Spec{Plan: shortE3(), Runs: 2, MasterSeed: 3, Shards: 1, Mode: tc.mode}
		path := filepath.Join(dir, "shard-"+tc.mode.String()+".jsonl")
		if _, _, err := ExecuteShard(context.Background(), spec, 0, 0, path); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		has := strings.Contains(string(data), `"cell_transcript"`)
		if has != tc.want {
			t.Errorf("mode %v: transcript present=%v, want %v", tc.mode, has, tc.want)
		}
		sf, err := ReadShard(path)
		if err != nil {
			t.Fatal(err)
		}
		if !sf.Complete || sf.Records != 2 {
			t.Errorf("mode %v: complete=%v records=%d", tc.mode, sf.Complete, sf.Records)
		}
		for idx, h := range sf.TraceHashes {
			if h == 0 {
				t.Errorf("mode %v: run %d has zero trace hash", tc.mode, idx)
			}
		}
	}
}

// TestPlanHashDiscriminates makes sure the manifest fingerprint actually
// separates plans that differ in any campaign-relevant dimension.
func TestPlanHashDiscriminates(t *testing.T) {
	base := shortE3()
	variants := map[string]*core.TestPlan{}
	{
		p := *base
		p.Rate = 25
		variants["rate"] = &p
	}
	{
		p := *base
		p.Intensity = core.IntensityHigh
		variants["intensity"] = &p
	}
	{
		p := *base
		p.Duration = 9 * sim.Second
		variants["duration"] = &p
	}
	h := base.Hash()
	if h == 0 {
		t.Fatal("zero plan hash")
	}
	for name, v := range variants {
		if v.Hash() == h {
			t.Errorf("changing %s did not change the plan hash", name)
		}
	}
	same := *base
	if same.Hash() != h {
		t.Error("copy of the plan hashes differently")
	}
}
