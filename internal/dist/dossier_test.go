package dist

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/dessertlab/certify/internal/core"
	"github.com/dessertlab/certify/internal/sim"
)

// synthOutcomes is the rotation synthetic shards draw outcomes from —
// several classes so ByOutcome and the footer's string table earn
// their keep.
var synthOutcomes = []core.Outcome{
	core.OutcomeCorrect,
	core.OutcomePanicPark,
	core.OutcomeCPUPark,
	core.OutcomeCorrect,
	core.OutcomeSilentDegradation,
	core.OutcomeCorrect,
	core.OutcomeInconsistent,
}

// synthResult builds a deterministic fake RunResult for global run
// index k — cheap enough to write 10k-run dossiers in tests without
// simulating anything.
func synthResult(k int) *core.RunResult {
	seed := uint64(k)
	h := sim.SplitMix64(&seed)
	r := &core.RunResult{
		Plan:             "synthetic",
		Seed:             0xfeed0000 + uint64(k),
		Verdict:          core.Verdict{Outcome: synthOutcomes[k%len(synthOutcomes)]},
		CellLines:        100 + k%7,
		Horizon:          8 * sim.Second,
		DetectionLatency: -1,
		TraceHash:        h,
	}
	if k%3 == 0 {
		r.Injections = make([]core.InjectionRecord, 1+k%3)
	}
	if r.Verdict.Outcome == core.OutcomePanicPark || r.Verdict.Outcome == core.OutcomeCPUPark {
		r.DetectionLatency = sim.Time(1_000_000 + 13*k)
		r.Verdict.Evidence = []string{fmt.Sprintf("synthetic evidence for run %d", k)}
	}
	return r
}

// writeSyntheticShard streams a complete fake shard artefact to path:
// manifest, one record per run of the shard's window (written in a
// scrambled completion order, like a parallel campaign), summary,
// index footer. Returns the spec so callers can open sibling shards.
func writeSyntheticShard(t testing.TB, path string, spec *Spec, index int) {
	t.Helper()
	writeSyntheticShardOrdered(t, path, spec, index, true)
}

// writeSyntheticShardOrdered is writeSyntheticShard with the record
// order chosen: scrambled (the completion order older builds streamed)
// or ascending index (what campaigns commit today).
func writeSyntheticShardOrdered(t testing.TB, path string, spec *Spec, index int, scrambled bool) {
	t.Helper()
	sh, err := spec.Shard(index)
	if err != nil {
		t.Fatal(err)
	}
	w, err := CreateJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteManifest(sh.Manifest()); err != nil {
		t.Fatal(err)
	}
	agg := &core.CampaignResult{Plan: spec.Plan.Name}
	n := sh.Runs()
	for i := 0; i < n; i++ {
		k := sh.Start + i
		if scrambled {
			// Scrambled but deterministic completion order.
			k = sh.Start + (i*7+3)%n
		}
		r := synthResult(k)
		w.OnRun(k, r)
		agg.AddSample(r.Outcome(), len(r.Injections), r.DetectionLatency)
	}
	if err := w.WriteSummary(agg); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// synthSpec describes a synthetic campaign of n runs over k shards.
func synthSpec(n, k int) *Spec {
	return &Spec{Plan: shortE3(), Runs: n, MasterSeed: 99, Shards: k, Mode: core.ModeDistribution}
}

// sequentialRunLines decodes an artefact the sequential way (the
// ground truth the dossier must match byte for byte): scan lines,
// collect every run record's raw bytes by index, stop at the first
// non-JSON line exactly as ReadShard does.
func sequentialRunLines(t testing.TB, path string) map[int][]byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, _, err := openShardReader(f, path)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxLineBytes)
	lines := make(map[int][]byte)
	for sc.Scan() {
		var probe struct {
			Type  string `json:"type"`
			Index int    `json:"index"`
		}
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			break
		}
		if probe.Type == recordRun {
			lines[probe.Index] = append([]byte(nil), sc.Bytes()...)
		}
	}
	return lines
}

// assertDossierMatchesSequential is the differential equivalence
// check: every access path of the dossier must return records
// byte-identical to the sequential decode.
func assertDossierMatchesSequential(t *testing.T, d *Dossier, path string) {
	t.Helper()
	want := sequentialRunLines(t, path)
	if len(want) != d.NumRuns() {
		t.Fatalf("%s: dossier holds %d runs, sequential decode %d", path, d.NumRuns(), len(want))
	}
	start, end := d.Window()

	// Run(k) / RawRun(k) for every k.
	for k, line := range want {
		raw, err := d.RawRun(k)
		if err != nil {
			t.Fatalf("%s: RawRun(%d): %v", path, k, err)
		}
		if !bytes.Equal(raw, line) {
			t.Fatalf("%s: RawRun(%d) diverges from sequential decode:\n  dossier: %s\n  sequential: %s", path, k, raw, line)
		}
		rec, err := d.Run(k)
		if err != nil {
			t.Fatalf("%s: Run(%d): %v", path, k, err)
		}
		if rec.Index != k {
			t.Fatalf("%s: Run(%d) returned record of run %d", path, k, rec.Index)
		}
	}

	// Range reads tile the window and concatenate to the full set.
	mid := start + (end-start)/2
	var got []*RunRecord
	for _, span := range [][2]int{{start, mid}, {mid, end}} {
		recs, err := d.Runs(span[0], span[1])
		if err != nil {
			t.Fatalf("%s: Runs(%d,%d): %v", path, span[0], span[1], err)
		}
		got = append(got, recs...)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: range reads yielded %d records, want %d", path, len(got), len(want))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Index <= got[i-1].Index {
			t.Fatalf("%s: range reads out of order at %d", path, i)
		}
	}

	// ByOutcome partitions the record set.
	counts := d.OutcomeCounts()
	totalByOutcome := 0
	for outcome, n := range counts {
		recs, err := d.ByOutcome(outcome)
		if err != nil {
			t.Fatalf("%s: ByOutcome(%s): %v", path, outcome, err)
		}
		if len(recs) != n {
			t.Fatalf("%s: ByOutcome(%s) returned %d records, counts say %d", path, outcome, len(recs), n)
		}
		for _, rec := range recs {
			if rec.Outcome != outcome {
				t.Fatalf("%s: ByOutcome(%s) returned run %d with outcome %s", path, outcome, rec.Index, rec.Outcome)
			}
			if !bytes.Equal(mustRaw(t, d, rec.Index), want[rec.Index]) {
				t.Fatalf("%s: ByOutcome(%s) run %d diverges from sequential decode", path, outcome, rec.Index)
			}
		}
		totalByOutcome += n
	}
	if totalByOutcome != len(want) {
		t.Fatalf("%s: outcome counts sum to %d, want %d", path, totalByOutcome, len(want))
	}
}

func mustRaw(t *testing.T, d *Dossier, k int) []byte {
	t.Helper()
	raw, err := d.RawRun(k)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestDossierEquivalenceSynthetic is the fast differential suite: for
// plain and gzip artefacts, every dossier access path returns records
// byte-identical to the sequential decode, on the indexed path.
func TestDossierEquivalenceSynthetic(t *testing.T) {
	spec := synthSpec(300, 2)
	for _, name := range []string{"shard-0.jsonl", "shard-0.jsonl.gz"} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), name)
			writeSyntheticShard(t, path, spec, 0)
			d, err := OpenDossier(path)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			if !d.Indexed() {
				t.Fatal("freshly written artefact did not open on the indexed path")
			}
			if !d.Complete() {
				t.Fatal("complete artefact reports Complete() == false")
			}
			assertDossierMatchesSequential(t, d, path)

			// The index agrees with ReadShard's fold.
			sf, err := ReadShard(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := d.OutcomeCounts(); got[core.OutcomeCorrect.String()] != sf.Result.Count(core.OutcomeCorrect) {
				t.Fatalf("indexed correct count %d, sequential %d",
					got[core.OutcomeCorrect.String()], sf.Result.Count(core.OutcomeCorrect))
			}
			if d.InjectionsTotal() != sf.Result.InjectionsTotal() {
				t.Fatalf("indexed injections %d, sequential %d", d.InjectionsTotal(), sf.Result.InjectionsTotal())
			}
			for k, h := range sf.TraceHashes {
				e, ok := d.Entry(k)
				if !ok || e.TraceHash != h {
					t.Fatalf("run %d: index trace hash %#x, sequential %#x", k, e.TraceHash, h)
				}
			}
		})
	}
}

// TestDossierEquivalenceRealCampaign runs a real (shortened) sharded
// campaign and holds the dossier to the same byte-identity bar on
// genuinely simulated evidence, in both retention modes.
func TestDossierEquivalenceRealCampaign(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode core.CampaignMode
		gz   bool
	}{
		{"distribution-plain", core.ModeDistribution, false},
		{"full-gzip", core.ModeFull, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := &Spec{Plan: shortE3(), Runs: 6, MasterSeed: 17, Shards: 2, Mode: tc.mode}
			name := "shard-0.jsonl"
			if tc.gz {
				name += ".gz"
			}
			path := filepath.Join(t.TempDir(), name)
			if _, _, err := ExecuteShard(context.Background(), spec, 0, 0, path); err != nil {
				t.Fatal(err)
			}
			d, err := OpenDossier(path)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			if !d.Indexed() {
				t.Fatal("executed shard artefact did not open on the indexed path")
			}
			assertDossierMatchesSequential(t, d, path)
			if tc.mode == core.ModeFull {
				rec, err := d.Run(0)
				if err != nil {
					t.Fatal(err)
				}
				if rec.Cell == "" {
					t.Fatal("full-mode dossier record lost its cell transcript")
				}
			}
		})
	}
}

// writePreIndex writes shard sh of spec to path in the pre-index format:
// a CreateJSONL artefact cut at its trailer's footer offset, which
// leaves the line stream without footer or trailer. A gzip artefact is
// then re-encoded as a single member, with no restart points, as the
// pre-index writer produced it.
func writePreIndex(t *testing.T, path string, spec *Spec, sh Shard) {
	t.Helper()
	w, err := CreateJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteManifest(sh.Manifest()); err != nil {
		t.Fatal(err)
	}
	agg := &core.CampaignResult{Plan: spec.Plan.Name}
	for k := 0; k < spec.Runs; k++ {
		r := synthResult(k)
		w.OnRun(k, r)
		agg.AddSample(r.Outcome(), len(r.Injections), r.DetectionLatency)
	}
	if err := w.WriteSummary(agg); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gz := IsGzipPath(path)
	var footerOff int64
	var ok bool
	if gz {
		footerOff, _, ok = parseGzipTrailer(data[len(data)-gzipTrailerSize:])
	} else {
		footerOff, _, ok = parsePlainTrailer(data[len(data)-plainTrailerSize:])
	}
	if !ok {
		t.Fatal("CreateJSONL artefact has no trailer")
	}
	data = data[:footerOff]
	if gz {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		var one bytes.Buffer
		zw := gzip.NewWriter(&one)
		if _, err := io.Copy(zw, zr); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		data = one.Bytes()
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDossierFallbackPreIndex pins backwards compatibility: artefacts
// written without a footer (the pre-index format, see writePreIndex)
// still serve every access path — via the sequential fallback, with
// identical records.
func TestDossierFallbackPreIndex(t *testing.T) {
	spec := synthSpec(40, 1)
	sh, err := spec.Shard(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		gz   bool
	}{{"plain", false}, {"gzip", true}} {
		t.Run(tc.name, func(t *testing.T) {
			name := "legacy.jsonl"
			if tc.gz {
				name += ".gz"
			}
			path := filepath.Join(t.TempDir(), name)
			writePreIndex(t, path, spec, sh)
			d, err := OpenDossier(path)
			if err != nil {
				t.Fatalf("pre-index artefact unreadable: %v", err)
			}
			defer d.Close()
			if d.Indexed() {
				t.Fatal("pre-index artefact claims an index")
			}
			if !d.Complete() {
				t.Fatal("complete pre-index artefact reports incomplete")
			}
			assertDossierMatchesSequential(t, d, path)
		})
	}
}

// TestDossierRawRunAfterLyingFooter: a CRC-valid plain footer whose
// spans point at the wrong lines makes the first indexed read degrade
// the dossier, and that same read is then served by the sequential
// fallback — the right record, not a "holds no record" refusal.
func TestDossierRawRunAfterLyingFooter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard-0.jsonl")
	writeSyntheticShard(t, path, synthSpec(8, 1), 0)
	want := sequentialRunLines(t, path)
	d, err := OpenDossier(path)
	if err != nil {
		t.Fatal(err)
	}
	ix := &shardIndex{entries: slices.Clone(d.Entries()), summary: true}
	d.Close()
	a, b := &ix.entries[0], &ix.entries[1]
	a.Offset, a.Length, b.Offset, b.Length = b.Offset, b.Length, a.Offset, a.Length
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := data[:bytes.Index(data, []byte(footerMagic))]
	block := encodeFooter(ix)
	lying := append(append(bytes.Clone(lines), block...), encodePlainTrailer(int64(len(lines)), int64(len(block)))...)
	if err := os.WriteFile(path, lying, 0o644); err != nil {
		t.Fatal(err)
	}
	if d, err = OpenDossier(path); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if !d.Indexed() {
		t.Fatal("the lying footer did not open indexed")
	}
	k := ix.entries[0].Index
	if got := mustRaw(t, d, k); !bytes.Equal(got, want[k]) {
		t.Fatalf("RawRun(%d) = %s, want %s", k, got, want[k])
	}
	if d.Indexed() {
		t.Fatal("dossier kept the lying footer")
	}
}

// TestDossierRandomAccessReadCount pins the O(1) access property
// structurally: on a 10k-run dossier, one indexed Run(k) costs a
// bounded number of file reads — not a scan of 10k records. The
// wall-clock counterpart is BenchmarkDossierRandomAccess.
func TestDossierRandomAccessReadCount(t *testing.T) {
	const runs = 10_000
	spec := synthSpec(runs, 1)
	for _, tc := range []struct {
		name     string
		maxReads int64
	}{
		// Plain: trailer + footer at open; one positioned read per record.
		{"shard-0.jsonl", 4},
		// Gzip: a record read decodes one member (≤ 64 records) from its
		// restart point in buffered chunks — bounded by the member size,
		// independent of the dossier size.
		{"shard-0.jsonl.gz", 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), tc.name)
			writeSyntheticShard(t, path, spec, 0)
			d, err := OpenDossier(path)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			if !d.Indexed() {
				t.Fatal("10k-run artefact did not open indexed")
			}
			for _, k := range []int{0, 1, runs / 2, runs - 1, 7777} {
				before := d.Reads()
				rec, err := d.Run(k)
				if err != nil {
					t.Fatalf("Run(%d): %v", k, err)
				}
				if rec.Index != k {
					t.Fatalf("Run(%d) returned run %d", k, rec.Index)
				}
				if cost := d.Reads() - before; cost > tc.maxReads {
					t.Fatalf("Run(%d) cost %d file reads, want ≤ %d (full scan would be thousands)", k, cost, tc.maxReads)
				}
			}
		})
	}
}

// TestDossierOpenReadCount pins the O(1) open: opening an indexed
// artefact reads the manifest line, the trailer and the footer — a
// fixed number of file reads whatever the run count, so a run fetch
// (serve's /jobs/{id}/runs/{k}) never pays for a scan past the
// manifest.
func TestDossierOpenReadCount(t *testing.T) {
	const maxReads = 4
	for _, name := range []string{"shard-0.jsonl", "shard-0.jsonl.gz"} {
		t.Run(name, func(t *testing.T) {
			var reads []int64
			for _, runs := range []int{100, 10_000} {
				path := filepath.Join(t.TempDir(), name)
				writeSyntheticShard(t, path, synthSpec(runs, 1), 0)
				d, err := OpenDossier(path)
				if err != nil {
					t.Fatal(err)
				}
				if !d.Indexed() {
					t.Fatalf("%d-run artefact did not open indexed", runs)
				}
				reads = append(reads, d.Reads())
				d.Close()
			}
			if reads[0] != reads[1] || reads[1] > maxReads {
				t.Fatalf("open cost %d file reads at 100 runs and %d at 10k, want the same count ≤ %d",
					reads[0], reads[1], maxReads)
			}
		})
	}
}

// TestDossierGoldenSeed2022 is the acceptance-facing differential
// suite: for plain and gzip artefacts of the golden E3/Figure-3
// campaign (40 one-minute runs, master seed 2022), every OpenDossier
// access path returns records byte-identical to the sequential decode,
// and the index reproduces the pinned 23 correct / 1 inconsistent /
// 16 panic-park split with 56 injections without decoding a record.
func TestDossierGoldenSeed2022(t *testing.T) {
	if testing.Short() {
		t.Skip("full-duration campaign")
	}
	spec := &Spec{Plan: core.PlanE3Fig3(), Runs: 40, MasterSeed: 2022, Shards: 1, Mode: core.ModeDistribution}
	pool := core.NewMachinePool()
	dir := t.TempDir()
	for _, name := range []string{"golden.jsonl", "golden.jsonl.gz"} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(dir, name)
			if _, skipped, err := ExecuteShardPool(context.Background(), spec, 0, 0, path, pool); err != nil || skipped {
				t.Fatalf("golden campaign: skipped=%v err=%v", skipped, err)
			}
			d, err := OpenDossier(path)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			if !d.Indexed() || !d.Complete() {
				t.Fatalf("golden artefact: indexed=%v complete=%v", d.Indexed(), d.Complete())
			}
			assertDossierMatchesSequential(t, d, path)

			counts := d.OutcomeCounts()
			want := map[string]int{
				core.OutcomeCorrect.String():      23,
				core.OutcomeInconsistent.String(): 1,
				core.OutcomePanicPark.String():    16,
			}
			for _, o := range core.AllOutcomes() {
				if counts[o.String()] != want[o.String()] {
					t.Fatalf("index count(%v) = %d, want %d", o, counts[o.String()], want[o.String()])
				}
			}
			if d.InjectionsTotal() != 56 {
				t.Fatalf("index injections = %d, want 56", d.InjectionsTotal())
			}
		})
	}
}

// TestCampaignDossierAndMasterIndex: shard footers compose into a
// campaign-level master index; the campaign dossier routes queries by
// run index across shard artefacts and the master-index file round-
// trips through disk.
func TestCampaignDossierAndMasterIndex(t *testing.T) {
	const runs, shards = 120, 3
	spec := synthSpec(runs, shards)
	dir := t.TempDir()
	paths := make([]string, shards)
	for i := range paths {
		paths[i] = filepath.Join(dir, fmt.Sprintf("shard-%02d.jsonl", i))
		writeSyntheticShard(t, paths[i], spec, i)
	}

	miPath := filepath.Join(dir, MasterIndexFileName)
	mi, err := WriteMasterIndexFile(miPath, paths)
	if err != nil {
		t.Fatal(err)
	}
	if mi.Runs != runs || mi.ShardCount != shards || len(mi.Shards) != shards {
		t.Fatalf("master index shape: runs=%d shards=%d entries=%d", mi.Runs, mi.ShardCount, len(mi.Shards))
	}
	for _, s := range mi.Shards {
		if !s.Indexed {
			t.Fatalf("shard %d not marked indexed in the master index", s.Shard)
		}
		if filepath.IsAbs(s.Path) {
			t.Fatalf("shard %d path %q not relative to the campaign dir", s.Shard, s.Path)
		}
	}

	cd, err := OpenCampaignFromMaster(miPath)
	if err != nil {
		t.Fatal(err)
	}
	defer cd.Close()
	if cd.NumRuns() != runs {
		t.Fatalf("campaign dossier holds %d runs, want %d", cd.NumRuns(), runs)
	}
	total := 0
	for _, n := range cd.OutcomeCounts() {
		total += n
	}
	if total != runs {
		t.Fatalf("campaign outcome counts sum to %d, want %d", total, runs)
	}
	for _, k := range []int{0, 39, 40, 41, 80, runs - 1} {
		rec, err := cd.Run(k)
		if err != nil {
			t.Fatalf("campaign Run(%d): %v", k, err)
		}
		if rec.Index != k {
			t.Fatalf("campaign Run(%d) returned run %d", k, rec.Index)
		}
		want := synthResult(k)
		if rec.Outcome != want.Outcome().String() {
			t.Fatalf("campaign Run(%d) outcome %s, want %s", k, rec.Outcome, want.Outcome())
		}
	}
	if _, err := cd.Run(runs); err == nil {
		t.Fatal("campaign Run past the window succeeded")
	}
	recs, err := cd.RunRange(35, 45)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 || recs[0].Index != 35 || recs[9].Index != 44 {
		t.Fatalf("campaign RunRange(35,45) = %d records [%d..%d]", len(recs), recs[0].Index, recs[len(recs)-1].Index)
	}

	// An incomplete shard set must be refused, like Merge refuses it.
	if _, err := OpenCampaignDossier(paths[:2]); err == nil {
		t.Fatal("campaign dossier over a missing shard accepted")
	}
	// A foreign shard too.
	other := synthSpec(runs, shards)
	other.MasterSeed = 123
	alien := filepath.Join(dir, "alien.jsonl")
	writeSyntheticShard(t, alien, other, 2)
	if _, err := OpenCampaignDossier([]string{paths[0], paths[1], alien}); err == nil {
		t.Fatal("campaign dossier over a foreign shard accepted")
	}
}
