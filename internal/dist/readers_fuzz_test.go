package dist

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/dessertlab/certify/internal/core"
)

// FuzzShardReaders feeds arbitrary bytes, under a plain and a .gz
// name, to both artefact readers: the sequential ReadShardAt (merge,
// resume) and the random-access OpenDossierAt (inspect, serve). Neither
// may panic, and each must return either a value or an error, never
// both or neither. The readers must agree on damage: both or neither
// call the bytes torn (ErrTorn), a dossier that reports itself complete
// holds bytes the sequential reader accepts, and when both accept the
// bytes they agree on completion.
// When both accept the bytes, every record the dossier serves for index
// k must be the sequential reader's record k: same index, same trace
// hash and, for adaptive shards, the same sample.
func FuzzShardReaders(f *testing.F) {
	dir := f.TempDir()
	adaptive := synthSpec(12, 2)
	adaptive.Stop = &core.StopSpec{Policy: core.StopPolicyCIWidth, WidthBP: 600}
	for _, spec := range []*Spec{synthSpec(8, 1), adaptive} {
		for _, gz := range []bool{false, true} {
			path := filepath.Join(dir, "seed.jsonl")
			if gz {
				path += ".gz"
			}
			writeSyntheticShard(f, path, spec, 0)
			data, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data, gz)
			f.Add(data[:len(data)/2], gz)
		}
	}
	f.Add([]byte{}, false)
	f.Add([]byte{0x1f, 0x8b}, true)
	f.Add([]byte(`{"type":"manifest","sch`), false) // one unterminated line: torn
	f.Add([]byte{'{'}, true)                        // shorter than the gzip magic: torn

	f.Fuzz(func(t *testing.T, data []byte, gz bool) {
		name := "fuzz.jsonl"
		if gz {
			name += ".gz"
		}
		size := int64(len(data))
		sf, serr := ReadShardAt(bytes.NewReader(data), size, name)
		if (sf == nil) == (serr == nil) {
			t.Fatalf("ReadShardAt returned shard %v with error %v", sf != nil, serr)
		}
		d, derr := OpenDossierAt(bytes.NewReader(data), size, name)
		if (d == nil) == (derr == nil) {
			t.Fatalf("OpenDossierAt returned dossier %v with error %v", d != nil, derr)
		}
		if errors.Is(serr, ErrTorn) != errors.Is(derr, ErrTorn) {
			t.Fatalf("readers disagree on a torn artefact: sequential %v, dossier %v", serr, derr)
		}
		if d != nil && d.Complete() && serr != nil {
			t.Fatalf("dossier reports a complete artefact the sequential reader refuses: %v", serr)
		}
		if sf == nil || d == nil {
			return
		}
		if d.Complete() != sf.Complete {
			t.Fatalf("dossier complete %v, sequential reader complete %v", d.Complete(), sf.Complete)
		}
		for _, e := range d.Entries() {
			rec, err := d.Run(e.Index)
			if err != nil {
				continue // a failed read is legal; a wrong record is not
			}
			want, ok := sf.TraceHashes[e.Index]
			if !ok {
				t.Fatalf("dossier serves run %d, which the sequential reader does not hold", e.Index)
			}
			hash, err := parseHex(rec.TraceHash)
			if rec.Index != e.Index || err != nil || hash != want {
				t.Fatalf("dossier serves run %d as index %d trace hash %q, sequential reader has %#x",
					e.Index, rec.Index, rec.TraceHash, want)
			}
			if s, ok := sf.Samples[e.Index]; ok {
				if rec.Outcome != s.Outcome.String() || rec.Injections != s.Injections || rec.DetectionNS != s.DetectionNS {
					t.Fatalf("dossier serves run %d as %s/%d/%d, sequential reader has %s/%d/%d", e.Index,
						rec.Outcome, rec.Injections, rec.DetectionNS, s.Outcome, s.Injections, s.DetectionNS)
				}
			}
		}
	})
}

// garbleMiddleLine overwrites the outcome of the artefact's third line
// (a run record, neither the first nor the last line) with a name no
// classifier emits, keeping every byte offset and the footer intact.
func garbleMiddleLine(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	third := lines[2]
	i := bytes.Index(third, []byte(`"outcome":"`))
	if i < 0 {
		t.Fatalf("third line is no run record: %s", third)
	}
	third[i+len(`"outcome":"`)] = '#'
	if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDossierCompleteChecksLinesBehindFooter: an intact indexed
// artefact stays on the indexed path after Complete; one whose record
// line was damaged behind an intact footer opens indexed but is not
// complete, serves no record, and the sequential reader refuses it.
func TestDossierCompleteChecksLinesBehindFooter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard-0.jsonl")
	writeSyntheticShard(t, path, synthSpec(8, 1), 0)
	d, err := OpenDossier(path)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Complete() || !d.Indexed() {
		t.Fatalf("intact artefact: complete %v, indexed %v; want both", d.Complete(), d.Indexed())
	}
	d.Close()

	garbleMiddleLine(t, path)
	if d, err = OpenDossier(path); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if !d.Indexed() {
		t.Fatal("damaged artefact did not open on its intact footer")
	}
	if d.Complete() {
		t.Fatal("dossier reports a damaged artefact complete")
	}
	if _, err := d.RawRun(0); err == nil {
		t.Fatal("dossier serves records from a damaged artefact")
	}
	if _, err := ReadShard(path); err == nil {
		t.Fatal("sequential reader accepts the damaged artefact")
	}
}

// TestReadersRefuseDuplicateRunIndex: a run record written twice is
// refused by the record scanner, so by ReadShard and by the dossier,
// whose footer no longer lines up and whose fallback scan then runs
// the same checks.
func TestReadersRefuseDuplicateRunIndex(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard-0.jsonl")
	writeSyntheticShard(t, path, synthSpec(8, 1), 0)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	dup := slices.Insert(lines, 2, lines[1])
	if err := os.WriteFile(path, bytes.Join(dup, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadShard(path); err == nil || !strings.Contains(err.Error(), "duplicate run index") {
		t.Errorf("ReadShard over a duplicated record: %v", err)
	}
	if _, err := OpenDossier(path); err == nil || !strings.Contains(err.Error(), "duplicate run index") {
		t.Errorf("OpenDossier over a duplicated record: %v", err)
	}
}

// TestExecuteShardRefusesCorruptArtefact: resuming over an artefact
// whose middle line is garbage neither skips nor reruns the shard — no
// crash leaves such a line, so the bytes were damaged after they were
// written and the operator decides whether to delete them.
func TestExecuteShardRefusesCorruptArtefact(t *testing.T) {
	spec := synthSpec(8, 1)
	path := filepath.Join(t.TempDir(), "shard-0.jsonl")
	writeSyntheticShard(t, path, spec, 0)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	copy(lines[2], bytes.Repeat([]byte{'#'}, len(lines[2])-1))
	if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	_, skipped, err := ExecuteShard(context.Background(), spec, 0, 1, path)
	if !errors.Is(err, errCorruptLine) || skipped {
		t.Fatalf("ExecuteShard over a corrupt artefact: skipped %v, err %v; want errCorruptLine", skipped, err)
	}
	after, rerr := os.ReadFile(path)
	if rerr != nil || !bytes.Equal(after, bytes.Join(lines, nil)) {
		t.Fatal("ExecuteShard rewrote the corrupt artefact")
	}
}

// overcountSummary edits the summary line's run count in place to one
// more than the records hold, keeping the line length, so only the
// summary-versus-records cross-check (summaryConfirms) can notice.
func overcountSummary(t *testing.T, data []byte) []byte {
	t.Helper()
	prefix := []byte(`{"type":"summary","runs":`)
	i := bytes.Index(data, prefix)
	if i < 0 {
		t.Fatal("no summary line to edit")
	}
	from := i + len(prefix)
	to := from + bytes.IndexByte(data[from:], ',')
	n, err := strconv.Atoi(string(data[from:to]))
	if err != nil || len(strconv.Itoa(n+1)) != to-from {
		t.Fatalf("summary run count %q cannot be raised in place", data[from:to])
	}
	out := bytes.Clone(data)
	copy(out[from:to], strconv.Itoa(n+1))
	return out
}

// writeOvercountedGzip writes spec's shard 0 as a complete indexed gzip
// artefact whose summary line is overcountSummary's: the steps of
// JSONLWriter.WriteSummary with the run count raised by one. (An edit in
// place is impossible inside a deflate stream.)
func writeOvercountedGzip(t *testing.T, path string, spec *Spec) {
	t.Helper()
	sh, err := spec.Shard(0)
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
	for k := sh.Start; k < sh.End; k++ {
		r := synthResult(k)
		w.OnRun(k, r)
		agg.AddSample(r.Outcome(), len(r.Injections), r.DetectionLatency)
	}
	s := summaryFor(agg)
	s.Runs++
	w.mu.Lock()
	if err := w.writeLine(s); err != nil {
		t.Fatal(err)
	}
	w.idx.summary = true
	w.mu.Unlock()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCompletionPredicateIsShared: a summary whose run count disagrees
// with the records marks an unfinished shard for every reader — the
// sequential reader and Merge, the dossier on its indexed and fallback
// paths, the campaign dossier and the canonical rendering — because
// they share one completion predicate.
func TestCompletionPredicateIsShared(t *testing.T) {
	spec := synthSpec(20, 1)
	dir := t.TempDir()
	honest := filepath.Join(dir, "honest.jsonl")
	writeSyntheticShard(t, honest, spec, 0)
	data, err := os.ReadFile(honest)
	if err != nil {
		t.Fatal(err)
	}
	edited := overcountSummary(t, data)
	clip := bytes.Index(edited, []byte(footerMagic))
	if clip < 0 {
		t.Fatal("plain artefact carries no footer")
	}
	gzPath := filepath.Join(dir, "overcount.jsonl.gz")
	writeOvercountedGzip(t, gzPath, spec)

	for _, tc := range []struct {
		name    string
		path    string
		data    []byte // nil: already written
		indexed bool
	}{
		{"plain indexed", filepath.Join(dir, "indexed.jsonl"), edited, true},
		{"plain footer clipped", filepath.Join(dir, "clipped.jsonl"), edited[:clip], false},
		{"gzip indexed", gzPath, nil, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.data != nil {
				if err := os.WriteFile(tc.path, tc.data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			sf, err := ReadShard(tc.path)
			if err != nil || sf.Complete || !sf.HasSummary {
				t.Fatalf("ReadShard: complete %v, summary %v, err %v; want an incomplete shard with a summary",
					sf != nil && sf.Complete, sf != nil && sf.HasSummary, err)
			}
			if _, _, err := Merge([]string{tc.path}); err == nil {
				t.Fatal("Merge accepted the shard")
			}
			d, err := OpenDossier(tc.path)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			if d.Indexed() != tc.indexed {
				t.Fatalf("dossier indexed %v, want %v", d.Indexed(), tc.indexed)
			}
			if d.Complete() {
				t.Fatal("Dossier.Complete accepted the shard")
			}
			if err := WriteCanonical(io.Discard, d); err == nil {
				t.Fatal("WriteCanonical rendered the shard")
			}
			if cd, err := OpenCampaignDossier([]string{tc.path}); err == nil {
				cd.Close()
				t.Fatal("OpenCampaignDossier accepted the shard")
			}
		})
	}
}
