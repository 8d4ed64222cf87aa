package dist

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/dessertlab/certify/internal/core"
)

// FuzzShardReaders feeds arbitrary bytes, under a plain and a .gz
// name, to both artefact readers: the sequential ReadShardAt (merge,
// resume) and the random-access OpenDossierAt (inspect, serve). Neither
// may panic, and each must return either a value or an error, never
// both or neither. The readers must agree on damage: a dossier that
// reports itself complete holds bytes the sequential reader accepts.
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
		if d != nil && d.Complete() && serr != nil {
			t.Fatalf("dossier reports a complete artefact the sequential reader refuses: %v", serr)
		}
		if sf == nil || d == nil {
			return
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
