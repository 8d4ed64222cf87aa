package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/dessertlab/certify/internal/core"
	"github.com/dessertlab/certify/internal/obs"
)

// TestArtefactBytesIndependentOfWorkerCount pins the single campaign
// executor's contract: runs are committed in index order, so a
// campaign's streamed artefact is byte-identical for any worker count —
// and, run under go test -cpu 1,2,4, for any GOMAXPROCS.
func TestArtefactBytesIndependentOfWorkerCount(t *testing.T) {
	spec := &Spec{Plan: shortE3(), Runs: 24, MasterSeed: 2022, Shards: 1, Mode: core.ModeDistribution}
	var ref []byte
	for _, workers := range []int{1, 2, 4} {
		path := filepath.Join(t.TempDir(), "shard.jsonl")
		if _, _, err := ExecuteShardPool(context.Background(), spec, 0, workers, path, core.NewMachinePool()); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		last := -1
		for _, line := range bytes.Split(b, []byte("\n")) {
			var probe struct {
				Type  string `json:"type"`
				Index int    `json:"index"`
			}
			if json.Unmarshal(line, &probe) != nil || probe.Type != recordRun {
				continue
			}
			if probe.Index != last+1 {
				t.Fatalf("%d workers: run %d streamed after run %d", workers, probe.Index, last)
			}
			last = probe.Index
		}
		if ref == nil {
			ref = b
		} else if !bytes.Equal(b, ref) {
			t.Fatalf("%d workers: artefact differs from the 1-worker artefact (%d vs %d bytes)", workers, len(b), len(ref))
		}
	}
}

// TestCompletionOrderArtefactReadsLikeIndexOrder: artefacts written by
// older builds stream fixed-N records in completion order. Readers key
// on the run index, so such an artefact must merge to the same
// aggregate, canonicalise to the same bytes and serve the same raw
// records as its index-ordered twin.
func TestCompletionOrderArtefactReadsLikeIndexOrder(t *testing.T) {
	spec := synthSpec(40, 1)
	dir := t.TempDir()
	scrambled := filepath.Join(dir, "scrambled.jsonl")
	ordered := filepath.Join(dir, "ordered.jsonl")
	writeSyntheticShardOrdered(t, scrambled, spec, 0, true)
	writeSyntheticShardOrdered(t, ordered, spec, 0, false)

	resS, _, err := Merge([]string{scrambled})
	if err != nil {
		t.Fatal(err)
	}
	resO, _, err := Merge([]string{ordered})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resS.Distribution(), resO.Distribution()) ||
		resS.InjectionsTotal() != resO.InjectionsTotal() ||
		resS.MeanDetectionLatency() != resO.MeanDetectionLatency() {
		t.Fatalf("merge: completion-order %v, index-order %v", resS.Distribution(), resO.Distribution())
	}

	canon := func(path string) (*Dossier, []byte) {
		d, err := OpenDossier(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		var b bytes.Buffer
		if err := WriteCanonical(&b, d); err != nil {
			t.Fatal(err)
		}
		return d, b.Bytes()
	}
	dS, cS := canon(scrambled)
	dO, cO := canon(ordered)
	if !bytes.Equal(cS, cO) {
		t.Fatal("completion-order artefact canonicalises differently from its index-ordered twin")
	}
	for k := 0; k < spec.Runs; k++ {
		rS, err := dS.RawRun(k)
		if err != nil {
			t.Fatal(err)
		}
		rO, err := dO.RawRun(k)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rS, rO) {
			t.Fatalf("run %d: raw records differ", k)
		}
	}
}

// TestCutoffArtefactBytesMatchColdBuild: a full-length E3-fig3 shard run
// over a pooled machine — checkpoint starts, golden fast-forwards to the
// next injection and to the horizon, and the lazy timeline extension —
// must stream the same bytes as the straight cold-build shard, at any
// worker count.
func TestCutoffArtefactBytesMatchColdBuild(t *testing.T) {
	m, ok := obs.Default.Lookup("certify_core_fastforward_total")
	if !ok {
		t.Fatal("fast-forward counter not registered")
	}
	fastForwards := m.(*obs.Counter)
	before := fastForwards.Value()
	runs := 24
	if testing.Short() {
		runs = 8
	}
	spec := &Spec{Plan: core.PlanE3Fig3(), Runs: runs, MasterSeed: 2022, Shards: 1, Mode: core.ModeFull}
	write := func(workers int, cold bool) []byte {
		sh, err := spec.Shard(0)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "shard.jsonl")
		w, err := CreateJSONL(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteManifest(sh.Manifest()); err != nil {
			t.Fatal(err)
		}
		c := sh.Campaign(workers, w.OnRun)
		c.ColdBuild = cold
		if !cold {
			c.Pool = core.NewMachinePool()
		}
		res, err := c.Execute(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteSummary(res); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	ref := write(1, true)
	for _, workers := range []int{1, 2, 4} {
		if b := write(workers, false); !bytes.Equal(b, ref) {
			t.Fatalf("%d workers: pooled artefact differs from the cold-build artefact (%d vs %d bytes)", workers, len(b), len(ref))
		}
	}
	if fastForwards.Value() == before {
		t.Fatal("no run fast-forwarded to its next injection")
	}
}
