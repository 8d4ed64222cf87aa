package dist

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"

	"github.com/dessertlab/certify/internal/core"
)

// TestHostileWindowAllocatesByBytes hands ReadShardAt an artefact that
// is one manifest line declaring an adaptive 1,000,000-run window. What
// the reader allocates must follow the artefact's bytes, not the window
// the manifest claims: presizing the per-run tables from the window
// cost 152 MB here.
func TestHostileWindowAllocatesByBytes(t *testing.T) {
	m := Manifest{
		Type: recordManifest, Schema: SchemaVersion, Plan: "E3-fig3", PlanHash: "0x1", MasterSeed: "0x1",
		Runs: 1_000_000, Shards: 1, End: 1_000_000, Mode: "distribution",
		Stop: &core.StopSpec{Policy: core.StopPolicyCIWidth, WidthBP: 600},
	}
	line, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	data := append(line, '\n')
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sf, err := ReadShardAt(bytes.NewReader(data), int64(len(data)), "hostile.jsonl")
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if sf.Records != 0 || sf.Complete {
		t.Fatalf("records %d, complete %v: want an empty, incomplete shard", sf.Records, sf.Complete)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	if alloc >= 1<<20 {
		t.Fatalf("ReadShardAt allocated %d bytes for a %d-byte artefact, want < 1 MiB", alloc, len(data))
	}
	t.Logf("ReadShardAt allocated %d bytes for a %d-byte artefact", alloc, len(data))
}
