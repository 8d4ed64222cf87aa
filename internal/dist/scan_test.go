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

// TestOutcomeNameRoundTrip: artefacts carry outcomes as taxonomy names,
// and the readers map every name the classifier can produce back to its
// outcome, refusing any other.
func TestOutcomeNameRoundTrip(t *testing.T) {
	for _, o := range core.AllOutcomes() {
		got, err := parseOutcome(o.String())
		if err != nil || got != o {
			t.Fatalf("parseOutcome(%q) = %v, %v; want %v", o.String(), got, err, o)
		}
	}
	for _, bad := range []string{"weird", "", "Correct", "17"} {
		if _, err := parseOutcome(bad); err == nil {
			t.Fatalf("unknown outcome name %q accepted", bad)
		}
	}
}
