package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestProfileFlags: -cpuprofile/-memprofile on campaign and fanout write
// non-empty pprof files — the fanout supervisor at the given paths, each
// re-exec'd worker at <path>.shard-NN — and leave the artefact bytes as
// they are without profiling.
func TestProfileFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real worker processes")
	}
	planfile := shortPlanFile(t)
	dir := t.TempDir()
	nonEmpty := func(paths ...string) {
		t.Helper()
		for _, p := range paths {
			if st, err := os.Stat(p); err != nil || st.Size() == 0 {
				t.Fatalf("profile %s missing or empty (err %v)", filepath.Base(p), err)
			}
		}
	}

	campaign := func(out string, extra ...string) []byte {
		t.Helper()
		args := append([]string{"-planfile", planfile, "-runs", "4", "-seed", "11", "-out", out, "-csv"}, extra...)
		if err := cmdCampaign(args); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cpu, mem := filepath.Join(dir, "campaign.cpu"), filepath.Join(dir, "campaign.mem")
	plain := campaign(filepath.Join(dir, "plain.jsonl"))
	profiled := campaign(filepath.Join(dir, "profiled.jsonl"), "-cpuprofile", cpu, "-memprofile", mem)
	if !bytes.Equal(plain, profiled) {
		t.Fatal("profiling changed the campaign artefact bytes")
	}
	nonEmpty(cpu, mem)

	cpu, mem = filepath.Join(dir, "fanout.cpu"), filepath.Join(dir, "fanout.mem")
	if err := cmdFanout([]string{
		"-planfile", planfile, "-runs", "4", "-seed", "11", "-shards", "2",
		"-dir", filepath.Join(dir, "fanout"), "-quiet", "-csv",
		"-cpuprofile", cpu, "-memprofile", mem,
	}); err != nil {
		t.Fatal(err)
	}
	nonEmpty(cpu, mem, cpu+".shard-00", cpu+".shard-01", mem+".shard-00", mem+".shard-01")
}
