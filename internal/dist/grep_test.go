package dist

import (
	"context"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/dessertlab/certify/internal/core"
)

// expectedGrep computes the ground truth the dossier's Grep must
// reproduce: regex over each run record's raw line, sequentially.
func expectedGrep(t *testing.T, path string, re *regexp.Regexp) []int {
	t.Helper()
	var want []int
	for k, line := range sequentialRunLines(t, path) {
		if re.Match(line) {
			want = append(want, k)
		}
	}
	return want
}

func matchIndices(ms []GrepMatch) []int {
	out := make([]int, len(ms))
	for i, m := range ms {
		out[i] = m.Index
	}
	return out
}

func sameIndexSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[int]bool, len(a))
	for _, k := range a {
		seen[k] = true
	}
	for _, k := range b {
		if !seen[k] {
			return false
		}
	}
	return true
}

// TestDossierGrep pins the grep contract on a real full-mode campaign,
// plain and gzip: same matches as a sequential regex over the raw
// record lines, served through the indexed path (gzip greps stream one
// restart member at a time), with the matching evidence lines decoded.
func TestDossierGrep(t *testing.T) {
	for _, tc := range []struct {
		name string
		gz   bool
	}{{"plain", false}, {"gzip", true}} {
		t.Run(tc.name, func(t *testing.T) {
			spec := &Spec{Plan: shortE3(), Runs: 4, MasterSeed: 17, Shards: 1, Mode: core.ModeFull}
			name := "runs.jsonl"
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

			for _, pattern := range []string{
				"cell alive until horizon", // evidence line of correct runs
				"FreeRTOS",                 // cell transcript content
				"no such pattern anywhere", // must match nothing
			} {
				re := regexp.MustCompile(pattern)
				want := expectedGrep(t, path, re)
				got, err := d.Grep(re)
				if err != nil {
					t.Fatalf("grep %q: %v", pattern, err)
				}
				if !sameIndexSet(matchIndices(got), want) {
					t.Errorf("grep %q: matched runs %v, sequential ground truth %v",
						pattern, matchIndices(got), want)
				}
				for i := 1; i < len(got); i++ {
					if got[i-1].Index >= got[i].Index {
						t.Fatalf("grep %q: matches not in run-index order", pattern)
					}
				}
			}

			// A pattern that lives in evidence must surface the decoded line.
			got, err := d.Grep(regexp.MustCompile("cell alive until horizon"))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) == 0 {
				t.Skip("no correct runs in this tiny campaign")
			}
			found := false
			for _, line := range got[0].Lines {
				if strings.HasPrefix(line, "evidence:") && strings.Contains(line, "cell alive until horizon") {
					found = true
				}
			}
			if !found {
				t.Errorf("matching evidence line not extracted: %q", got[0].Lines)
			}
		})
	}
}

// TestDossierGrepDegraded pins grep on the fallback paths: pre-index
// artefacts (no footer, so no restart members either) answer the same
// queries through the sequential cache, plain and gzip.
func TestDossierGrepDegraded(t *testing.T) {
	spec := synthSpec(40, 1)
	sh, err := spec.Shard(0)
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`synthetic evidence for run \d+`)
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
				t.Fatal(err)
			}
			defer d.Close()
			if d.Indexed() {
				t.Fatal("pre-index artefact claims an index")
			}
			want := expectedGrep(t, path, re)
			if len(want) == 0 {
				t.Fatal("synthetic campaign produced no evidence lines to grep")
			}
			got, err := d.Grep(re)
			if err != nil {
				t.Fatal(err)
			}
			if !sameIndexSet(matchIndices(got), want) {
				t.Errorf("degraded grep matched %v, ground truth %v", matchIndices(got), want)
			}
		})
	}
}

// TestCampaignDossierGrep pins cross-shard routing: a campaign grep
// returns every shard's matches merged in run-index order.
func TestCampaignDossierGrep(t *testing.T) {
	spec := synthSpec(30, 3)
	dir := t.TempDir()
	paths := make([]string, spec.Shards)
	for i := range paths {
		paths[i] = filepath.Join(dir, "shard-"+string(rune('0'+i))+".jsonl")
		writeSyntheticShard(t, paths[i], spec, i)
	}
	cd, err := OpenCampaignDossier(paths)
	if err != nil {
		t.Fatal(err)
	}
	defer cd.Close()

	re := regexp.MustCompile(`synthetic evidence for run \d+`)
	var want []int
	for _, p := range paths {
		want = append(want, expectedGrep(t, p, re)...)
	}
	if len(want) == 0 {
		t.Fatal("synthetic campaign produced no evidence lines to grep")
	}
	got, err := cd.Grep(re)
	if err != nil {
		t.Fatal(err)
	}
	if !sameIndexSet(matchIndices(got), want) {
		t.Errorf("campaign grep matched %v, ground truth %v", matchIndices(got), want)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Index >= got[i].Index {
			t.Fatal("campaign grep matches not in run-index order")
		}
	}
}
