package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets this test binary impersonate the certify CLI: when the
// fanout supervisor under test re-execs os.Executable(), the child is
// this binary again — the env marker routes it into the real CLI entry
// point instead of the test runner.
func TestMain(m *testing.M) {
	if os.Getenv("CERTIFY_FANOUT_WORKER") == "1" && len(os.Args) > 1 && os.Args[1] == "fanout-worker" {
		if err := run(os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "certify:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestRunRequiresSubcommand(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("missing subcommand accepted")
	}
	if err := run([]string{"frobnicate"}); err == nil {
		t.Fatal("unknown subcommand accepted")
	}
	if err := run([]string{"help"}); err != nil {
		t.Fatalf("help: %v", err)
	}
}

func TestCmdPlansListsAll(t *testing.T) {
	if err := cmdPlans(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"E1-hvc", "E1-trap", "E2-core1", "E3-fig3", "A3-irqchip"} {
		if _, err := lookupPlan(name); err != nil {
			t.Fatalf("lookupPlan(%q): %v", name, err)
		}
	}
	if _, err := lookupPlan("nope"); err == nil {
		t.Fatal("unknown plan accepted")
	}
}

func TestCmdGolden(t *testing.T) {
	if err := cmdGolden([]string{"-seed", "3", "-duration", "5s"}); err != nil {
		t.Fatalf("golden: %v", err)
	}
	if err := cmdGolden([]string{"-bogus"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestCmdInject(t *testing.T) {
	if err := cmdInject([]string{"-plan", "E3-fig3", "-seed", "7"}); err != nil {
		t.Fatalf("inject: %v", err)
	}
	if err := cmdInject([]string{"-plan", "missing"}); err == nil ||
		!strings.Contains(err.Error(), "unknown plan") {
		t.Fatalf("bad plan error = %v", err)
	}
}

func TestCmdCampaignSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign")
	}
	if err := cmdCampaign([]string{"-plan", "E3-fig3", "-runs", "5", "-csv"}); err != nil {
		t.Fatalf("campaign: %v", err)
	}
}

func TestCmdReportSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign")
	}
	if err := cmdReport([]string{"-runs", "4", "-duration", "10s"}); err != nil {
		t.Fatalf("report: %v", err)
	}
}

// shortPlanFile writes a plan file with a shortened duration so CLI
// campaign tests stay fast.
func shortPlanFile(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "e3-short.plan")
	plan := `name      = E3-cli-short
points    = arch_handle_trap
intensity = medium
cpu       = 1
cell      = freertos-cell
duration  = 8s
workload  = steady
`
	if err := os.WriteFile(path, []byte(plan), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCampaignFlagValidation pins the -out/-shards/-shard-index
// contract: every bad combination is rejected before any run executes,
// with an error message naming the fix.
func TestCampaignFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"zero runs", []string{"-runs", "0"}, "-runs"},
		{"negative shards", []string{"-shards", "-2"}, "-shards"},
		{"shards over runs", []string{"-runs", "4", "-shards", "8", "-shard-index", "0", "-out", "s.jsonl"}, "at most one shard per run"},
		{"shards without index", []string{"-runs", "12", "-shards", "3", "-out", "s.jsonl"}, "-shard-index"},
		{"index without shards", []string{"-runs", "12", "-shard-index", "1"}, "-shards"},
		{"index out of range", []string{"-runs", "12", "-shards", "3", "-shard-index", "3", "-out", "s.jsonl"}, "out of range"},
		{"sharded without out", []string{"-runs", "12", "-shards", "3", "-shard-index", "1"}, ".jsonl"},
		{"dir artefacts in distribution mode", []string{"-mode", "distribution", "-out", "artefacts"}, ".jsonl.gz"},
		{"dir artefacts in full mode", []string{"-mode", "full", "-out", "artefacts"}, ".jsonl.gz"},
		{"unknown mode", []string{"-mode", "turbo"}, "unknown -mode"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := cmdCampaign(tc.args)
			if err == nil {
				t.Fatalf("args %v accepted", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("args %v: error %q does not mention %q", tc.args, err, tc.want)
			}
		})
	}
}

// TestCmdShardedCampaignAndMerge drives the full CLI story: three shard
// invocations (as three processes would run them), a resume no-op, and
// the merge that reassembles the campaign.
func TestCmdShardedCampaignAndMerge(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign")
	}
	planfile := shortPlanFile(t)
	dir := t.TempDir()
	paths := make([]string, 3)
	for i := range paths {
		paths[i] = filepath.Join(dir, fmt.Sprintf("shard-%d.jsonl", i))
		args := []string{
			"-planfile", planfile, "-runs", "9", "-seed", "2022",
			"-mode", "distribution", "-shards", "3",
			"-shard-index", fmt.Sprint(i), "-out", paths[i], "-csv",
		}
		if err := cmdCampaign(args); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
	// Rerunning a completed shard must be a cheap no-op, not a redo.
	if err := cmdCampaign([]string{
		"-planfile", planfile, "-runs", "9", "-seed", "2022",
		"-mode", "distribution", "-shards", "3",
		"-shard-index", "0", "-out", paths[0], "-csv",
	}); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if err := cmdMerge(append([]string{"-csv"}, paths...)); err != nil {
		t.Fatalf("merge: %v", err)
	}
	// Merging a strict subset must fail loudly.
	if err := cmdMerge(paths[:2]); err == nil {
		t.Fatal("merge of 2/3 shards accepted")
	}
	if err := cmdMerge(nil); err == nil {
		t.Fatal("merge with no files accepted")
	}
}

// TestCmdCampaignJSONLUnsharded: -out FILE.jsonl without -shards runs
// the whole campaign as one merge-ready shard, in either mode.
func TestCmdCampaignJSONLUnsharded(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign")
	}
	planfile := shortPlanFile(t)
	out := filepath.Join(t.TempDir(), "runs.jsonl")
	if err := cmdCampaign([]string{
		"-planfile", planfile, "-runs", "4", "-mode", "distribution",
		"-out", out, "-csv",
	}); err != nil {
		t.Fatal(err)
	}
	if err := cmdMerge([]string{out}); err != nil {
		t.Fatalf("single-file merge: %v", err)
	}
}

// TestFanoutFlagValidation pins the fanout flag contract: unrunnable
// combinations are rejected before any worker launches, with errors
// naming the fix.
func TestFanoutFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"zero runs", []string{"-runs", "0"}, "-runs"},
		{"zero shards", []string{"-runs", "8", "-shards", "0"}, "-shards"},
		{"shards over runs", []string{"-runs", "4", "-shards", "8"}, "at most one shard per run"},
		{"negative retries", []string{"-runs", "8", "-retries", "-1"}, "-retries"},
		{"negative parallel", []string{"-runs", "8", "-parallel", "-2"}, "-parallel"},
		{"negative stall", []string{"-runs", "8", "-stall", "-5s"}, "-stall"},
		{"unknown mode", []string{"-runs", "8", "-mode", "turbo"}, "unknown -mode"},
		{"unknown plan", []string{"-plan", "nope"}, "unknown plan"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := cmdFanout(tc.args)
			if err == nil {
				t.Fatalf("args %v accepted", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("args %v: error %q does not mention %q", tc.args, err, tc.want)
			}
		})
	}
}

// TestCmdFanoutInProcess drives the full one-command flow with
// in-process workers: supervise, merge, manifest, resume.
func TestCmdFanoutInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign")
	}
	planfile := shortPlanFile(t)
	dir := filepath.Join(t.TempDir(), "campaign")
	args := []string{
		"-planfile", planfile, "-runs", "9", "-seed", "2022",
		"-shards", "3", "-dir", dir, "-inproc", "-quiet", "-csv",
	}
	if err := cmdFanout(args); err != nil {
		t.Fatalf("fanout: %v", err)
	}
	for _, name := range []string{"spec.json", "fanout.json", "shard-00.jsonl", "shard-01.jsonl", "shard-02.jsonl"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("missing %s after fanout: %v", name, err)
		}
	}
	// Second invocation resumes: every shard is already complete.
	if err := cmdFanout(args); err != nil {
		t.Fatalf("fanout resume: %v", err)
	}
	// The shard artefacts remain plain merge inputs.
	if err := cmdMerge([]string{
		"-csv",
		filepath.Join(dir, "shard-00.jsonl"),
		filepath.Join(dir, "shard-01.jsonl"),
		filepath.Join(dir, "shard-02.jsonl"),
	}); err != nil {
		t.Fatalf("manual merge of fanout artefacts: %v", err)
	}
}

// TestCmdFanoutExecWorkers exercises the production path: the
// supervisor re-execs this very binary as real shard worker processes
// (TestMain routes the children into the CLI).
func TestCmdFanoutExecWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real worker processes")
	}
	planfile := shortPlanFile(t)
	dir := filepath.Join(t.TempDir(), "campaign")
	if err := cmdFanout([]string{
		"-planfile", planfile, "-runs", "6", "-seed", "7",
		"-shards", "2", "-dir", dir, "-gzip", "-quiet", "-csv",
	}); err != nil {
		t.Fatalf("fanout with exec workers: %v", err)
	}
	m, err := os.ReadFile(filepath.Join(dir, "fanout.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(m), `"completed": true`) {
		t.Fatalf("fanout.json not marked completed:\n%s", m)
	}
	if !strings.Contains(string(m), `"worker": "pid `) {
		t.Fatalf("fanout.json records no process workers:\n%s", m)
	}
}

// TestCmdCampaignGzipJSONL: -out runs.jsonl.gz streams a compressed
// artefact that merge reads transparently.
func TestCmdCampaignGzipJSONL(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign")
	}
	planfile := shortPlanFile(t)
	out := filepath.Join(t.TempDir(), "runs.jsonl.gz")
	if err := cmdCampaign([]string{
		"-planfile", planfile, "-runs", "4", "-mode", "distribution",
		"-out", out, "-csv",
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
		t.Fatal("-out .jsonl.gz did not produce a gzip file")
	}
	if err := cmdMerge([]string{"-csv", out}); err != nil {
		t.Fatalf("merge of gzip artefact: %v", err)
	}
}

// TestCmdCampaignOutNeedsJSONL: -out names the JSONL artefact, so a
// path without a .jsonl or .jsonl.gz suffix is a usage error (exit 2)
// whose message names both suffixes, and nothing runs.
func TestCmdCampaignOutNeedsJSONL(t *testing.T) {
	out := filepath.Join(t.TempDir(), "x.json")
	err := cmdCampaign([]string{"-plan", "E3-fig3", "-runs", "3", "-out", out, "-csv"})
	if code := exitCode(err); code != exitUsage {
		t.Fatalf("exit code %d (err %v), want %d", code, err, exitUsage)
	}
	for _, want := range []string{".jsonl ", ".jsonl.gz"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %q", err, want)
		}
	}
	if _, serr := os.Stat(out); !os.IsNotExist(serr) {
		t.Fatalf("-out %s was written: %v", out, serr)
	}
}
