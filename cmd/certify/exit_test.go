package main

import (
	"context"
	"flag"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"github.com/dessertlab/certify/internal/dist"
	"github.com/dessertlab/certify/internal/serve"
)

// newLocalServer exposes a serve.Server over loopback HTTP for CLI
// round-trip tests and tears it down with the test.
func newLocalServer(t *testing.T, s *serve.Server) string {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return ts.URL
}

// TestExitCodeMapping pins the CLI exit-code contract documented in the
// usage text: 0 ok, 1 failure, 2 usage, 3 campaign identity mismatch —
// for local errors, wrapped sentinels, and server error classes alike.
func TestExitCodeMapping(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"nil", nil, exitOK},
		{"plain failure", fmt.Errorf("disk on fire"), exitFailure},
		{"usage", usagef("need -runs"), exitUsage},
		{"wrapped usage", fmt.Errorf("context: %w", usagef("need -runs")), exitUsage},
		{"campaign mismatch", dist.ErrCampaignMismatch, exitMismatch},
		{"wrapped mismatch", fmt.Errorf("shard 2: %w", dist.ErrCampaignMismatch), exitMismatch},
		{"server usage class", &serve.APIError{Status: 400, Class: serve.ClassUsage, Msg: "no plan"}, exitUsage},
		{"server mismatch class", &serve.APIError{Status: 500, Class: serve.ClassMismatch, Msg: "foreign artefact"}, exitMismatch},
		{"server internal class", &serve.APIError{Status: 500, Class: serve.ClassInternal, Msg: "boom"}, exitFailure},
		{"server not-found class", &serve.APIError{Status: 404, Class: serve.ClassNotFound, Msg: "job"}, exitFailure},
		{"wrapped server class", fmt.Errorf("submit: %w", &serve.APIError{Status: 400, Class: serve.ClassUsage}), exitUsage},
	}
	for _, tc := range cases {
		if got := exitCode(tc.err); got != tc.want {
			t.Errorf("%s: exitCode(%v) = %d, want %d", tc.name, tc.err, got, tc.want)
		}
	}
}

// TestUsageErrorsFromRun: malformed invocations surface as usage errors
// (exit 2) through the real dispatch path, not as generic failures.
func TestUsageErrorsFromRun(t *testing.T) {
	cases := [][]string{
		nil,                              // missing subcommand
		{"frobnicate"},                   // unknown subcommand
		{"campaign", "-runs", "0"},       // invalid flag value
		{"campaign", "-bogus"},           // unknown flag
		{"inject", "-plan", "missing"},   // unknown plan
		{"campaign", "-mode", "turbo"},   // unknown mode
		{"fanout", "-runs", "0"},         // fanout validation
		{"merge"},                        // merge without inputs
		{"watch", "-server", "http://x"}, // watch without a job id
	}
	for _, args := range cases {
		err := run(args)
		if err == nil {
			t.Errorf("run(%v) accepted", args)
			continue
		}
		if got := exitCode(err); got != exitUsage {
			t.Errorf("run(%v): exit %d (%v), want %d", args, got, err, exitUsage)
		}
	}
	// help exits clean even though run returns flag.ErrHelp upstream.
	if err := run([]string{"help"}); err != nil {
		t.Fatalf("help: %v", err)
	}
	if err := run([]string{"campaign", "-h"}); err != flag.ErrHelp {
		t.Fatalf("campaign -h = %v, want flag.ErrHelp", err)
	}
}

// TestMergeMismatchExitCode drives two real single-run campaigns with
// different seeds and pins that merging them exits 3: the artefacts are
// individually sound, so only the cross-campaign identity check fires.
func TestMergeMismatchExitCode(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign")
	}
	planfile := shortPlanFile(t)
	dir := t.TempDir()
	paths := make([]string, 2)
	for i, seed := range []string{"1", "2"} {
		paths[i] = filepath.Join(dir, "seed"+seed+".jsonl")
		if err := cmdCampaign([]string{
			"-planfile", planfile, "-runs", "1", "-seed", seed,
			"-mode", "distribution", "-out", paths[i], "-csv",
		}); err != nil {
			t.Fatalf("campaign seed %s: %v", seed, err)
		}
	}
	err := cmdMerge(append([]string{"-csv"}, paths...))
	if err == nil {
		t.Fatal("merge of two different campaigns accepted")
	}
	if got := exitCode(err); got != exitMismatch {
		t.Fatalf("merge mismatch exit = %d (%v), want %d", got, err, exitMismatch)
	}
}

// TestInspectMismatchExitCode: inspect over shard artefacts that are
// not one campaign — a shard of another seed, or one shard given twice
// — exits 3 like merge, because both apply the same campaign-set check.
func TestInspectMismatchExitCode(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign")
	}
	planfile := shortPlanFile(t)
	dir := t.TempDir()
	shard := func(seed string, index int) string {
		path := filepath.Join(dir, fmt.Sprintf("seed%s-shard%d.jsonl", seed, index))
		if err := cmdCampaign([]string{
			"-planfile", planfile, "-runs", "2", "-seed", seed, "-mode", "distribution",
			"-shards", "2", "-shard-index", fmt.Sprint(index), "-out", path, "-csv",
		}); err != nil {
			t.Fatalf("campaign seed %s shard %d: %v", seed, index, err)
		}
		return path
	}
	own0, own1, foreign1 := shard("1", 0), shard("1", 1), shard("2", 1)
	if err := cmdInspect([]string{own0, own1}); err != nil {
		t.Fatalf("inspect of one campaign: %v", err)
	}
	for _, tc := range []struct {
		name  string
		paths []string
	}{
		{"foreign shard", []string{own0, foreign1}},
		{"duplicated shard", []string{own0, own0}},
	} {
		err := cmdInspect(tc.paths)
		if got := exitCode(err); got != exitMismatch {
			t.Errorf("inspect over a %s: exit %d (%v), want %d", tc.name, got, err, exitMismatch)
		}
	}
}

// TestSubmitAgainstServer drives certify submit end to end against an
// in-process server: a successful remote campaign exits 0, a usage-class
// rejection exits 2 — the same codes local execution produces.
func TestSubmitAgainstServer(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign")
	}
	s, err := serve.New(serve.Config{
		DataDir: t.TempDir(), SkipGoldenCheck: true, WorkersPerJob: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := newLocalServer(t, s)
	planfile := shortPlanFile(t)

	if err := cmdSubmit([]string{
		"-server", ts, "-planfile", planfile, "-runs", "4", "-seed", "5",
	}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	// Second submission is a cache hit — still exit 0.
	if err := cmdSubmit([]string{
		"-server", ts, "-planfile", planfile, "-runs", "4", "-seed", "5",
	}); err != nil {
		t.Fatalf("cached submit: %v", err)
	}
	// A server-side usage rejection maps to exit 2, like a local one.
	err = cmdSubmit([]string{"-server", ts, "-plan", "no-such-plan", "-runs", "4"})
	if got := exitCode(err); got != exitUsage {
		t.Fatalf("remote unknown plan: exit %d (%v), want %d", got, err, exitUsage)
	}
	// An unreachable server is an I/O failure: exit 1.
	err = cmdSubmit([]string{"-server", "http://127.0.0.1:1", "-plan", "E3-fig3", "-runs", "4"})
	if got := exitCode(err); got != exitFailure {
		t.Fatalf("unreachable server: exit %d (%v), want %d", got, err, exitFailure)
	}
}
