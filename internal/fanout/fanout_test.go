package fanout

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dessertlab/certify/internal/core"
	"github.com/dessertlab/certify/internal/dist"
	"github.com/dessertlab/certify/internal/sim"
)

// shortE3 shortens the Figure-3 plan so supervised campaigns stay fast.
func shortE3() *core.TestPlan {
	plan := *core.PlanE3Fig3()
	plan.Duration = 8 * sim.Second
	plan.Name = "E3-fanout"
	return &plan
}

// killableE3 is the shortened E3 plan for the crash-and-resume tests.
// Runs restored from golden checkpoints only simulate from their first
// injection on, and an 8 s E3 run rarely injects at all, so the
// campaign is made of 30 s runs — long enough that most of them inject,
// so the crashed and the resumed attempts simulate real work.
func killableE3() *core.TestPlan {
	plan := shortE3()
	plan.Duration = 30 * sim.Second
	return plan
}

// serialReference runs the unsharded campaign and collects per-run
// trace hashes — the bit-identity baseline every fan-out must hit.
func serialReference(t *testing.T, plan *core.TestPlan, runs int, seed uint64) (*core.CampaignResult, map[int]uint64) {
	t.Helper()
	var mu sync.Mutex
	hashes := make(map[int]uint64, runs)
	c := &core.Campaign{
		Plan: plan, Runs: runs, MasterSeed: seed, Mode: core.ModeDistribution,
		OnRun: func(index int, r *core.RunResult) {
			mu.Lock()
			hashes[index] = r.TraceHash
			mu.Unlock()
		},
	}
	res, err := c.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res, hashes
}

// requireMatchesSerial asserts the supervised result equals the serial
// reference: distribution, injections, latency and per-run trace hash.
func requireMatchesSerial(t *testing.T, res *Result, serial *core.CampaignResult, hashes map[int]uint64) {
	t.Helper()
	if res.Merged.Total() != serial.Total() || res.Merged.InjectionsTotal() != serial.InjectionsTotal() {
		t.Fatalf("merged total/injections = %d/%d, serial = %d/%d",
			res.Merged.Total(), res.Merged.InjectionsTotal(), serial.Total(), serial.InjectionsTotal())
	}
	for _, o := range core.AllOutcomes() {
		if res.Merged.Count(o) != serial.Count(o) {
			t.Fatalf("count(%v) = %d supervised, %d serial", o, res.Merged.Count(o), serial.Count(o))
		}
	}
	if res.Merged.MeanDetectionLatency() != serial.MeanDetectionLatency() {
		t.Fatalf("mean detection latency %v supervised, %v serial",
			res.Merged.MeanDetectionLatency(), serial.MeanDetectionLatency())
	}
	got := make(map[int]uint64, serial.Total())
	for _, sf := range res.Shards {
		for idx, h := range sf.TraceHashes {
			got[idx] = h
		}
	}
	if len(got) != len(hashes) {
		t.Fatalf("supervised artefacts hold %d runs, serial reference %d", len(got), len(hashes))
	}
	for idx, h := range hashes {
		if got[idx] != h {
			t.Fatalf("run %d: trace hash %#x supervised, %#x serial", idx, got[idx], h)
		}
	}
}

// TestFanoutMatchesSerial is the tentpole's core promise: one Run call
// supervises K workers and lands on the bit-identical serial campaign.
func TestFanoutMatchesSerial(t *testing.T) {
	const runs, seed = 24, uint64(2022)
	plan := shortE3()
	serial, hashes := serialReference(t, plan, runs, seed)

	for _, k := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards-%d", k), func(t *testing.T) {
			spec := &dist.Spec{Plan: plan, Runs: runs, MasterSeed: seed, Shards: k, Mode: core.ModeDistribution}
			res, err := Run(context.Background(), Config{
				Spec: spec, Dir: t.TempDir(), Poll: 5 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			requireMatchesSerial(t, res, serial, hashes)
			if !res.Manifest.Completed {
				t.Fatal("manifest not marked completed")
			}
			for _, w := range res.Manifest.Workers {
				if w.State != StateCompleted {
					t.Fatalf("shard %d state %s, want completed", w.Shard, w.State)
				}
				if n := len(w.Attempts); n != 1 || w.Attempts[0].Outcome != "completed" {
					t.Fatalf("shard %d attempts %+v, want one completed", w.Shard, w.Attempts)
				}
			}
		})
	}
}

// killFirstLauncher kills the target shard's first attempt mid-shard
// by construction: the attempt executes the shard's campaign with one
// worker and cancels it from the commit of its first run record, so it
// always streams at least one record (at most the run already in flight
// follows) and never reaches its summary — the artefact a worker killed
// mid-shard leaves behind. Every other attempt runs in process as
// usual. All attempts — doomed, restarted and healthy alike — draw
// machines from one shared warm pool, so the crash-recovery path is
// exercised on reused machines.
type killFirstLauncher struct {
	target int
	pool   *core.MachinePool
	mu     sync.Mutex
	killed bool
}

func (l *killFirstLauncher) Start(ctx context.Context, req StartRequest) (Worker, error) {
	l.mu.Lock()
	doomed := req.Index == l.target && !l.killed
	l.killed = l.killed || doomed
	if l.pool == nil {
		l.pool = core.NewMachinePool()
	}
	pool := l.pool
	l.mu.Unlock()
	if !doomed {
		return InProcess{Pool: pool}.Start(ctx, req)
	}
	sh, err := req.Spec.Shard(req.Index)
	if err != nil {
		return nil, err
	}
	if req.Spec.Stop != nil && sh.Start == 0 {
		return nil, fmt.Errorf("killFirstLauncher: shard %d runs the stop policy; doom another shard", req.Index)
	}
	jw, err := dist.CreateJSONL(req.OutPath)
	if err != nil {
		return nil, err
	}
	if err := jw.WriteManifest(sh.Manifest()); err != nil {
		jw.Close()
		return nil, err
	}
	wctx, cancel := context.WithCancel(ctx)
	c := sh.Campaign(1, func(index int, r *core.RunResult) {
		jw.OnRun(index, r)
		cancel() // the kill
	})
	c.Pool = pool
	w := &inprocWorker{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(w.done)
		res, err := c.Execute(wctx)
		if cerr := jw.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = fmt.Errorf("shard %d killed after %d of %d runs", req.Index, res.Total(), sh.Runs())
		}
		w.err = err
	}()
	return w, nil
}

// TestFanoutKilledWorkerResumes: a worker dies mid-shard; the
// supervisor restarts it and the merged result is still bit-identical
// to the serial campaign, with a truthful crash in the manifest.
func TestFanoutKilledWorkerResumes(t *testing.T) {
	const runs, seed = 120, uint64(2022)
	plan := killableE3()
	serial, hashes := serialReference(t, plan, runs, seed)

	spec := &dist.Spec{Plan: plan, Runs: runs, MasterSeed: seed, Shards: 3, Mode: core.ModeDistribution}
	res, err := Run(context.Background(), Config{
		Spec: spec, Dir: t.TempDir(), Retries: 2,
		Launcher: &killFirstLauncher{target: 1}, Poll: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	requireMatchesSerial(t, res, serial, hashes)

	st := res.Manifest.Workers[1]
	if st.State != StateCompleted {
		t.Fatalf("killed shard state %s, want completed", st.State)
	}
	if len(st.Attempts) != 2 {
		t.Fatalf("killed shard attempts = %+v, want crash + completion", st.Attempts)
	}
	if st.Attempts[0].Outcome != "crashed" || st.Attempts[1].Outcome != "completed" {
		t.Fatalf("attempt outcomes = %q, %q; want crashed, completed",
			st.Attempts[0].Outcome, st.Attempts[1].Outcome)
	}
}

// TestFanoutGoldenSeed2022KilledWorker is the acceptance gate: the
// pinned E3/Figure-3 campaign (40 one-minute runs, master seed 2022, 3
// shards) supervised in one call, with every worker drawing machines
// from one shared warm pool and one worker killed partway through,
// still reproduces the golden 23/1/16 split and 56 injections.
func TestFanoutGoldenSeed2022KilledWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("full-duration campaign")
	}
	pool := core.NewMachinePool()
	spec := &dist.Spec{Plan: core.PlanE3Fig3(), Runs: 40, MasterSeed: 2022, Shards: 3, Mode: core.ModeDistribution}
	res, err := Run(context.Background(), Config{
		Spec: spec, Dir: t.TempDir(), Retries: 2,
		Launcher: &killFirstLauncher{target: 1, pool: pool}, Poll: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[core.Outcome]int{
		core.OutcomeCorrect:      23,
		core.OutcomeInconsistent: 1,
		core.OutcomePanicPark:    16,
	}
	for _, o := range core.AllOutcomes() {
		if res.Merged.Count(o) != want[o] {
			t.Fatalf("count(%v) = %d, want %d", o, res.Merged.Count(o), want[o])
		}
	}
	if res.Merged.Total() != 40 || res.Merged.InjectionsTotal() != 56 {
		t.Fatalf("total=%d injections=%d, want 40/56", res.Merged.Total(), res.Merged.InjectionsTotal())
	}
	if builds, reuses := pool.Stats(); reuses == 0 {
		t.Fatalf("pool stats builds=%d reuses=%d — supervised campaign never reused a machine", builds, reuses)
	}
}

// brokenLauncher fails the target shard's every attempt: the worker
// exits with an error before writing anything.
type brokenLauncher struct{ target int }

type deadWorker struct{ err error }

func (w deadWorker) Wait() error    { return w.err }
func (deadWorker) Kill()            {}
func (deadWorker) Describe() string { return "dead-on-arrival" }
func (l brokenLauncher) Start(ctx context.Context, req StartRequest) (Worker, error) {
	if req.Index == l.target {
		return deadWorker{err: fmt.Errorf("simulated worker crash")}, nil
	}
	return InProcess{}.Start(ctx, req)
}

// TestFanoutRetryExhaustion: a shard that can never complete consumes
// its retry budget, the fan-out fails with a named shard, and
// fanout.json records every attempt truthfully.
func TestFanoutRetryExhaustion(t *testing.T) {
	const retries = 2
	spec := &dist.Spec{Plan: shortE3(), Runs: 12, MasterSeed: 7, Shards: 3, Mode: core.ModeDistribution}
	dir := t.TempDir()
	res, err := Run(context.Background(), Config{
		Spec: spec, Dir: dir, Retries: retries,
		Launcher: brokenLauncher{target: 2}, Poll: 2 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("fan-out with a permanently broken shard reported success")
	}
	if !strings.Contains(err.Error(), "shard 2") {
		t.Fatalf("error does not name the failed shard: %v", err)
	}
	if res == nil || res.Manifest == nil {
		t.Fatal("no manifest returned on failure")
	}

	// fanout.json must exist on disk and agree with the returned copy.
	m, merr := ReadManifest(filepath.Join(dir, ManifestFileName))
	if merr != nil {
		t.Fatal(merr)
	}
	if m.Completed {
		t.Fatal("failed fan-out marked completed")
	}
	broken := m.Workers[2]
	if broken.State != StateFailed {
		t.Fatalf("broken shard state %s, want failed", broken.State)
	}
	if len(broken.Attempts) != retries+1 {
		t.Fatalf("broken shard has %d attempts, want %d", len(broken.Attempts), retries+1)
	}
	for _, att := range broken.Attempts {
		if att.Outcome != "crashed" || !strings.Contains(att.Detail, "simulated worker crash") {
			t.Fatalf("untruthful attempt record: %+v", att)
		}
	}
	for _, w := range m.Workers[:2] {
		if w.State != StateCompleted && w.State != StateAborted {
			t.Fatalf("sibling shard %d state %s, want completed or aborted", w.Shard, w.State)
		}
	}
}

// hangOnceLauncher wedges the target shard's first worker: it writes
// nothing and never exits until killed — the stall watchdog's case.
type hangOnceLauncher struct {
	target int
	mu     sync.Mutex
	hung   bool
}

type hangWorker struct {
	once sync.Once
	done chan struct{}
}

func (w *hangWorker) Wait() error {
	<-w.done
	return fmt.Errorf("killed while hung")
}
func (w *hangWorker) Kill()            { w.once.Do(func() { close(w.done) }) }
func (w *hangWorker) Describe() string { return "hung-worker" }

func (l *hangOnceLauncher) Start(ctx context.Context, req StartRequest) (Worker, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if req.Index == l.target && !l.hung {
		l.hung = true
		return &hangWorker{done: make(chan struct{})}, nil
	}
	return InProcess{}.Start(ctx, req)
}

// TestFanoutStallWatchdog: a wedged worker (alive, no artefact
// progress) is killed after StallTimeout and its shard restarted.
func TestFanoutStallWatchdog(t *testing.T) {
	spec := &dist.Spec{Plan: shortE3(), Runs: 9, MasterSeed: 5, Shards: 3, Mode: core.ModeDistribution}
	// The stall window must sit far above one run's wall-clock cost
	// (which the race detector inflates ~10x), or the watchdog would
	// kill healthy workers between record writes.
	res, err := Run(context.Background(), Config{
		Spec: spec, Dir: t.TempDir(), Retries: 1,
		Launcher: &hangOnceLauncher{target: 0},
		Poll:     5 * time.Millisecond, StallTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Manifest.Workers[0]
	if len(st.Attempts) != 2 || st.Attempts[0].Outcome != "stalled" {
		t.Fatalf("stalled shard attempts = %+v, want stalled + completed", st.Attempts)
	}
	if st.State != StateCompleted {
		t.Fatalf("stalled shard final state %s, want completed", st.State)
	}
}

// TestFanoutResumeSkipsCompleted: rerunning a finished fan-out executes
// nothing — every shard is recognised complete and the merge result is
// identical.
func TestFanoutResumeSkipsCompleted(t *testing.T) {
	spec := &dist.Spec{Plan: shortE3(), Runs: 9, MasterSeed: 3, Shards: 3, Mode: core.ModeDistribution}
	dir := t.TempDir()
	first, err := Run(context.Background(), Config{Spec: spec, Dir: dir, Poll: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	again, err := Run(context.Background(), Config{Spec: spec, Dir: dir, Poll: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range again.Manifest.Workers {
		if w.State != StateSkipped {
			t.Fatalf("shard %d state %s on resume, want skipped", w.Shard, w.State)
		}
	}
	if again.Merged.Total() != first.Merged.Total() {
		t.Fatalf("resume total %d, first %d", again.Merged.Total(), first.Merged.Total())
	}
	for _, o := range core.AllOutcomes() {
		if again.Merged.Count(o) != first.Merged.Count(o) {
			t.Fatalf("resume count(%v) = %d, first %d", o, again.Merged.Count(o), first.Merged.Count(o))
		}
	}

	// A different campaign must not be supervised over the same dir.
	other := &dist.Spec{Plan: shortE3(), Runs: 9, MasterSeed: 4, Shards: 3, Mode: core.ModeDistribution}
	if _, err := Run(context.Background(), Config{Spec: other, Dir: dir}); err == nil ||
		!strings.Contains(err.Error(), "different campaign") {
		t.Fatalf("foreign campaign over an existing dir: %v", err)
	}
}

// TestFanoutGzipArtefacts: the supervised path with compressed shard
// artefacts still reproduces the serial campaign bit-for-bit. (A gzip
// tail is not line-countable, so the kill-mid-shard coverage for
// compressed artefacts lives at the dist layer: torn gzip remnants
// parse as incomplete and are rerun.)
func TestFanoutGzipArtefacts(t *testing.T) {
	const runs, seed = 12, uint64(2022)
	plan := shortE3()
	serial, hashes := serialReference(t, plan, runs, seed)

	spec := &dist.Spec{Plan: plan, Runs: runs, MasterSeed: seed, Shards: 3, Mode: core.ModeDistribution}
	res, err := Run(context.Background(), Config{
		Spec: spec, Dir: t.TempDir(), Gzip: true, Poll: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	requireMatchesSerial(t, res, serial, hashes)
	for _, sf := range res.Shards {
		if !strings.HasSuffix(sf.Path, ".jsonl.gz") {
			t.Fatalf("artefact %s is not gzip-suffixed", sf.Path)
		}
	}
}
