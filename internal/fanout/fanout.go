// Package fanout turns the distributed campaign building blocks into a
// one-command system: a supervisor that plans the shard windows of a
// dist.Spec, launches one worker per shard (bounded by Parallel),
// watches each worker's liveness through its streaming JSONL artefact,
// restarts crashed or stalled shards within a bounded retry budget, and
// folds the finished shard files through dist.Merge into the single
// verified campaign aggregate — bit-identical to the serial campaign,
// by the dist subsystem's seed-window construction.
//
// Crash recovery costs nothing extra: workers are dist.ExecuteShard
// under the hood, so a restarted shard skips a completed artefact and
// re-executes a torn one. Killing the supervisor itself loses no
// evidence either — rerunning the same fan-out resumes from whatever
// shard files the previous life left behind.
//
// Every fan-out writes a machine-readable fanout.json manifest next to
// the shard artefacts: per-shard state, every attempt with its worker
// identity and outcome, and whether the campaign completed. The
// manifest is truthful by construction — attempt outcomes are judged by
// re-reading the artefact, never by trusting a worker's exit status.
package fanout

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/dessertlab/certify/internal/core"
	"github.com/dessertlab/certify/internal/dist"
)

// State is a shard's position in the supervision lifecycle.
type State string

// Shard states, as recorded in fanout.json and progress snapshots.
const (
	StatePending   State = "pending"   // not yet launched
	StateRunning   State = "running"   // a worker is executing it
	StateCompleted State = "completed" // artefact verified complete this fan-out
	StateSkipped   State = "skipped"   // artefact was already complete (resume)
	StateFailed    State = "failed"    // retry budget exhausted
	StateAborted   State = "aborted"   // stopped because another shard failed
)

// SpecFileName is the serialized campaign spec the supervisor publishes
// in the campaign directory for re-exec workers (and for humans).
const SpecFileName = "spec.json"

// ManifestFileName is the fan-out status manifest.
const ManifestFileName = "fanout.json"

// Config describes one supervised fan-out.
type Config struct {
	// Spec is the campaign to execute.
	Spec *dist.Spec
	// Dir is the campaign directory: shard artefacts, spec.json and
	// fanout.json all live here.
	Dir string
	// Parallel bounds concurrently running workers; 0 = min(shards,
	// GOMAXPROCS).
	Parallel int
	// Retries is the per-shard restart budget beyond the first attempt.
	Retries int
	// Launcher starts shard workers; nil = InProcess{}.
	Launcher Launcher
	// Gzip selects compressed shard artefacts (shard-NN.jsonl.gz).
	Gzip bool
	// Poll is the artefact tail cadence; 0 = 200ms.
	Poll time.Duration
	// StallTimeout kills a worker whose artefact has not grown for this
	// long and counts the attempt as stalled; 0 disables the watchdog.
	StallTimeout time.Duration
	// OnProgress, when non-nil, receives a snapshot every poll tick and
	// at every shard state change. Deliveries are serialised (never two
	// calls at once), but they originate from supervisor-internal
	// goroutines — keep the callback fast and do not call back into the
	// supervisor from it.
	OnProgress func(Snapshot)
}

// Snapshot is a point-in-time view of the fan-out for progress display.
type Snapshot struct {
	RunsDone  int // run records observed across all shards
	RunsTotal int
	Shards    []ShardSnapshot // ordered by shard index
}

// ShardSnapshot is one shard's progress entry.
type ShardSnapshot struct {
	Index   int
	State   State
	Runs    int // run records observed (window size once finished)
	Window  int // runs this shard owns
	Attempt int // 1-based attempt number (0 before the first launch)
}

// Attempt records one worker launch in the manifest.
type Attempt struct {
	Worker  string `json:"worker"`           // launcher's description (pid, in-process)
	Outcome string `json:"outcome"`          // completed|skipped|crashed|stalled|aborted|launch-failed
	Detail  string `json:"detail,omitempty"` // exit / launch error text
	Runs    int    `json:"runs"`             // run records in the artefact when the attempt ended
	// ElapsedSeconds is the attempt's wall time, launch to judgement.
	// Zero for resume skips (no worker ran).
	ElapsedSeconds float64 `json:"elapsed_seconds,omitempty"`
}

// Timing is the fan-out's wall-clock summary in fanout.json: when
// supervision started and finished, and the end-to-end throughput the
// campaign achieved (resumed-and-skipped runs included in the count, so
// a pure resume reports a very high rate — read it next to the
// per-shard attempts).
type Timing struct {
	Started        string  `json:"started"`         // RFC3339Nano, supervisor start
	Finished       string  `json:"finished"`        // RFC3339Nano, manifest write
	ElapsedSeconds float64 `json:"elapsed_seconds"` // finished - started
	RunsPerSec     float64 `json:"runs_per_sec,omitempty"`
}

// ShardStatus is one shard's manifest entry.
type ShardStatus struct {
	Shard    int       `json:"shard"`
	Path     string    `json:"path"`
	Start    int       `json:"start"`
	End      int       `json:"end"`
	State    State     `json:"state"`
	Records  int       `json:"records"`
	Attempts []Attempt `json:"attempts,omitempty"`
}

// Manifest is the fanout.json document: the campaign identity plus the
// full supervision history.
type Manifest struct {
	Plan       string `json:"plan"`
	PlanHash   string `json:"plan_hash"`
	MasterSeed string `json:"master_seed"`
	Runs       int    `json:"runs"`
	Shards     int    `json:"shards"`
	Mode       string `json:"mode"`
	Parallel   int    `json:"parallel"`
	Retries    int    `json:"retries"`
	Completed  bool   `json:"completed"`
	// MasterIndex names the campaign-level index document composed from
	// the shard footers after the merge (relative to the campaign
	// directory); empty until the fan-out completes.
	MasterIndex string `json:"master_index,omitempty"`
	// Timing is the fan-out's wall-clock summary (nil in manifests
	// written by pre-flight-recorder supervisors).
	Timing  *Timing       `json:"timing,omitempty"`
	Workers []ShardStatus `json:"workers"`
}

// Result is a completed fan-out: the merged campaign aggregate, the
// parsed shard artefacts (trace hashes included), the manifest as
// written to fanout.json, and the master index composed from the shard
// artefacts' footers (the entry point for `certify inspect`).
type Result struct {
	Merged          *core.CampaignResult
	Shards          []*dist.ShardFile
	Manifest        *Manifest
	ManifestPath    string
	MasterIndex     *dist.MasterIndex
	MasterIndexPath string
}

// shardState is the supervisor's mutable per-shard bookkeeping.
type shardState struct {
	shard    dist.Shard
	path     string
	state    State
	runs     int
	attempt  int
	attempts []Attempt
}

// supervisor holds the shared state of one Run.
type supervisor struct {
	cfg             Config
	workersPerShard int       // campaign parallelism handed to each worker
	started         time.Time // wall-clock start, for the manifest timing summary
	mu              sync.Mutex
	shards          []*shardState
	cancel          context.CancelFunc // aborts the whole fan-out
	failed          error              // first permanent failure
	progressMu      sync.Mutex         // serialises OnProgress deliveries
}

// stampTiming (re)computes the manifest's wall-clock summary as of now.
// Called at every manifest write so the final (post-merge) fanout.json
// covers the merge and master-index composition too.
func (s *supervisor) stampTiming(m *Manifest) {
	now := time.Now()
	elapsed := now.Sub(s.started).Seconds()
	t := &Timing{
		Started:        s.started.Format(time.RFC3339Nano),
		Finished:       now.Format(time.RFC3339Nano),
		ElapsedSeconds: elapsed,
	}
	if elapsed > 0 {
		done := 0
		s.mu.Lock()
		for _, st := range s.shards {
			if st.state == StateCompleted || st.state == StateSkipped {
				done += st.runs
			}
		}
		s.mu.Unlock()
		t.RunsPerSec = float64(done) / elapsed
	}
	m.Timing = t
}

// ArtefactPath returns the shard artefact path the supervisor uses for
// shard index i of a fan-out rooted at dir.
func ArtefactPath(dir string, i int, gzip bool) string {
	name := fmt.Sprintf("shard-%02d.jsonl", i)
	if gzip {
		name += ".gz"
	}
	return filepath.Join(dir, name)
}

// Run executes the fan-out to completion (or permanent failure). The
// manifest is written in every case, including cancellation — fanout.json
// always tells the truth about what happened. On success the merged
// aggregate is returned; on failure the error names the first shard
// whose retry budget ran out.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Spec == nil {
		return nil, fmt.Errorf("fanout: no campaign spec")
	}
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("fanout: no campaign directory")
	}
	if cfg.Retries < 0 {
		return nil, fmt.Errorf("fanout: negative retry budget %d", cfg.Retries)
	}
	if cfg.Launcher == nil {
		// Default in-process workers share one warm-machine pool: every
		// shard after the first mostly rewinds machines (and reuses the
		// golden checkpoints) the earlier shards booted and recorded.
		cfg.Launcher = InProcess{Pool: core.NewMachinePool()}
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 200 * time.Millisecond
	}
	if cfg.Parallel <= 0 {
		cfg.Parallel = cfg.Spec.Shards
		if p := runtime.GOMAXPROCS(0); p < cfg.Parallel {
			cfg.Parallel = p
		}
	}

	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	specPath := filepath.Join(cfg.Dir, SpecFileName)
	if err := publishSpec(specPath, cfg.Spec); err != nil {
		return nil, err
	}

	windows, err := cfg.Spec.AllShards()
	if err != nil {
		return nil, err
	}
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	s := &supervisor{cfg: cfg, cancel: cancel, started: time.Now()}
	// Split the machine between concurrent workers: each shard worker
	// runs its campaign with a fair share of the cores instead of
	// Parallel × GOMAXPROCS oversubscription.
	if s.workersPerShard = runtime.GOMAXPROCS(0) / cfg.Parallel; s.workersPerShard < 1 {
		s.workersPerShard = 1
	}
	for _, sh := range windows {
		s.shards = append(s.shards, &shardState{
			shard: sh,
			path:  ArtefactPath(cfg.Dir, sh.Index, cfg.Gzip),
			state: StatePending,
		})
	}

	// Resume pre-scan: artefacts that are already complete are skipped
	// without spending a worker slot; artefacts of a different campaign
	// abort before anything launches.
	for _, st := range s.shards {
		sf, err := dist.ReadShard(st.path)
		switch {
		case err != nil:
			// Missing, torn or unreadable: the worker (ExecuteShard)
			// decides; a genuinely foreign file fails the first attempt
			// with a permanent refusal below.
		case sf.Complete && sf.Manifest.MatchesShard(st.shard):
			st.state = StateSkipped
			st.runs = sf.Records
			st.attempts = append(st.attempts, Attempt{
				Worker: "resume", Outcome: "skipped", Runs: sf.Records,
			})
		case !sf.Manifest.SameCampaignAs(st.shard):
			return nil, fmt.Errorf("fanout: %s belongs to a different campaign — refusing to supervise over it: %w", st.path, dist.ErrCampaignMismatch)
		}
	}
	s.emitProgress()

	// One goroutine per shard, gated by a slot semaphore.
	slots := make(chan struct{}, cfg.Parallel)
	var wg sync.WaitGroup
	for _, st := range s.shards {
		if st.state == StateSkipped {
			continue
		}
		st := st
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.superviseShard(ctx, st, specPath, slots)
		}()
	}

	// Progress ticker: one snapshot per poll interval while work runs.
	tickerDone := make(chan struct{})
	go func() {
		defer close(tickerDone)
		t := time.NewTicker(cfg.Poll)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				s.emitProgress()
			}
		}
	}()

	wg.Wait()
	cancel()
	<-tickerDone
	s.emitProgress()

	manifest := s.buildManifest()
	s.stampTiming(manifest)
	manifestPath := filepath.Join(cfg.Dir, ManifestFileName)
	if err := writeManifest(manifestPath, manifest); err != nil {
		return nil, err
	}

	s.mu.Lock()
	failure := s.failed
	s.mu.Unlock()
	if failure != nil {
		return &Result{Manifest: manifest, ManifestPath: manifestPath}, failure
	}
	if err := parent.Err(); err != nil {
		return &Result{Manifest: manifest, ManifestPath: manifestPath},
			fmt.Errorf("fanout: cancelled before completion: %w", err)
	}

	paths := make([]string, len(s.shards))
	for i, st := range s.shards {
		paths[i] = st.path
	}
	merged, shardFiles, err := dist.Merge(paths)
	if err != nil {
		return &Result{Manifest: manifest, ManifestPath: manifestPath},
			fmt.Errorf("fanout: post-completion merge: %w", err)
	}
	// Compose the shard footers into the campaign-level master index —
	// the random-access entry point `certify inspect` opens. Every
	// worker wrote its footer via dist.CreateJSONL; shards that somehow
	// lost theirs still compose (the dossier layer falls back to a scan
	// and the master index records Indexed=false for them).
	masterPath := filepath.Join(cfg.Dir, dist.MasterIndexFileName)
	master, err := dist.WriteMasterIndexFile(masterPath, paths)
	if err != nil {
		return &Result{Manifest: manifest, ManifestPath: manifestPath},
			fmt.Errorf("fanout: master index: %w", err)
	}
	manifest.Completed = true
	manifest.MasterIndex = dist.MasterIndexFileName
	s.stampTiming(manifest)
	if err := writeManifest(manifestPath, manifest); err != nil {
		return nil, err
	}
	return &Result{
		Merged: merged, Shards: shardFiles,
		Manifest: manifest, ManifestPath: manifestPath,
		MasterIndex: master, MasterIndexPath: masterPath,
	}, nil
}

// superviseShard drives one shard through its attempt loop.
func (s *supervisor) superviseShard(ctx context.Context, st *shardState, specPath string, slots chan struct{}) {
	for {
		select {
		case <-ctx.Done():
			s.markAborted(st)
			return
		case slots <- struct{}{}:
		}
		outcome := s.runAttempt(ctx, st, specPath)
		<-slots
		switch outcome {
		case attemptDone:
			return
		case attemptAbort:
			s.markAborted(st)
			return
		case attemptRetry:
			s.mu.Lock()
			spent := len(st.attempts) - 1 // first attempt is free
			s.mu.Unlock()
			if spent >= s.cfg.Retries {
				s.failShard(st, fmt.Errorf(
					"fanout: shard %d failed %d attempt(s) (retry budget %d) — last: %s",
					st.shard.Index, spent+1, s.cfg.Retries, lastDetail(st)))
				return
			}
			metRestarts.Inc()
			// loop: next attempt
		}
	}
}

type attemptOutcome int

const (
	attemptDone attemptOutcome = iota
	attemptRetry
	attemptAbort
)

// runAttempt launches one worker, monitors it, and judges the result by
// the artefact it leaves behind.
func (s *supervisor) runAttempt(ctx context.Context, st *shardState, specPath string) attemptOutcome {
	if ctx.Err() != nil {
		return attemptAbort
	}
	attStart := time.Now()
	s.mu.Lock()
	st.state = StateRunning
	st.attempt++
	s.mu.Unlock()
	s.emitProgress()

	req := StartRequest{
		Spec:     s.cfg.Spec,
		SpecPath: specPath,
		Index:    st.shard.Index,
		OutPath:  st.path,
		Workers:  s.workersPerShard,
	}
	w, err := s.cfg.Launcher.Start(ctx, req)
	if err != nil {
		metLaunchFailures.Inc()
		s.recordAttempt(st, Attempt{
			Worker: "unlaunched", Outcome: "launch-failed", Detail: err.Error(),
			ElapsedSeconds: time.Since(attStart).Seconds(),
		})
		return attemptRetry
	}

	// Monitor: tail the artefact for per-run progress and stall
	// detection until the worker exits.
	waitCh := make(chan error, 1)
	go func() { waitCh <- w.Wait() }()
	tail := dist.NewTail(st.path)
	var (
		waitErr    error
		stalled    bool
		lastChange = time.Now()
		lastBytes  = int64(-1)
		lastRuns   = -1
		ticker     = time.NewTicker(s.cfg.Poll)
	)
	defer ticker.Stop()
monitor:
	for {
		select {
		case waitErr = <-waitCh:
			break monitor
		case <-ctx.Done():
			w.Kill()
			waitErr = <-waitCh
			break monitor
		case <-ticker.C:
			p, perr := tail.Poll()
			if perr != nil {
				continue // transient stat/read race with the worker
			}
			if p.Countable {
				s.mu.Lock()
				st.runs = p.Runs
				s.mu.Unlock()
			}
			if p.Bytes != lastBytes || p.Runs != lastRuns {
				lastBytes, lastRuns = p.Bytes, p.Runs
				lastChange = time.Now()
			} else if s.cfg.StallTimeout > 0 && time.Since(lastChange) > s.cfg.StallTimeout {
				stalled = true
				w.Kill()
				waitErr = <-waitCh
				break monitor
			}
		}
	}

	// Judge by the artefact, not the exit status.
	att := Attempt{Worker: w.Describe(), ElapsedSeconds: time.Since(attStart).Seconds()}
	sf, rerr := dist.ReadShard(st.path)
	complete := rerr == nil && sf.Complete && sf.Manifest.MatchesShard(st.shard)
	if rerr == nil && !sf.Manifest.SameCampaignAs(st.shard) {
		// A foreign artefact appeared under our path: unrecoverable
		// operator error, retrying would refuse forever.
		metCrashes.Inc()
		s.recordAttempt(st, Attempt{
			Worker: att.Worker, Outcome: "crashed",
			Detail:         fmt.Sprintf("artefact %s belongs to a different campaign", st.path),
			ElapsedSeconds: att.ElapsedSeconds,
		})
		s.failShard(st, fmt.Errorf("fanout: %s belongs to a different campaign: %w", st.path, dist.ErrCampaignMismatch))
		return attemptDone
	}
	if rerr == nil {
		att.Runs = sf.Records
	}
	switch {
	case complete:
		att.Outcome = "completed"
		metShardsCompleted.Inc()
		s.mu.Lock()
		st.state = StateCompleted
		st.runs = sf.Records
		st.attempts = append(st.attempts, att)
		s.mu.Unlock()
		s.emitProgress()
		return attemptDone
	case ctx.Err() != nil && !stalled:
		att.Outcome = "aborted"
		att.Detail = detailFrom(waitErr, rerr)
		s.recordAttempt(st, att)
		return attemptAbort
	case stalled:
		att.Outcome = "stalled"
		att.Detail = fmt.Sprintf("no artefact progress for %v; killed", s.cfg.StallTimeout)
		metStalls.Inc()
		s.recordAttempt(st, att)
		return attemptRetry
	default:
		att.Outcome = "crashed"
		att.Detail = detailFrom(waitErr, rerr)
		metCrashes.Inc()
		s.recordAttempt(st, att)
		return attemptRetry
	}
}

// detailFrom compresses the attempt's wait/read errors into one line.
func detailFrom(waitErr, readErr error) string {
	switch {
	case waitErr != nil && readErr != nil:
		return fmt.Sprintf("%v; artefact: %v", waitErr, readErr)
	case waitErr != nil:
		return waitErr.Error()
	case readErr != nil:
		return fmt.Sprintf("exited cleanly but artefact incomplete: %v", readErr)
	default:
		return "exited cleanly but artefact incomplete"
	}
}

func lastDetail(st *shardState) string {
	if len(st.attempts) == 0 {
		return "no attempts recorded"
	}
	last := st.attempts[len(st.attempts)-1]
	if last.Detail == "" {
		return last.Outcome
	}
	return fmt.Sprintf("%s (%s)", last.Outcome, last.Detail)
}

func (s *supervisor) recordAttempt(st *shardState, att Attempt) {
	s.mu.Lock()
	st.attempts = append(st.attempts, att)
	s.mu.Unlock()
}

// failShard marks a permanent failure and aborts the whole fan-out: a
// campaign with a dead shard can never merge, so the other workers'
// remaining work would be wasted (their finished artefacts survive for
// the next resume either way).
func (s *supervisor) failShard(st *shardState, err error) {
	s.mu.Lock()
	st.state = StateFailed
	if s.failed == nil {
		s.failed = err
	}
	s.mu.Unlock()
	s.cancel()
	s.emitProgress()
}

func (s *supervisor) markAborted(st *shardState) {
	s.mu.Lock()
	if st.state == StateRunning || st.state == StatePending {
		st.state = StateAborted
	}
	s.mu.Unlock()
}

// emitProgress delivers a snapshot to the configured observer. Ticks
// and state changes race to call this from different goroutines; the
// progress mutex keeps deliveries one at a time so the callback never
// needs its own locking.
func (s *supervisor) emitProgress() {
	if s.cfg.OnProgress == nil {
		return
	}
	// Snapshot under the delivery lock so observers see monotonic
	// progress (lock order: progressMu, then mu inside snapshot).
	s.progressMu.Lock()
	defer s.progressMu.Unlock()
	s.cfg.OnProgress(s.snapshot())
}

func (s *supervisor) snapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := Snapshot{RunsTotal: s.cfg.Spec.Runs}
	for _, st := range s.shards {
		snap.RunsDone += st.runs
		snap.Shards = append(snap.Shards, ShardSnapshot{
			Index: st.shard.Index, State: st.state,
			Runs: st.runs, Window: st.shard.Runs(), Attempt: st.attempt,
		})
	}
	sort.Slice(snap.Shards, func(i, j int) bool { return snap.Shards[i].Index < snap.Shards[j].Index })
	return snap
}

func (s *supervisor) buildManifest() *Manifest {
	s.mu.Lock()
	defer s.mu.Unlock()
	spec := s.cfg.Spec
	m := &Manifest{
		Plan:       spec.Plan.Name,
		PlanHash:   fmt.Sprintf("%#x", spec.Plan.Hash()),
		MasterSeed: fmt.Sprintf("%#x", spec.MasterSeed),
		Runs:       spec.Runs,
		Shards:     spec.Shards,
		Mode:       spec.Mode.String(),
		Parallel:   s.cfg.Parallel,
		Retries:    s.cfg.Retries,
	}
	for _, st := range s.shards {
		m.Workers = append(m.Workers, ShardStatus{
			Shard: st.shard.Index, Path: st.path,
			Start: st.shard.Start, End: st.shard.End,
			State: st.state, Records: st.runs,
			Attempts: append([]Attempt(nil), st.attempts...),
		})
	}
	return m
}

// publishSpec writes spec.json, refusing to replace the spec of a
// different campaign — two fan-outs must not share a directory.
func publishSpec(path string, spec *dist.Spec) error {
	if prev, err := dist.ReadSpecFile(path); err == nil {
		if !spec.SameCampaign(prev) {
			return fmt.Errorf("fanout: %s already describes a different campaign — use a fresh -dir: %w", path, dist.ErrCampaignMismatch)
		}
		return nil // identical spec already published (resume)
	} else if !os.IsNotExist(err) {
		// Unreadable spec remnant: rewrite it below.
		_ = os.Remove(path)
	}
	return dist.WriteSpecFile(path, spec)
}

// writeManifest publishes fanout.json atomically.
func writeManifest(path string, m *Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// ReadManifest loads a fanout.json.
func ReadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("fanout: %s: %w", path, err)
	}
	return &m, nil
}
