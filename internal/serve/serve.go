// Package serve is certify-as-a-service: a long-running campaign server
// that accepts fault-injection campaign specs over HTTP/JSON, executes
// them through the dist pipeline on a shared warm machine pool, and
// serves results. Three layers sit on top of the existing engine:
//
//   - a multi-tenant job queue with per-tenant round-robin fairness and
//     a bounded number of concurrent execution slots (fairQueue);
//   - a content-addressed result cache keyed by plan hash, master seed,
//     run count and retention mode, whose entries are ordinary shard
//     artefacts verified with merge-grade manifest checks before reuse
//     (cache) — a repeated identical request is served from the store,
//     canonically byte-identical to a fresh execution;
//   - live streaming: a job's run records can be tailed while the
//     campaign executes (dist.Tail → NDJSON/SSE events) and individual
//     run records served by global index (dist.OpenDossier).
//
// Determinism is what makes the cache sound: the engine guarantees the
// same plan hash and seed chain reproduce every run bit for bit, so a
// verified artefact under the same content address is the result, not
// an approximation of it.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dessertlab/certify/internal/core"
	"github.com/dessertlab/certify/internal/dist"
	"github.com/dessertlab/certify/internal/sim"
)

// Config parameterises a Server.
type Config struct {
	// DataDir is the server's state root; the result cache lives in
	// DataDir/cache. Required.
	DataDir string
	// Slots bounds concurrently executing campaigns (default 2).
	Slots int
	// WorkersPerJob is the campaign parallelism inside one job; 0
	// divides GOMAXPROCS evenly across the slots (at least 1 each).
	WorkersPerJob int
	// Pool is the shared warm machine pool; nil creates a fresh one.
	Pool *core.MachinePool
	// Poll is the artefact tail cadence of event streams (default 50ms).
	Poll time.Duration
	// MaxRuns caps a single request's campaign size (default 100000).
	MaxRuns int
	// SkipGoldenCheck skips the startup golden-run fingerprint (tests
	// that never look at /healthz shave the ~fault-free-minute it costs).
	SkipGoldenCheck bool
	// Logger receives structured job-lifecycle logs (tenant, job, state,
	// durations). Nil discards them.
	Logger *slog.Logger
}

// Server owns the queue, the cache, the warm pool and the job table.
// Construct with New, serve its Handler, stop with Shutdown.
type Server struct {
	cfg     Config
	cache   *cache
	q       *fairQueue
	pool    *core.MachinePool
	golden  uint64 // startup golden-run trace hash (0 when skipped)
	log     *slog.Logger
	started time.Time

	baseCtx context.Context
	stop    context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // job ids in submission order, for listings
	jobSeq   int
	startSeq int
	keyBusy  map[string]chan struct{}

	slots chan struct{}
	wg    sync.WaitGroup

	// Flight-recorder aggregates for /healthz, kept per-server (the obs
	// registry is process-global, so two servers in one process would
	// otherwise blend their numbers).
	slotsBusy   atomic.Int64
	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64
	waitSumNS   atomic.Int64
	waitCount   atomic.Int64
}

// New builds a Server, runs the startup golden self-check and starts
// the dispatcher. The golden trace hash it computes is exposed on
// /healthz so clients can verify the serving engine replays the
// certified golden trace before trusting cached results.
func New(cfg Config) (*Server, error) {
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("serve: Config.DataDir is required")
	}
	if cfg.Slots <= 0 {
		cfg.Slots = 2
	}
	if cfg.WorkersPerJob <= 0 {
		cfg.WorkersPerJob = max(1, runtime.GOMAXPROCS(0)/cfg.Slots)
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 50 * time.Millisecond
	}
	if cfg.MaxRuns <= 0 {
		cfg.MaxRuns = 100000
	}
	c, err := newCache(filepath.Join(cfg.DataDir, "cache"))
	if err != nil {
		return nil, err
	}
	pool := cfg.Pool
	if pool == nil {
		pool = core.NewMachinePool()
	}
	var golden uint64
	if !cfg.SkipGoldenCheck {
		// A fault-free golden run's trace hash is seed-independent (the
		// injector never fires), so any seed fingerprints the engine.
		gp, err := core.GoldenRun(2022, sim.Minute)
		if err != nil {
			return nil, fmt.Errorf("serve: startup golden self-check: %w", err)
		}
		golden = gp.TraceHash
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		cache:   c,
		q:       newFairQueue(),
		pool:    pool,
		golden:  golden,
		log:     logger,
		started: time.Now(),
		baseCtx: ctx,
		stop:    cancel,
		jobs:    make(map[string]*Job),
		keyBusy: make(map[string]chan struct{}),
		slots:   make(chan struct{}, cfg.Slots),
	}
	s.log.Info("server started",
		"slots", cfg.Slots, "workers_per_job", cfg.WorkersPerJob,
		"golden_trace_hash", fmt.Sprintf("%#x", golden))
	s.wg.Add(1)
	go s.dispatch()
	return s, nil
}

// GoldenTraceHash returns the startup self-check fingerprint (0 when
// the check was skipped).
func (s *Server) GoldenTraceHash() uint64 { return s.golden }

// Shutdown cancels every running job, discards the queue (marking the
// queued jobs cancelled) and waits for the dispatcher and executors to
// drain, up to ctx's deadline. The drain is logged — queued jobs
// discarded, in-flight jobs at the moment of the stop, and whether the
// drain completed or was cut by the deadline — so an operator reading
// the log can tell a clean drain from a cut.
func (s *Server) Shutdown(ctx context.Context) error {
	inflight := int(s.slotsBusy.Load())
	s.stop()
	queued := s.q.drain()
	for _, j := range queued {
		j.requestCancel()
	}
	s.log.Info("shutdown: draining",
		"queued_discarded", len(queued), "in_flight", inflight)
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.log.Info("shutdown: drain complete", "uptime", time.Since(s.started).String())
		return nil
	case <-ctx.Done():
		s.log.Warn("shutdown: drain cut by deadline",
			"still_in_flight", s.slotsBusy.Load(), "err", ctx.Err())
		return ctx.Err()
	}
}

// Submit validates the request into a job and either answers it from
// the cache on the spot (the job is born completed, Cached=true) or
// enqueues it for execution.
func (s *Server) Submit(req *SubmitRequest) (*Job, error) {
	spec, err := s.buildSpec(req)
	if err != nil {
		return nil, err
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = "anonymous"
	}
	key := cacheKey(spec)

	s.mu.Lock()
	s.jobSeq++
	id := fmt.Sprintf("job-%06d", s.jobSeq)
	j := newJob(id, tenant, key, spec, s.baseCtx)
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.mu.Unlock()

	// Synchronous cache probe: a verified hit never touches the queue.
	if t, ok := s.cache.lookup(spec); ok {
		s.cacheHits.Add(1)
		j.finishCompleted(t, true)
		s.log.Info("job served from cache",
			"job", id, "tenant", tenant, "plan", spec.Plan.Name, "runs", spec.Runs)
		return j, nil
	}
	s.cacheMisses.Add(1)
	s.q.push(j)
	metQueueDepth.Set(int64(s.q.depth()))
	s.log.Info("job queued",
		"job", id, "tenant", tenant, "plan", spec.Plan.Name,
		"runs", spec.Runs, "mode", spec.Mode.String())
	return j, nil
}

// Job returns the job by id.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns every job in submission order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// ArtefactPath returns where the job's shard artefact lives (the
// content-addressed cache entry it executes into or was served from).
func (s *Server) ArtefactPath(j *Job) string { return s.cache.artefactPath(j.key) }

// Health snapshots the server for /healthz.
func (s *Server) Health() Health {
	s.mu.Lock()
	jobs := len(s.jobs)
	running, cached := 0, 0
	for _, j := range s.jobs {
		st, fromCache := j.stateAndCached()
		if st == StateRunning {
			running++
		}
		if fromCache {
			cached++
		}
	}
	s.mu.Unlock()
	h := Health{
		Status:          "ok",
		GoldenTraceHash: fmt.Sprintf("%#x", s.golden),
		UptimeSeconds:   time.Since(s.started).Seconds(),
		Jobs:            jobs,
		Queued:          s.q.depth(),
		Running:         running,
		CachedJobs:      cached,
		Slots:           s.cfg.Slots,
		SlotsBusy:       int(s.slotsBusy.Load()),
		CacheEntries:    s.cache.entries(),
		CacheHits:       s.cacheHits.Load(),
		CacheMisses:     s.cacheMisses.Load(),
	}
	if n := s.waitCount.Load(); n > 0 {
		h.QueueWaitMeanMS = float64(s.waitSumNS.Load()) / float64(n) / 1e6
	}
	return h
}

// dispatch is the admission loop: acquire a free execution slot FIRST,
// then pop the fair queue. Ordering matters — because the round-robin
// choice is made at the moment a slot frees, a job submitted by an idle
// tenant is selected over a flooding tenant's backlog at the very next
// turnaround, which is the fairness bound the tests pin.
func (s *Server) dispatch() {
	defer s.wg.Done()
	for {
		select {
		case s.slots <- struct{}{}:
		case <-s.baseCtx.Done():
			return
		}
		j := s.q.pop(s.baseCtx)
		if j == nil {
			<-s.slots
			return
		}
		metQueueDepth.Set(int64(s.q.depth()))
		s.slotsBusy.Add(1)
		metSlotsBusy.Inc()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				<-s.slots
				s.slotsBusy.Add(-1)
				metSlotsBusy.Dec()
			}()
			s.execute(j)
		}()
	}
}

func (s *Server) nextStartSeq() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.startSeq++
	return s.startSeq
}

// lockKey serialises executions of the same campaign identity: two
// identical requests in flight must not write one artefact
// concurrently — the second waits, then finds the first's result in
// the cache.
func (s *Server) lockKey(key string) func() {
	s.mu.Lock()
	for {
		ch, busy := s.keyBusy[key]
		if !busy {
			break
		}
		s.mu.Unlock()
		<-ch
		s.mu.Lock()
	}
	ch := make(chan struct{})
	s.keyBusy[key] = ch
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		delete(s.keyBusy, key)
		s.mu.Unlock()
		close(ch)
	}
}

// execute runs one admitted job inside an execution slot.
func (s *Server) execute(j *Job) {
	wait := time.Since(j.created)
	if !j.begin(s.nextStartSeq()) {
		return // cancelled between pop and begin
	}
	s.waitSumNS.Add(int64(wait))
	s.waitCount.Add(1)
	s.log.Info("job started",
		"job", j.id, "tenant", j.tenant, "shard", 0, "queue_wait", wait.String())
	execStart := time.Now()
	unlock := s.lockKey(j.key)
	defer unlock()

	if j.ctx.Err() != nil {
		j.finishCancelled()
		s.log.Info("job cancelled", "job", j.id, "tenant", j.tenant)
		return
	}
	// Re-check under the key lock: an identical job that just finished
	// ahead of us already paid for the result.
	if t, ok := s.cache.lookup(j.spec); ok {
		s.cacheHits.Add(1)
		j.finishCompleted(t, true)
		s.log.Info("job served from cache", "job", j.id, "tenant", j.tenant)
		return
	}
	path, err := s.cache.prepare(j.spec)
	if err != nil {
		j.finishFailed(ClassInternal, err)
		s.log.Error("job failed", "job", j.id, "tenant", j.tenant, "err", err)
		return
	}
	res, _, err := dist.ExecuteShardPool(j.ctx, j.spec, 0, s.cfg.WorkersPerJob, path, s.pool)
	switch {
	case err == nil:
		j.finishCompleted(newTally(res), false)
		s.log.Info("job completed",
			"job", j.id, "tenant", j.tenant, "shard", 0,
			"runs", j.spec.Runs, "elapsed", time.Since(execStart).String())
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// The artefact stays behind as a resumable same-campaign
		// remnant; a future identical request resumes or reruns it.
		j.finishCancelled()
		s.log.Info("job cancelled mid-campaign",
			"job", j.id, "tenant", j.tenant, "elapsed", time.Since(execStart).String())
	case errors.Is(err, dist.ErrCampaignMismatch):
		j.finishFailed(ClassMismatch, err)
		s.log.Error("job failed", "job", j.id, "tenant", j.tenant, "class", ClassMismatch, "err", err)
	default:
		j.finishFailed(ClassInternal, err)
		s.log.Error("job failed", "job", j.id, "tenant", j.tenant, "class", ClassInternal, "err", err)
	}
}

// buildSpec validates a submit request into a runnable single-shard
// campaign spec. Every rejection is a *APIError of class "usage".
func (s *Server) buildSpec(req *SubmitRequest) (*dist.Spec, error) {
	usage := func(format string, args ...any) error {
		return &APIError{Status: 400, Class: ClassUsage, Msg: fmt.Sprintf(format, args...)}
	}
	var plan *core.TestPlan
	switch {
	case req.Plan != "" && req.PlanFile != "":
		return nil, usage("give either plan or plan_file, not both")
	case req.Plan != "":
		p, err := core.PlanByName(req.Plan)
		if err != nil {
			return nil, usage("%v", err)
		}
		plan = p
	case req.PlanFile != "":
		p, err := core.ParsePlan(req.PlanFile)
		if err != nil {
			return nil, usage("%v", err)
		}
		plan = p
	default:
		return nil, usage("request names no plan (set plan or plan_file)")
	}
	if req.Fault != "" {
		if !core.FaultModelRegistered(req.Fault) {
			return nil, usage("unknown fault model %q (known: %s)", req.Fault, core.FaultModelNames())
		}
		plan.FaultName = req.Fault
	}
	runs := req.Runs
	if req.MaxRuns != 0 {
		if req.CIWidth <= 0 {
			return nil, usage("max_runs is the adaptive stop's guard and needs ci_width")
		}
		if runs != 0 && runs != req.MaxRuns {
			return nil, usage("give either runs or max_runs, not conflicting values of both")
		}
		runs = req.MaxRuns
	}
	if runs <= 0 {
		return nil, usage("runs must be positive, got %d", runs)
	}
	if runs > s.cfg.MaxRuns {
		return nil, usage("runs %d exceeds this server's limit of %d", runs, s.cfg.MaxRuns)
	}
	mode := core.ModeDistribution
	if req.Mode != "" {
		m, err := core.ParseCampaignMode(req.Mode)
		if err != nil {
			return nil, usage("%v", err)
		}
		mode = m
	}
	spec := &dist.Spec{
		Plan:       plan,
		Runs:       runs,
		MasterSeed: uint64(req.Seed),
		Shards:     1,
		Mode:       mode,
		Stratify:   req.Stratify,
	}
	if req.CIWidth < 0 {
		return nil, usage("ci_width must be non-negative, got %v", req.CIWidth)
	}
	if req.CIWidth > 0 {
		spec.Stop = &core.StopSpec{
			Policy:  core.StopPolicyCIWidth,
			WidthBP: int(math.Round(req.CIWidth * 100)),
			MinRuns: req.MinRuns,
		}
	} else if req.MinRuns != 0 {
		return nil, usage("min_runs needs ci_width")
	}
	if err := spec.Validate(); err != nil {
		return nil, usage("%v", err)
	}
	return spec, nil
}
