package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/dessertlab/certify/internal/analytics"
	"github.com/dessertlab/certify/internal/armv7"
	"github.com/dessertlab/certify/internal/core"
	"github.com/dessertlab/certify/internal/dist"
	"github.com/dessertlab/certify/internal/fanout"
	"github.com/dessertlab/certify/internal/jailhouse"
	"github.com/dessertlab/certify/internal/serve"
	"github.com/dessertlab/certify/internal/sim"
)

// The traced run ledger. It rebuilds each run from the public calls
// core.RunExperimentOpts makes, in the same order — MachinePool.Get,
// NewInjector/ArmWindow/BindMachine, Machine.Run, Classify, Trace.Hash,
// JSONLWriter.OnRun, MachinePool.Put — and records a span around each
// call. After the runs it times the dist read and merge side, the stop
// policy, one real `certify fanout` and one real `certify serve`
// session over the same campaign. Nothing inside the program is
// instrumented; every span is taken here, around a call into a layer.
//
// One deliberate difference from RunExperimentOpts: incremental trace
// hashing stays off, so the hash is computed by Trace.Hash on the
// finished trace and its cost lands in sim.trace_hash instead of being
// folded into Machine.Run. The digest is the same sequential FNV-1a
// fold either way, which the fidelity check confirms run by run.

// span is one timed call into a layer. Spans of one run share its
// global run index as ID; read-side calls get IDs from readIDBase up.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // index of the parent span, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

const readIDBase = 1 << 30

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, id, parent int) int {
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = int64(time.Since(t.t0)) }

// timed records fn as one root span.
func (t *tracer) timed(name string, id int, fn func() error) error {
	s := t.begin(name, id, -1)
	err := fn()
	t.end(s)
	return err
}

// spanStats is the per-name aggregate: calls, total and self time.
type spanStats struct {
	calls       int
	total, self time.Duration
	inRun       bool // a child of a run span
}

// aggregate derives per-name totals and self time: a span's self time
// is its duration minus the part of it its children cover.
func (t *tracer) aggregate() map[string]*spanStats {
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]*spanStats)
	for i, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		d := time.Duration(s.End - s.Start)
		st.calls++
		st.inRun = s.Parent >= 0
		st.total += d
		st.self += d - covered(t.spans, children[i])
	}
	return out
}

// covered is the length of the union of the given spans' intervals.
func covered(spans []span, idx []int) time.Duration {
	iv := make([][2]int64, len(idx))
	for i, j := range idx {
		iv[i] = [2]int64{spans[j].Start, spans[j].End}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var sum, curS, curE int64
	for i, v := range iv {
		if i == 0 || v[0] > curE {
			sum += curE - curS
			curS, curE = v[0], v[1]
		} else if v[1] > curE {
			curE = v[1]
		}
	}
	sum += curE - curS
	return time.Duration(sum)
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// runCounts are the exact simulated counts of one run.
type runCounts struct {
	irqs, traps, hypercalls, cellEvents int
	hookCalls, hookMatches              uint64
	injections, ledToggles, cellLines   int
	events                              uint64
}

func (c *runCounts) add(o runCounts) {
	c.irqs += o.irqs
	c.traps += o.traps
	c.hypercalls += o.hypercalls
	c.cellEvents += o.cellEvents
	c.hookCalls += o.hookCalls
	c.hookMatches += o.hookMatches
	c.injections += o.injections
	c.ledToggles += o.ledToggles
	c.cellLines += o.cellLines
	c.events += o.events
}

// machineOptions mirrors the options RunExperimentOpts derives from a
// plan and retention mode.
func machineOptions(plan *core.TestPlan, seed uint64, mode core.CampaignMode) core.MachineOptions {
	opts := core.MachineOptions{Seed: seed, StateWatchdog: true}
	opts.TraceRecords, opts.TraceArgs = core.TraceBudget(plan)
	if mode == core.ModeDistribution {
		opts.LeanCapture = true
	}
	switch plan.Workload {
	case core.WorkloadManagement:
		opts.RecreateLoop = true
		opts.RecreatePeriod = 5 * sim.Second
	case core.WorkloadDelayedCreate:
		opts.DelayedCreate = true
	}
	return opts
}

// detectionLatency mirrors the runner's first-injection → first
// detection scan over the trace.
func detectionLatency(m *core.Machine, first sim.Time) sim.Time {
	if first < 0 {
		return -1
	}
	latency := sim.Time(-1)
	m.Board.Trace().ScanMeta(func(at sim.Time, kind sim.Kind, _ int) bool {
		switch kind {
		case sim.KindPark, sim.KindPanic, sim.KindHypTrap, sim.KindWedge:
			if at >= first {
				latency = at - first
				return false
			}
		}
		return true
	})
	return latency
}

// ledgerRun executes run idx with a span around every layer call and
// streams its record through jw. observe feeds the stop policy inside
// the run span after the record is written (the ordered-commit
// executor's position for it).
func ledgerRun(tr *tracer, pool *core.MachinePool, plan *core.TestPlan, mode core.CampaignMode,
	seed uint64, idx int, jw *dist.JSONLWriter, observe func(*core.RunResult)) (*core.RunResult, runCounts, error) {
	var c runCounts
	root := tr.begin("run", idx, -1)
	defer tr.end(root)

	s := tr.begin("core.pool_get", idx, root)
	m, err := pool.Get(machineOptions(plan, seed, mode))
	tr.end(s)
	if err != nil {
		return nil, c, err
	}

	s = tr.begin("core.inject_arm", idx, root)
	injSeed := seed
	rng := sim.NewRNG(sim.SplitMix64(&injSeed))
	inj, err := core.NewInjector(plan, core.DefaultProfile(), rng, m.Board.Now)
	if err != nil {
		tr.end(s)
		return nil, c, err
	}
	from := m.Board.Now()
	if plan.Workload == core.WorkloadSteady {
		from += 2 * sim.Second
	}
	inj.ArmWindow(from, m.Board.Now()+plan.EffectiveDuration())
	inj.BindMachine(m)
	// The hook fires once per IRQ: counted, never timed — two clock
	// reads would cost about as much as the call.
	m.HV.Hook = func(point jailhouse.InjectionPoint, cpu int, cell string, ctx *armv7.TrapContext) jailhouse.InjectionResult {
		c.hookCalls++
		return inj.Hook(point, cpu, cell, ctx)
	}
	tr.end(s)

	s = tr.begin("core.machine_run", idx, root)
	m.Run(plan.EffectiveDuration())
	tr.end(s)

	s = tr.begin("core.classify", idx, root)
	verdict := core.Classify(m)
	tr.end(s)

	s = tr.begin("core.assemble", idx, root)
	res := &core.RunResult{
		Plan:             plan.Name,
		Seed:             seed,
		Verdict:          verdict,
		Injections:       inj.Records(),
		CellLines:        m.Board.UART7.LineCount(),
		Horizon:          m.Board.Now(),
		DetectionLatency: detectionLatency(m, inj.FirstInjectionAt()),
	}
	if mode == core.ModeFull {
		res.CallCounts = inj.Calls()
		res.RootTranscript = m.Board.UART0.Transcript()
		res.CellTranscript = m.Board.UART7.Transcript()
		res.HVConsole = append([]string(nil), m.HV.ConsoleLines...)
	}
	if m.RTOS != nil {
		res.LEDToggles = m.RTOS.LEDToggleCount()
	}
	tr.end(s)

	s = tr.begin("sim.trace_hash", idx, root)
	res.TraceHash = m.Board.Trace().Hash()
	tr.end(s)

	s = tr.begin("bench.counts", idx, root)
	var kinds [256]int
	m.Board.Trace().ScanMeta(func(_ sim.Time, kind sim.Kind, _ int) bool {
		kinds[kind]++
		return true
	})
	c.irqs = kinds[sim.KindIRQ]
	c.traps = kinds[sim.KindTrap]
	c.hypercalls = kinds[sim.KindHypercall]
	c.cellEvents = kinds[sim.KindCellEvent]
	c.hookMatches = inj.TotalCalls()
	c.injections = len(res.Injections)
	c.ledToggles = res.LEDToggles
	c.cellLines = res.CellLines
	c.events = m.Board.Engine.Executed()
	tr.end(s)

	s = tr.begin("dist.on_run", idx, root)
	jw.OnRun(idx, res)
	tr.end(s)

	s = tr.begin("analytics.observe", idx, root)
	observe(res)
	tr.end(s)

	s = tr.begin("core.pool_put", idx, root)
	pool.Put(m)
	tr.end(s)
	return res, c, nil
}

// whatIfWidth is the stop-policy target the ledger replays over fixed-N
// campaigns, so the analytics layer is measured on every workload.
const whatIfWidth = 20

// ledgerResult is the traced execution of one campaign.
type ledgerResult struct {
	paths     []string
	committed int
	wall      time.Duration // the run loops, without set-up
	counts    runCounts
	decision  int // runs observed when the (what-if) policy fired
	mem       [2]runtime.MemStats

	coldBuilds, reuses uint64 // MachinePool.Stats after the runs
}

// runLedgerCampaign executes every shard of spec sequentially through
// ledgerRun, writing artefacts into dir.
func runLedgerCampaign(tr *tracer, spec *dist.Spec, dir string) (*ledgerResult, error) {
	seeds := make([]uint64, spec.Runs)
	state := spec.MasterSeed
	for i := range seeds {
		seeds[i] = sim.SplitMix64(&state)
	}
	stopSpec := spec.Stop
	if stopSpec == nil {
		stopSpec = shape{ciWidth: whatIfWidth}.stop()
	}
	policy, err := analytics.NewStopPolicy(stopSpec)
	if err != nil {
		return nil, err
	}
	policy.Reset()
	lr := &ledgerResult{decision: -1}
	pool := core.NewMachinePool()
	runtime.ReadMemStats(&lr.mem[0])
	start := time.Now()
	stopped := false
	for i := 0; i < spec.Shards && !stopped; i++ {
		sh, err := spec.Shard(i)
		if err != nil {
			return nil, err
		}
		path := filepath.Join(dir, fmt.Sprintf("shard-%02d.jsonl", i))
		lr.paths = append(lr.paths, path)
		jw, err := dist.CreateJSONL(path)
		if err != nil {
			return nil, err
		}
		if err := jw.WriteManifest(sh.Manifest()); err != nil {
			return nil, err
		}
		res := &core.CampaignResult{Plan: spec.Plan.Name}
		for idx := sh.Start; idx < sh.End && !stopped; idx++ {
			observe := func(r *core.RunResult) {
				if policy.Observe(idx, r.Outcome()) && lr.decision < 0 {
					lr.decision = idx + 1
					// Only an adaptive campaign stops; a fixed-N one
					// just records where the policy would have.
					stopped = spec.Stop != nil
				}
			}
			r, c, err := ledgerRun(tr, pool, spec.Plan, spec.Mode, seeds[idx], idx, jw, observe)
			if err != nil {
				return nil, fmt.Errorf("ledger run %d: %w", idx, err)
			}
			res.AddSample(r.Outcome(), len(r.Injections), r.DetectionLatency)
			lr.counts.add(c)
			lr.committed++
		}
		err = tr.timed("dist.close", readIDBase, func() error {
			if err := jw.WriteSummary(res); err != nil {
				return err
			}
			return jw.Close()
		})
		if err != nil {
			return nil, err
		}
	}
	lr.wall = time.Since(start)
	runtime.ReadMemStats(&lr.mem[1])
	lr.coldBuilds, lr.reuses = pool.Stats()
	if lr.decision < 0 {
		lr.decision = lr.committed
	}
	return lr, nil
}

// executeSpec runs every shard of spec through the real shard executor
// (dist.ExecuteShardPool, i.e. core.Campaign and RunExperimentOpts)
// untraced, with the given worker count, and returns the artefact
// paths, committed runs and wall time.
func executeSpec(spec *dist.Spec, workers int, dir string) ([]string, int, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, 0, err
	}
	pool := core.NewMachinePool()
	var paths []string
	committed := 0
	start := time.Now()
	for i := 0; i < spec.Shards; i++ {
		path := filepath.Join(dir, fmt.Sprintf("shard-%02d.jsonl", i))
		res, _, err := dist.ExecuteShardPool(context.Background(), spec, i, workers, path, pool)
		if err != nil {
			return nil, 0, 0, err
		}
		paths = append(paths, path)
		committed += res.Total()
	}
	return paths, committed, time.Since(start), nil
}

// runLines reads every run record line of a set of artefacts by index.
func runLines(paths []string) (map[int][]byte, error) {
	out := map[int][]byte{}
	for _, p := range paths {
		d, err := dist.OpenDossier(p)
		if err != nil {
			return nil, err
		}
		for _, en := range d.Entries() {
			line, err := d.RawRun(en.Index)
			if err != nil {
				d.Close()
				return nil, err
			}
			out[en.Index] = append([]byte(nil), line...)
		}
		d.Close()
	}
	return out, nil
}

// compareRuns checks that every run of ref appears in got with the
// same record — outcome and trace hash included — counting each
// compared run as one operation.
func compareRuns(t *tally, what string, ref, got map[int][]byte) {
	if len(got) != len(ref) {
		t.fail("%s: %d runs, reference has %d", what, len(got), len(ref))
	}
	idx := make([]int, 0, len(ref))
	for k := range ref {
		idx = append(idx, k)
	}
	sort.Ints(idx)
	for _, k := range idx {
		g, ok := got[k]
		switch {
		case !ok:
			t.fail("%s: run %d missing", what, k)
		case string(g) != string(ref[k]):
			var a, b dist.RunRecord
			json.Unmarshal(ref[k], &a)
			json.Unmarshal(g, &b)
			t.fail("%s: run %d is %s %s, reference %s %s", what, k, b.Outcome, b.TraceHash, a.Outcome, a.TraceHash)
		default:
			t.ok()
		}
	}
}

// readSide times the dist read path over the ledger's artefacts: what
// a cache hit (ReadShard, WriteCanonical), a run fetch (OpenDossier,
// RawRun) and an artefact download (WriteCanonical) call.
func readSide(tr *tracer, paths []string, rng *chain) error {
	id := readIDBase + 1
	for _, p := range paths {
		for i := 0; i < 5; i++ {
			if err := tr.timed("dist.read_shard", id, func() error { _, err := dist.ReadShard(p); return err }); err != nil {
				return err
			}
			id++
		}
		for i := 0; i < 20; i++ {
			err := tr.timed("dist.open_dossier", id, func() error {
				d, err := dist.OpenDossier(p)
				if err != nil {
					return err
				}
				return d.Close()
			})
			if err != nil {
				return err
			}
			id++
		}
		d, err := dist.OpenDossier(p)
		if err != nil {
			return err
		}
		entries := d.Entries()
		for i := 0; i < 5; i++ {
			if err := tr.timed("dist.canonical", id, func() error { return dist.WriteCanonical(io.Discard, d) }); err != nil {
				d.Close()
				return err
			}
			id++
		}
		for i := 0; i < 100 && len(entries) > 0; i++ {
			k := entries[rng.intn(len(entries))].Index
			if err := tr.timed("dist.raw_run", id, func() error { _, err := d.RawRun(k); return err }); err != nil {
				d.Close()
				return err
			}
			id++
		}
		d.Close()
	}
	return nil
}

// probeFanout runs the same campaign — same spec, so its records are
// byte-comparable with the reference — through one real `certify
// fanout` and derives the supervisor's overhead, shard skew and
// restarts from its fanout.json.
func probeFanout(e *env, sh shape, seed uint64, ref map[int][]byte) (overhead, skew float64, restarts int, err error) {
	r, err := runFanoutOnce(e, sh, seed, filepath.Join(e.work, "probe-fanout"))
	if err != nil {
		return 0, 0, 0, err
	}
	_, paths, err := verifyFanout(sh, r)
	if err != nil {
		return 0, 0, 0, err
	}
	got, err := runLines(paths)
	if err != nil {
		return 0, 0, 0, err
	}
	compareRuns(e.tally, "certify fanout vs untraced reference", ref, got)
	man, err := fanout.ReadManifest(filepath.Join(r.dir, fanout.ManifestFileName))
	if err != nil {
		return 0, 0, 0, err
	}
	if man.Timing == nil {
		return 0, 0, 0, fmt.Errorf("fanout.json carries no timing")
	}
	slowest, fastest := 0.0, 0.0
	for i, w := range man.Workers {
		busy := 0.0
		for _, a := range w.Attempts {
			busy += a.ElapsedSeconds
		}
		restarts += max(0, len(w.Attempts)-1)
		if i == 0 || busy > slowest {
			slowest = busy
		}
		if i == 0 || busy < fastest {
			fastest = busy
		}
	}
	if man.Timing.ElapsedSeconds <= 0 || fastest <= 0 {
		return 0, 0, 0, fmt.Errorf("fanout.json reports no elapsed time")
	}
	overhead = 100 * (man.Timing.ElapsedSeconds - slowest) / man.Timing.ElapsedSeconds
	skew = 100 * (slowest - fastest) / fastest
	return overhead, skew, restarts, nil
}

// serveProbe is what one real `certify serve` session reports.
type serveProbe struct {
	queueWaitMS, slotsBusyMean, cacheHitPct float64
}

// probeServe submits the campaign and a second one with the next chain
// seed to a fresh daemon, samples /healthz while both run, repeats both
// submissions (answered from the cache) and checks the served artefact
// run by run against the untraced reference.
func probeServe(e *env, sh shape, seed uint64, ref map[int][]byte) (*serveProbe, error) {
	srv, _, err := startServer(e, filepath.Join(e.work, "probe-serve"))
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	seeds := []uint64{seed, e.chain.next()}
	jobs := make([]freshJob, len(seeds))
	done := make(chan struct{})
	go func() {
		defer close(done)
		var sub [2]chan freshJob
		for i := range seeds {
			sub[i] = make(chan freshJob, 1)
			go func() { sub[i] <- runFreshJob(srv, sh, seeds[i]) }()
		}
		for i := range seeds {
			jobs[i] = <-sub[i]
		}
	}()
	var busy []float64
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
sample:
	for {
		select {
		case <-done:
			break sample
		case <-tick.C:
			if h, err := srv.health(); err == nil {
				busy = append(busy, float64(h.SlotsBusy))
			}
		}
	}
	for _, j := range jobs {
		if j.err != nil {
			return nil, j.err
		}
		v, err := srv.submit(sh.request(j.seed))
		if err != nil {
			return nil, err
		}
		if !v.Cached || v.State != serve.StateCompleted || !sameDistribution(v.Distribution, j.dist) {
			e.tally.fail("serve repeat of seed %d: state %s cached %v", j.seed, v.State, v.Cached)
		} else {
			e.tally.ok()
		}
	}
	b, code, err := srv.get("/jobs/" + jobs[0].id + "/artefact")
	if err != nil || code != 200 {
		return nil, fmt.Errorf("probe artefact: HTTP %d %v", code, err)
	}
	got := map[int][]byte{}
	for _, line := range splitLines(b) {
		var rec dist.RunRecord
		if json.Unmarshal(line, &rec) == nil && rec.Type == "run" {
			got[rec.Index] = line
		}
	}
	compareRuns(e.tally, "certify serve vs untraced reference", ref, got)
	h, err := srv.health()
	if err != nil {
		return nil, err
	}
	p := &serveProbe{queueWaitMS: h.QueueWaitMeanMS, slotsBusyMean: mean(busy)}
	if n := h.CacheHits + h.CacheMisses; n > 0 {
		p.cacheHitPct = 100 * float64(h.CacheHits) / float64(n)
	}
	if len(busy) == 0 {
		p.slotsBusyMean = 0
	}
	return p, nil
}

// splitLines splits b into lines without their newlines.
func splitLines(b []byte) [][]byte {
	var out [][]byte
	for len(b) > 0 {
		i := 0
		for i < len(b) && b[i] != '\n' {
			i++
		}
		out = append(out, b[:i])
		if i < len(b) {
			i++
		}
		b = b[i:]
	}
	return out
}

// runLedger is the --trace 1 run of a workload: the untraced reference
// at one and two workers, the traced ledger over the same window, the
// fidelity check between them, the read side, the stop policy and one
// real fan-out and serve session, reported as per-layer metrics.
func runLedger(e *env, sh shape) (map[string]metric, error) {
	seed := e.chain.next()
	spec, err := sh.spec(seed)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(e.work, "ledger")

	refPaths, n1, t1, err := executeSpec(spec, 1, filepath.Join(dir, "untraced-w1"))
	if err != nil {
		return nil, fmt.Errorf("untraced reference: %w", err)
	}
	w2Paths, n2, t2, err := executeSpec(spec, 2, filepath.Join(dir, "untraced-w2"))
	if err != nil {
		return nil, fmt.Errorf("untraced two-worker run: %w", err)
	}
	ref, err := runLines(refPaths)
	if err != nil {
		return nil, err
	}
	w2, err := runLines(w2Paths)
	if err != nil {
		return nil, err
	}
	compareRuns(e.tally, "two workers vs one", ref, w2)

	tr := &tracer{t0: time.Now()}
	traced := filepath.Join(dir, "traced")
	if err := os.MkdirAll(traced, 0o755); err != nil {
		return nil, err
	}
	lr, err := runLedgerCampaign(tr, spec, traced)
	if err != nil {
		return nil, err
	}
	got, err := runLines(lr.paths)
	if err != nil {
		return nil, err
	}
	// Fidelity: a decomposition of a different program attributes
	// nothing, so the traced runs must reproduce the untraced artefact.
	compareRuns(e.tally, "traced ledger vs untraced reference", ref, got)

	if err := tr.timed("dist.merge", readIDBase, func() error { _, _, err := dist.Merge(lr.paths); return err }); err != nil {
		return nil, err
	}
	err = tr.timed("dist.master_index", readIDBase, func() error {
		_, err := dist.WriteMasterIndexFile(filepath.Join(traced, "master-index.json"), lr.paths)
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := readSide(tr, lr.paths, e.chain.fork()); err != nil {
		return nil, err
	}
	overhead, skew, restarts, err := probeFanout(e, sh, seed, ref)
	if err != nil {
		return nil, fmt.Errorf("fan-out probe: %w", err)
	}
	sp, err := probeServe(e, sh, seed, ref)
	if err != nil {
		return nil, fmt.Errorf("serve probe: %w", err)
	}
	if err := tr.write(filepath.Join(e.traces, fmt.Sprintf("%s-seed%d.spans.jsonl", e.name, e.seed))); err != nil {
		return nil, err
	}

	agg := tr.aggregate()
	runs := float64(lr.committed)
	perRun := func(name string, unit time.Duration) float64 {
		if st := agg[name]; st != nil {
			return float64(st.total) / float64(unit) / runs
		}
		return 0
	}
	perCall := func(name string, unit time.Duration) float64 {
		if st := agg[name]; st != nil && st.calls > 0 {
			return float64(st.total) / float64(unit) / float64(st.calls)
		}
		return 0
	}
	runWall := agg["run"].total
	share := func(name string) float64 { return 100 * float64(agg[name].total) / float64(runWall) }
	c := lr.counts
	recordBytes := 0
	for _, line := range got {
		recordBytes += len(line) + 1
	}
	untracedRate := float64(n1) / t1.Seconds()
	tracedRate := runs / lr.wall.Seconds()
	m0, m1 := lr.mem[0], lr.mem[1]

	metrics := map[string]metric{
		"sim.trace_hash_ms":             {perRun("sim.trace_hash", time.Millisecond), "ms"},
		"sim.trace_hash_pct":            {share("sim.trace_hash"), "%"},
		"core.machine_run_ms":           {perRun("core.machine_run", time.Millisecond), "ms"},
		"core.machine_run_pct":          {share("core.machine_run"), "%"},
		"sim.events_per_run":            {float64(c.events) / runs, "count"},
		"sim.ns_per_event":              {float64(agg["core.machine_run"].total) / float64(c.events), "ns"},
		"core.pool_get_us":              {perRun("core.pool_get", time.Microsecond), "us"},
		"core.pool_put_us":              {perRun("core.pool_put", time.Microsecond), "us"},
		"core.pool_cold_builds":         {float64(lr.coldBuilds), "count"},
		"core.pool_reuses":              {float64(lr.reuses), "count"},
		"core.inject_arm_us":            {perRun("core.inject_arm", time.Microsecond), "us"},
		"core.classify_us":              {perRun("core.classify", time.Microsecond), "us"},
		"gic.irqs_per_run":              {float64(c.irqs) / runs, "count"},
		"jailhouse.traps_per_run":       {float64(c.traps) / runs, "count"},
		"jailhouse.hypercalls_per_run":  {float64(c.hypercalls) / runs, "count"},
		"jailhouse.cell_events_per_run": {float64(c.cellEvents) / runs, "count"},
		"core.hook_calls_per_run":       {float64(c.hookCalls) / runs, "count"},
		"core.hook_matches_per_run":     {float64(c.hookMatches) / runs, "count"},
		"core.injections_per_run":       {float64(c.injections) / runs, "count"},
		"freertos.led_toggles_per_run":  {float64(c.ledToggles) / runs, "count"},
		"uart.cell_lines_per_run":       {float64(c.cellLines) / runs, "count"},
		"dist.encode_us":                {perRun("dist.on_run", time.Microsecond), "us"},
		"dist.record_bytes":             {float64(recordBytes) / float64(len(got)), "bytes"},
		"dist.close_ms":                 {perCall("dist.close", time.Millisecond), "ms"},
		"dist.merge_ms":                 {perCall("dist.merge", time.Millisecond), "ms"},
		"dist.master_index_ms":          {perCall("dist.master_index", time.Millisecond), "ms"},
		"dist.read_shard_ms":            {perCall("dist.read_shard", time.Millisecond), "ms"},
		"dist.canonical_ms":             {perCall("dist.canonical", time.Millisecond), "ms"},
		"dist.open_dossier_us":          {perCall("dist.open_dossier", time.Microsecond), "us"},
		"dist.raw_run_us":               {perCall("dist.raw_run", time.Microsecond), "us"},
		"analytics.observe_us":          {perCall("analytics.observe", time.Microsecond), "us"},
		"analytics.runs_to_decision":    {float64(lr.decision), "count"},
		"fanout.overhead_pct":           {overhead, "%"},
		"fanout.shard_skew_pct":         {skew, "%"},
		"fanout.restarts":               {float64(restarts), "count"},
		"serve.queue_wait_ms":           {sp.queueWaitMS, "ms"},
		"serve.slots_busy_mean":         {sp.slotsBusyMean, "count"},
		"serve.cache_hit_pct":           {sp.cacheHitPct, "%"},
		"core.parallel_efficiency":      {(float64(n2) / t2.Seconds()) / (2 * untracedRate), "ratio"},
		"go.allocs_per_run":             {float64(m1.Mallocs-m0.Mallocs) / runs, "count"},
		"go.bytes_per_run":              {float64(m1.TotalAlloc-m0.TotalAlloc) / runs, "bytes"},
		"go.gc_count":                   {float64(m1.NumGC - m0.NumGC), "count"},
		"trace.overhead_pct":            {100 * (untracedRate - tracedRate) / untracedRate, "%"},
		"core.unattributed_pct":         {100 * float64(agg["run"].self) / float64(runWall), "%"},
	}

	e.report.note(fmt.Sprintf("ledger: %s seed %d, %d runs traced; untraced %.1f runs/s at 1 worker, %.1f at 2",
		sh.plan, seed, lr.committed, untracedRate, float64(n2)/t2.Seconds()))
	e.report.note("spans: calls, total and self time; for spans inside a run, their share of the summed run wall:")
	names := make([]string, 0, len(agg))
	for name := range agg {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st := agg[name]
		line := fmt.Sprintf("  %-20s calls %6d  total %10.3f ms  self %10.3f ms", name, st.calls, float64(st.total)/1e6, float64(st.self)/1e6)
		if st.inRun {
			line += fmt.Sprintf("  %5.1f%% of run wall", 100*float64(st.total)/float64(runWall))
		}
		e.report.note(line)
	}
	return metrics, nil
}
