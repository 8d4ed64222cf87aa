package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"time"

	"github.com/dessertlab/certify/internal/core"
	"github.com/dessertlab/certify/internal/dist"
	"github.com/dessertlab/certify/internal/serve"
	"github.com/dessertlab/certify/internal/sim"
)

// clients is the closed-loop client count of both serve workloads, one
// per CPU of the reference host.
const clients = 2

// serverStarts is how many daemons set-up starts one after the other;
// the startup time is their median.
const serverStarts = 9

// server is one running `certify serve` daemon.
type server struct {
	p    *proc
	base string
	data string
	hc   *http.Client
}

var listenLine = regexp.MustCompile(`listening on (http://[^ ]+)`)

// startServer launches a daemon on a fresh data directory and returns
// once /healthz answers ok with the golden engine fingerprint; the
// duration covers the daemon's startup golden self-check.
func startServer(e *env, data string) (*server, time.Duration, error) {
	start := time.Now()
	logPath := data + ".log"
	p, err := e.procs.launch(e.bin, []string{"serve", "-addr", "127.0.0.1:0", "-data", data, "-slots", "2"}, logPath)
	if err != nil {
		return nil, 0, err
	}
	s := &server{p: p, data: data, hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients}}}
	deadline := start.Add(60 * time.Second)
	for s.base == "" {
		if b, err := os.ReadFile(logPath); err == nil {
			if m := listenLine.FindSubmatch(b); m != nil {
				s.base = string(m[1])
				break
			}
		}
		select {
		case <-p.done:
			log, _ := os.ReadFile(logPath)
			return nil, 0, fmt.Errorf("certify serve exited during startup: %v\n%s", p.err, log)
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			return nil, 0, fmt.Errorf("certify serve announced no listen address within 60s")
		}
	}
	for {
		h, err := s.health()
		if err == nil && h.Status == "ok" {
			if h.GoldenTraceHash != goldenTraceHash {
				return nil, 0, fmt.Errorf("/healthz golden trace hash %s, want %s", h.GoldenTraceHash, goldenTraceHash)
			}
			return s, time.Since(start), nil
		}
		if time.Now().After(deadline) {
			return nil, 0, fmt.Errorf("/healthz not ok within 60s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// startServers starts n daemons one after the other, each on a fresh
// data directory, stops all but the last and returns it with the median
// startup time.
func startServers(e *env, n int) (*server, float64, error) {
	var (
		times []float64
		s     *server
	)
	for i := 0; i < n; i++ {
		if s != nil {
			if err := s.stop(); err != nil {
				return nil, 0, err
			}
		}
		var (
			d   time.Duration
			err error
		)
		s, d, err = startServer(e, filepath.Join(e.work, fmt.Sprintf("serve-%d", i)))
		if err != nil {
			return nil, 0, err
		}
		times = append(times, d.Seconds())
	}
	e.report.dist("server_start_s", times, "s")
	return s, median(times), nil
}

// stop shuts the daemon down gracefully and waits for it to exit.
func (s *server) stop() error {
	s.hc.CloseIdleConnections()
	if err := s.p.stop(30 * time.Second); err != nil {
		return fmt.Errorf("certify serve shutdown: %v", err)
	}
	return nil
}

func (s *server) health() (*serve.Health, error) {
	var h serve.Health
	return &h, s.getJSON("/healthz", &h)
}

func (s *server) getJSON(path string, out any) error {
	b, code, err := s.get(path)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d: %s", path, code, b)
	}
	return json.Unmarshal(b, out)
}

// get fetches path and returns the whole body.
func (s *server) get(path string) ([]byte, int, error) {
	resp, err := s.hc.Get(s.base + path)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

// submit posts one campaign and returns the job as admitted (or, on a
// cache hit, as already completed).
func (s *server) submit(req *serve.SubmitRequest) (*serve.JobView, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := s.hc.Post(s.base+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, b)
	}
	var v serve.JobView
	return &v, json.Unmarshal(b, &v)
}

// waitDone follows the job's event stream until its done event.
func (s *server) waitDone(id string) (*serve.Event, error) {
	resp, err := s.hc.Get(s.base + "/jobs/" + id + "/events")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("events of %s: HTTP %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev serve.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, err
		}
		if ev.Type == "done" {
			return &ev, nil
		}
	}
	return nil, fmt.Errorf("event stream of %s ended without a done event: %v", id, sc.Err())
}

// sameDistribution compares two outcome → count maps over every
// outcome class (absent = 0).
func sameDistribution(a, b map[string]int) bool {
	for _, o := range core.AllOutcomes() {
		if a[o.String()] != b[o.String()] {
			return false
		}
	}
	return true
}

func total(d map[string]int) int {
	n := 0
	for _, c := range d {
		n += c
	}
	return n
}

// freshJob is one serve-fresh submission as the client saw it.
type freshJob struct {
	seed    uint64
	id, key string
	latency time.Duration
	dist    map[string]int
	err     error
}

// runFreshJob submits one uncached campaign and waits for its done
// event.
func runFreshJob(s *server, sh shape, seed uint64) freshJob {
	j := freshJob{seed: seed}
	start := time.Now()
	v, err := s.submit(sh.request(seed))
	if err != nil {
		j.err = err
		return j
	}
	j.id, j.key = v.ID, v.Key
	ev, err := s.waitDone(v.ID)
	j.latency = time.Since(start)
	switch {
	case err != nil:
		j.err = err
	case ev.State != serve.StateCompleted:
		j.err = fmt.Errorf("job %s ended %s: %s", v.ID, ev.State, ev.Error)
	case ev.Cached:
		j.err = fmt.Errorf("job %s (seed %d) was answered from the cache", v.ID, seed)
	default:
		j.dist = ev.Distribution
	}
	return j
}

// artefactPath is where the daemon keeps a job's shard artefact: the
// content-addressed cache entry under its data directory.
func (s *server) artefactPath(key string) string {
	return filepath.Join(s.data, "cache", key, "runs.jsonl")
}

// verifyFreshJob checks a completed job's artefact: it must pass
// dist.Merge (including the adaptive stop replay), agree with the done
// event, and one seeded run index must re-execute in-process to the
// stored outcome and trace hash.
func verifyFreshJob(s *server, sh shape, j freshJob, pick *chain) error {
	path := s.artefactPath(j.key)
	merged, _, err := dist.Merge([]string{path})
	if err != nil {
		return fmt.Errorf("job %s: merge: %v", j.id, err)
	}
	got := map[string]int{}
	for _, o := range core.AllOutcomes() {
		got[o.String()] = merged.Count(o)
	}
	if !sameDistribution(got, j.dist) {
		return fmt.Errorf("job %s: artefact distribution %v, done event %v", j.id, got, j.dist)
	}
	if sh.ciWidth > 0 && (merged.Stop == nil || merged.Stop.DecidedAt != merged.Total()) {
		return fmt.Errorf("job %s: no certified prefix covering its %d runs", j.id, merged.Total())
	}
	d, err := dist.OpenDossier(path)
	if err != nil {
		return err
	}
	defer d.Close()
	k := pick.intn(merged.Total())
	rec, err := d.Run(k)
	if err != nil {
		return fmt.Errorf("job %s run %d: %v", j.id, k, err)
	}
	return replayRun(sh, j.seed, k, rec)
}

// runSeed derives run k's seed from the campaign's master seed the way
// the campaign executor does: the k+1-th output of the SplitMix64 chain.
func runSeed(master uint64, k int) uint64 {
	state := master
	var s uint64
	for i := 0; i <= k; i++ {
		s = sim.SplitMix64(&state)
	}
	return s
}

// replayRun re-executes run k of the campaign in-process and compares
// it with the stored record.
func replayRun(sh shape, master uint64, k int, rec *dist.RunRecord) error {
	plan, err := core.PlanByName(sh.plan)
	if err != nil {
		return err
	}
	seed := runSeed(master, k)
	if want := fmt.Sprintf("%#x", seed); rec.Seed != want {
		return fmt.Errorf("run %d of seed %d: stored seed %s, chain gives %s", k, master, rec.Seed, want)
	}
	r, err := core.RunExperimentOpts(plan, seed, core.RunOptions{Mode: sh.mode, CaptureTraceHash: true})
	if err != nil {
		return err
	}
	if hash := fmt.Sprintf("%#x", r.TraceHash); hash != rec.TraceHash || r.Outcome().String() != rec.Outcome {
		return fmt.Errorf("run %d of seed %d: replay gives %v %s, stored %s %s", k, master, r.Outcome(), hash, rec.Outcome, rec.TraceHash)
	}
	return nil
}

// runServeFresh is the serve-fresh workload: two closed-loop clients,
// each submitting an uncached adaptive E1-hvc campaign and waiting for
// it to finish before submitting the next.
func runServeFresh(e *env) (map[string]metric, error) {
	srv, setup, err := startServers(e, serverStarts)
	if err != nil {
		return nil, err
	}
	seeds := make([]*chain, clients)
	for c := range seeds {
		seeds[c] = e.chain.fork()
	}
	perClient := make([][]freshJob, clients)
	deadline := time.Now().Add(e.seconds)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for len(perClient[c]) == 0 || time.Now().Before(deadline) {
				perClient[c] = append(perClient[c], runFreshJob(srv, freshJobShape, seeds[c].next()))
			}
		}()
	}
	wg.Wait()
	peak := srv.p.rss.peakMB()
	if err := srv.stop(); err != nil {
		return nil, err
	}

	// Checks run after the timed phase, against the artefacts the
	// stopped daemon left in its store.
	pick := e.chain.fork()
	var (
		throughput float64
		latencies  []float64
		runs       int
	)
	for _, jobs := range perClient {
		var busy time.Duration
		committed := 0
		for _, j := range jobs {
			if j.err == nil {
				j.err = verifyFreshJob(srv, freshJobShape, j, pick)
			}
			if j.err != nil {
				e.tally.fail("%v", j.err)
				continue
			}
			e.tally.ok()
			busy += j.latency
			committed += total(j.dist)
			latencies = append(latencies, j.latency.Seconds()*1000)
		}
		runs += committed
		if busy > 0 {
			// Each client is busy for its whole loop, so its committed
			// runs over its busy time is its share of the throughput.
			throughput += float64(committed) / busy.Seconds()
		}
	}
	if len(latencies) == 0 {
		return nil, fmt.Errorf("no job completed and verified")
	}
	e.report.line("runs_per_s", throughput, "1/s", len(latencies))
	e.report.line("runs_per_job_mean", float64(runs)/float64(len(latencies)), "runs", len(latencies))
	ms := make([]float64, len(latencies))
	for i, l := range latencies {
		ms[i] = l / 1000
	}
	e.report.dist("job_s", ms, "s")
	e.report.line("setup_s", setup, "s", serverStarts)
	e.report.line("peak_rss_mb", peak, "MB", 1)
	return map[string]metric{
		"throughput_per_s": {throughput, "1/s"},
		"latency_p50_ms":   {median(latencies), "ms"},
		"setup_s":          {setup, "s"},
		"peak_rss_mb":      {peak, "MB"},
	}, nil
}

// cachedRef is one store-fill campaign and what set-up recorded of it.
type cachedRef struct {
	shape    shape
	seed     uint64
	id       string
	dist     map[string]int
	artefact []byte   // canonical artefact bytes
	runs     [][]byte // run record line by index, newline included
}

// fillStore submits every fill campaign at once and waits for all of
// them.
func fillStore(s *server, e *env) ([]*cachedRef, error) {
	refs := make([]*cachedRef, len(cachedFillShapes))
	var wg sync.WaitGroup
	errs := make([]error, len(refs))
	for i, sh := range cachedFillShapes {
		refs[i] = &cachedRef{shape: sh, seed: e.chain.next()}
		wg.Add(1)
		go func() {
			defer wg.Done()
			j := runFreshJob(s, sh, refs[i].seed)
			refs[i].id, refs[i].dist, errs[i] = j.id, j.dist, j.err
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("store fill: %v", err)
		}
	}
	return refs, nil
}

// record downloads a fill job's canonical artefact and splits it into
// per-index run lines, checking it covers every index and agrees with
// the job's distribution.
func (ref *cachedRef) record(s *server) error {
	b, code, err := s.get("/jobs/" + ref.id + "/artefact")
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("artefact of %s: HTTP %d %v", ref.id, code, err)
	}
	ref.artefact = b
	ref.runs = make([][]byte, ref.shape.runs)
	counts := map[string]int{}
	for _, line := range bytes.SplitAfter(b, []byte{'\n'}) {
		var rec dist.RunRecord
		if len(line) == 0 || json.Unmarshal(line, &rec) != nil || rec.Type != "run" {
			continue
		}
		if rec.Index < 0 || rec.Index >= len(ref.runs) || ref.runs[rec.Index] != nil {
			return fmt.Errorf("artefact of %s: bad or repeated run index %d", ref.id, rec.Index)
		}
		ref.runs[rec.Index] = line
		counts[rec.Outcome]++
	}
	for k, line := range ref.runs {
		if line == nil {
			return fmt.Errorf("artefact of %s: no record for run index %d", ref.id, k)
		}
	}
	if !sameDistribution(counts, ref.dist) {
		return fmt.Errorf("artefact of %s: records give %v, job says %v", ref.id, counts, ref.dist)
	}
	return nil
}

// headlineRef is the store entry whose repeat-submission median is the
// workload's latency_p50_ms: the full-mode E1-hvc campaign, the cache
// hit with the most artefact bytes to re-verify.
const headlineRef = 1

// request kinds of the serve-cached mix.
const (
	reqSubmit = iota
	reqRun
	reqArtefact
	numReqKinds
)

var reqNames = [numReqKinds]string{"cached_submit", "run_fetch", "artefact"}

// cachedOp is one serve-cached request as the client saw it.
type cachedOp struct {
	kind, target int
	latency      time.Duration
	err          error
}

// cachedRequest issues one request of the mix and checks its answer
// against what set-up recorded.
func cachedRequest(s *server, refs []*cachedRef, op cachedOp, rng *chain) cachedOp {
	ref := refs[op.target]
	start := time.Now()
	switch op.kind {
	case reqSubmit:
		v, err := s.submit(ref.shape.request(ref.seed))
		op.latency = time.Since(start)
		switch {
		case err != nil:
			op.err = err
		case v.State != serve.StateCompleted || !v.Cached:
			op.err = fmt.Errorf("repeat of %s: state %s cached %v", ref.id, v.State, v.Cached)
		case !sameDistribution(v.Distribution, ref.dist):
			op.err = fmt.Errorf("repeat of %s: distribution %v, set-up recorded %v", ref.id, v.Distribution, ref.dist)
		}
	case reqRun:
		k := rng.intn(len(ref.runs))
		b, code, err := s.get("/jobs/" + ref.id + "/runs/" + strconv.Itoa(k))
		op.latency = time.Since(start)
		if err != nil || code != http.StatusOK || !bytes.Equal(b, ref.runs[k]) {
			op.err = fmt.Errorf("run %d of %s: HTTP %d %v, bytes match %v", k, ref.id, code, err, bytes.Equal(b, ref.runs[k]))
		}
	case reqArtefact:
		b, code, err := s.get("/jobs/" + ref.id + "/artefact")
		op.latency = time.Since(start)
		if err != nil || code != http.StatusOK || !bytes.Equal(b, ref.artefact) {
			op.err = fmt.Errorf("artefact of %s: HTTP %d %v, bytes match %v", ref.id, code, err, bytes.Equal(b, ref.artefact))
		}
	}
	return op
}

// mixRound returns every (kind, target) pair once, in seeded order.
func mixRound(targets int, rng *chain) []cachedOp {
	round := make([]cachedOp, 0, numReqKinds*targets)
	for k := 0; k < numReqKinds; k++ {
		for t := 0; t < targets; t++ {
			round = append(round, cachedOp{kind: k, target: t})
		}
	}
	for i := len(round) - 1; i > 0; i-- {
		j := rng.intn(i + 1)
		round[i], round[j] = round[j], round[i]
	}
	return round
}

// runServeCached is the serve-cached workload: two closed-loop clients
// issuing a seeded mix of cached repeat submissions, run-record fetches
// and artefact downloads against a store filled during set-up.
func runServeCached(e *env) (map[string]metric, error) {
	srv, start, err := startServers(e, serverStarts)
	if err != nil {
		return nil, err
	}
	fillStart := time.Now()
	refs, err := fillStore(srv, e)
	if err != nil {
		return nil, err
	}
	fill := time.Since(fillStart).Seconds()
	setup := start + fill
	e.report.line("store_fill_s", fill, "s", 1)
	for _, ref := range refs {
		if err := ref.record(srv); err != nil {
			return nil, err
		}
	}

	rngs := make([]*chain, clients)
	for c := range rngs {
		rngs[c] = e.chain.fork()
	}
	perClient := make([][]cachedOp, clients)
	timed := time.Now()
	deadline := timed.Add(e.seconds)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Rounds of a seeded permutation of every (kind, target)
			// pair: the mix is seeded, its shares are fixed.
			var round []cachedOp
			for time.Now().Before(deadline) {
				if len(round) == 0 {
					round = mixRound(len(refs), rngs[c])
				}
				perClient[c] = append(perClient[c], cachedRequest(srv, refs, round[0], rngs[c]))
				round = round[1:]
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(timed)
	peak := srv.p.rss.peakMB()
	if err := srv.stop(); err != nil {
		return nil, err
	}

	// Latencies by request kind and target: the two store entries differ
	// tenfold in size, so each pair is its own distribution.
	lat := make([][numReqKinds][]float64, len(refs))
	requests := 0
	for _, ops := range perClient {
		for _, op := range ops {
			requests++
			if op.err != nil {
				e.tally.fail("%s: %v", reqNames[op.kind], op.err)
				continue
			}
			e.tally.ok()
			lat[op.target][op.kind] = append(lat[op.target][op.kind], float64(op.latency)/float64(time.Millisecond))
		}
	}
	headline := lat[headlineRef][reqSubmit]
	if len(headline) == 0 {
		return nil, fmt.Errorf("no cached submission of the %s entry succeeded", refs[headlineRef].shape.plan)
	}
	throughput := float64(requests) / elapsed.Seconds()
	e.report.line("requests_per_s", throughput, "1/s", requests)
	for t, byKind := range lat {
		for k, xs := range byKind {
			e.report.dist(fmt.Sprintf("%s_ms[%s]", reqNames[k], refs[t].shape.plan), xs, "ms")
		}
	}
	e.report.line("setup_s", setup, "s", 1)
	e.report.line("peak_rss_mb", peak, "MB", 1)
	return map[string]metric{
		"throughput_per_s": {throughput, "1/s"},
		"latency_p50_ms":   {median(headline), "ms"},
		"setup_s":          {setup, "s"},
		"peak_rss_mb":      {peak, "MB"},
	}, nil
}
