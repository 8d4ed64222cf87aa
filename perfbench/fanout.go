package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"github.com/dessertlab/certify/internal/core"
	"github.com/dessertlab/certify/internal/dist"
	"github.com/dessertlab/certify/internal/fanout"
	"github.com/dessertlab/certify/internal/serve"
)

// shape is one campaign configuration a workload submits; the seed is
// drawn per campaign from the workload's seed chain.
type shape struct {
	plan    string
	mode    core.CampaignMode
	runs    int     // campaign size, or the max-N guard when ciWidth > 0
	ciWidth float64 // adaptive stop target in percentage points; 0 = fixed-N
	shards  int
}

var (
	// fig3Shape is the paper's Figure-3 campaign as one fan-out: E3-fig3
	// (register single-bit flip, 1 min horizon), distribution mode, two
	// shard processes.
	fig3Shape = shape{plan: "E3-fig3", mode: core.ModeDistribution, runs: 400, shards: 2}
	// fig3LedgerShape is the traced window of the same campaign.
	fig3LedgerShape = shape{plan: "E3-fig3", mode: core.ModeDistribution, runs: 200, shards: 2}
	// freshJobShape is one serve-fresh job: E1-hvc in full mode, stopped
	// adaptively at a 20pp CI width (about 75-100 runs), 150-run guard.
	freshJobShape = shape{plan: "E1-hvc", mode: core.ModeFull, runs: 150, ciWidth: 20, shards: 1}
	// cachedFillShapes fill the serve-cached store during set-up.
	cachedFillShapes = []shape{
		{plan: "E3-fig3", mode: core.ModeDistribution, runs: 300, shards: 1},
		{plan: "E1-hvc", mode: core.ModeFull, runs: 120, shards: 1},
	}
	// cachedLedgerShape is the traced window of the full-mode fill
	// campaign, whose large records dominate the read side.
	cachedLedgerShape = cachedFillShapes[1]
)

// stop returns the shape's adaptive stop spec, nil for fixed-N.
func (s shape) stop() *core.StopSpec {
	if s.ciWidth <= 0 {
		return nil
	}
	return &core.StopSpec{Policy: core.StopPolicyCIWidth, WidthBP: int(math.Round(s.ciWidth * 100))}
}

// spec is the dist campaign spec of this shape for one master seed.
func (s shape) spec(seed uint64) (*dist.Spec, error) {
	plan, err := core.PlanByName(s.plan)
	if err != nil {
		return nil, err
	}
	sp := &dist.Spec{Plan: plan, Runs: s.runs, MasterSeed: seed, Shards: s.shards, Mode: s.mode, Stop: s.stop()}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return sp, nil
}

// cliArgs renders the shape as certify campaign flags.
func (s shape) cliArgs(seed uint64) []string {
	args := []string{"-plan", s.plan, "-seed", strconv.FormatUint(seed, 10), "-mode", s.mode.String()}
	if s.ciWidth > 0 {
		return append(args, "-ci-width", strconv.FormatFloat(s.ciWidth, 'g', -1, 64), "-max-runs", strconv.Itoa(s.runs))
	}
	return append(args, "-runs", strconv.Itoa(s.runs))
}

// request renders the shape as a serve submission.
func (s shape) request(seed uint64) *serve.SubmitRequest {
	req := &serve.SubmitRequest{Tenant: "perfbench", Plan: s.plan, Seed: serve.Seed(seed), Mode: s.mode.String()}
	if s.ciWidth > 0 {
		req.CIWidth = s.ciWidth
		req.MaxRuns = s.runs
	} else {
		req.Runs = s.runs
	}
	return req
}

// fanoutRun is one `certify fanout` invocation.
type fanoutRun struct {
	seed  uint64
	dir   string
	wall  time.Duration // launch → exit (merged dossier and master index written)
	setup time.Duration // launch → first run record on disk
	rssMB float64
}

// runFanoutOnce launches one supervised fan-out of the shape and waits
// for it to finish.
func runFanoutOnce(e *env, s shape, seed uint64, dir string) (*fanoutRun, error) {
	args := append([]string{"fanout"}, s.cliArgs(seed)...)
	args = append(args, "-shards", strconv.Itoa(s.shards), "-parallel", strconv.Itoa(s.shards), "-dir", dir, "-quiet")
	start := time.Now()
	p, err := e.procs.launch(e.bin, args, dir+".log")
	if err != nil {
		return nil, err
	}
	r := &fanoutRun{seed: seed, dir: dir}
	shardPaths := make([]string, s.shards)
	for i := range shardPaths {
		shardPaths[i] = fanout.ArtefactPath(dir, i, false)
	}
	// Poll every millisecond until some shard artefact holds a complete
	// run record (its second line; the first is the manifest).
	sizes := make([]int64, s.shards)
poll:
	for {
		for i, path := range shardPaths {
			st, err := os.Stat(path)
			if err != nil || st.Size() == sizes[i] {
				continue
			}
			sizes[i] = st.Size()
			if b, err := os.ReadFile(path); err == nil && bytes.Count(b, []byte{'\n'}) >= 2 {
				r.setup = time.Since(start)
				break poll
			}
		}
		select {
		case <-p.done:
			break poll
		case <-time.After(time.Millisecond):
		}
	}
	if err := p.wait(170 * time.Second); err != nil {
		log, _ := os.ReadFile(dir + ".log")
		return nil, fmt.Errorf("certify fanout seed %d: %v\n%s", seed, err, log)
	}
	r.wall = time.Since(start)
	r.rssMB = p.rss.peakMB()
	if r.setup == 0 {
		return nil, fmt.Errorf("certify fanout seed %d exited before any run record was seen", seed)
	}
	return r, nil
}

// verifyFanout checks one fan-out's outputs: fanout.json says completed,
// the merged distribution equals the master index's counts, and every
// index of the campaign has its record. It returns the committed run
// count and the shard artefact paths.
func verifyFanout(s shape, r *fanoutRun) (int, []string, error) {
	man, err := fanout.ReadManifest(filepath.Join(r.dir, fanout.ManifestFileName))
	if err != nil {
		return 0, nil, err
	}
	if !man.Completed {
		return 0, nil, fmt.Errorf("fanout.json of seed %d is not completed", r.seed)
	}
	paths := make([]string, s.shards)
	for i := range paths {
		paths[i] = fanout.ArtefactPath(r.dir, i, false)
	}
	merged, shards, err := dist.Merge(paths)
	if err != nil {
		return 0, nil, fmt.Errorf("merge seed %d: %v", r.seed, err)
	}
	mi, err := dist.ReadMasterIndex(filepath.Join(r.dir, "master-index.json"))
	if err != nil {
		return 0, nil, err
	}
	for _, o := range core.AllOutcomes() {
		if merged.Count(o) != mi.Outcomes[o.String()] {
			return 0, nil, fmt.Errorf("seed %d: merged %v = %d, master index says %d", r.seed, o, merged.Count(o), mi.Outcomes[o.String()])
		}
	}
	n := s.runs
	if merged.Stop != nil {
		n = merged.Stop.DecidedAt
	}
	if merged.Total() != n {
		return 0, nil, fmt.Errorf("seed %d: merged %d runs, want %d", r.seed, merged.Total(), n)
	}
	have := map[int]bool{}
	for _, sf := range shards {
		for k := range sf.TraceHashes {
			have[k] = true
		}
	}
	for k := 0; k < n; k++ {
		if !have[k] {
			return 0, nil, fmt.Errorf("seed %d: no record for run index %d", r.seed, k)
		}
	}
	return n, paths, nil
}

// setupProbes is how many short fan-outs set-up launches before the
// timed phase, so setup_s is a median over enough launches.
const setupProbes = 8

// runFig3Fanout is the fig3-fanout workload: back-to-back `certify
// fanout` campaigns (one closed-loop client) for the timed phase.
func runFig3Fanout(e *env) (map[string]metric, error) {
	// Set-up probes: 20-run fan-outs of the same campaign shape, timed
	// from launch to their first run record like every timed fan-out.
	probe := fig3Shape
	probe.runs = 20
	var setups []float64
	for k := 0; k < setupProbes; k++ {
		r, err := runFanoutOnce(e, probe, e.chain.next(), filepath.Join(e.work, fmt.Sprintf("probe-%02d", k)))
		if err == nil {
			_, _, err = verifyFanout(probe, r)
		}
		if err != nil {
			e.tally.fail("set-up probe: %v", err)
			continue
		}
		e.tally.ok()
		setups = append(setups, r.setup.Seconds())
	}

	var runs []*fanoutRun
	deadline := time.Now().Add(e.seconds)
	for k := 0; k == 0 || time.Now().Before(deadline); k++ {
		seed := e.chain.next()
		r, err := runFanoutOnce(e, fig3Shape, seed, filepath.Join(e.work, fmt.Sprintf("fanout-%02d", k)))
		if err != nil {
			e.tally.fail("%v", err)
			continue
		}
		runs = append(runs, r)
	}
	// Outputs are checked after the timed phase, so the checks do not
	// compete with the system under test for the CPUs.
	var (
		committed int
		wall      time.Duration
		walls     []float64
		peak      float64
	)
	for _, r := range runs {
		n, _, err := verifyFanout(fig3Shape, r)
		if err != nil {
			e.tally.fail("%v", err)
			continue
		}
		e.tally.ok()
		committed += n
		wall += r.wall
		walls = append(walls, float64(r.wall)/float64(time.Millisecond))
		setups = append(setups, r.setup.Seconds())
		peak = math.Max(peak, r.rssMB)
	}
	if len(walls) == 0 {
		return nil, fmt.Errorf("no fan-out completed and verified")
	}
	throughput := float64(committed) / wall.Seconds()
	e.report.line("runs_per_s", throughput, "1/s", len(walls))
	e.report.dist("time_to_dossier_ms", walls, "ms")
	e.report.dist("setup_s", setups, "s")
	e.report.line("peak_rss_mb", peak, "MB", len(walls))
	return map[string]metric{
		"throughput_per_s": {throughput, "1/s"},
		"latency_p50_ms":   {median(walls), "ms"},
		"setup_s":          {median(setups), "s"},
		"peak_rss_mb":      {peak, "MB"},
	}, nil
}
