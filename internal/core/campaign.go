package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"github.com/dessertlab/certify/internal/sim"
)

// CampaignMode selects how much per-run evidence a campaign retains.
type CampaignMode uint8

const (
	// ModeFull retains every RunResult with full transcripts and
	// per-point call counts — the certification-dossier configuration.
	ModeFull CampaignMode = iota
	// ModeDistribution streams each run into aggregate counters and
	// drops the run immediately after classification: no transcripts, no
	// retained []*RunResult. Use it for large campaigns where only the
	// outcome distribution (Figure 3 shape) matters. Aggregates are
	// identical to ModeFull for the same MasterSeed.
	ModeDistribution
)

// String names the mode for logs and CLI flags.
func (m CampaignMode) String() string {
	if m == ModeDistribution {
		return "distribution"
	}
	return "full"
}

// ParseCampaignMode maps a mode name (CLI flag value, serialized spec)
// back to the mode. "dist" is accepted as CLI shorthand.
func ParseCampaignMode(s string) (CampaignMode, error) {
	switch s {
	case "full":
		return ModeFull, nil
	case "distribution", "dist":
		return ModeDistribution, nil
	}
	return 0, fmt.Errorf("core: unknown campaign mode %q (want full or distribution)", s)
}

// CampaignResult aggregates a batch of runs of one plan. The zero value
// is a valid empty result; workers fold runs into private results and the
// campaign merges them with MergeFrom.
type CampaignResult struct {
	Plan string
	// Runs holds the per-run records in ModeFull; empty in
	// ModeDistribution, where only the counters below survive. It is
	// read-only output: the aggregate accessors (Total, Fraction,
	// InjectionsTotal, ...) answer from internal counters maintained by
	// addRun/MergeFrom, so populating or trimming Runs by hand does not
	// update them.
	Runs []*RunResult

	// Stop records the certified-prefix decision of an adaptive
	// campaign: the aggregate covers exactly runs [0, Stop.DecidedAt) of
	// the master seed chain. Nil for fixed-N campaigns and for adaptive
	// campaigns cancelled before a decision was reached.
	Stop *StopDecision

	byClass    map[Outcome]int
	total      int
	injections int
	detectSum  sim.Time
	detectN    int
}

// Count returns how many runs ended in the given outcome.
func (c *CampaignResult) Count(o Outcome) int { return c.byClass[o] }

// Total returns the number of completed runs.
func (c *CampaignResult) Total() int { return c.total }

// Fraction returns the share of runs with the given outcome in [0,1].
func (c *CampaignResult) Fraction(o Outcome) float64 {
	if c.total == 0 {
		return 0
	}
	return float64(c.byClass[o]) / float64(c.total)
}

// Distribution returns outcome → count for all classes (including zero
// entries, so tables always have the same shape).
func (c *CampaignResult) Distribution() map[Outcome]int {
	out := make(map[Outcome]int, int(numOutcomes))
	for _, o := range AllOutcomes() {
		out[o] = c.byClass[o]
	}
	return out
}

// InjectionsTotal sums performed injections across runs.
func (c *CampaignResult) InjectionsTotal() int { return c.injections }

// MeanDetectionLatency averages the detection latency over the runs that
// detected a failure (park or panic); -1 when none did.
func (c *CampaignResult) MeanDetectionLatency() sim.Time {
	if c.detectN == 0 {
		return -1
	}
	return c.detectSum / sim.Time(c.detectN)
}

// AddSample folds one run's classification into the aggregate without a
// RunResult — the path dist.Merge uses to rebuild a CampaignResult from
// streamed JSONL records. detection < 0 means "nothing detected" and is
// excluded from the latency mean, mirroring RunResult.DetectionLatency.
func (c *CampaignResult) AddSample(o Outcome, injections int, detection sim.Time) {
	if c.byClass == nil {
		c.byClass = make(map[Outcome]int, int(numOutcomes))
	}
	c.byClass[o]++
	c.total++
	c.injections += injections
	if detection >= 0 {
		c.detectSum += detection
		c.detectN++
	}
}

// addRun folds one classified run into the aggregate. retain keeps the
// RunResult itself (ModeFull); otherwise only the counters are updated
// and the run becomes garbage immediately.
func (c *CampaignResult) addRun(r *RunResult, retain bool) {
	c.AddSample(r.Outcome(), len(r.Injections), r.DetectionLatency)
	if retain {
		c.Runs = append(c.Runs, r)
	}
}

// MergeFrom folds another result's aggregates (and any retained runs)
// into c. Counters are commutative, so per-worker partial results merge
// into the same totals regardless of scheduling order — the property that
// keeps parallel campaigns seed-reproducible.
func (c *CampaignResult) MergeFrom(o *CampaignResult) {
	if o == nil {
		return
	}
	if c.Plan == "" {
		c.Plan = o.Plan
	}
	if len(o.byClass) > 0 && c.byClass == nil {
		c.byClass = make(map[Outcome]int, int(numOutcomes))
	}
	for k, v := range o.byClass {
		c.byClass[k] += v
	}
	c.total += o.total
	c.injections += o.injections
	c.detectSum += o.detectSum
	c.detectN += o.detectN
	c.Runs = append(c.Runs, o.Runs...)
}

// Campaign runs a plan N times with independent derived seeds, fanning
// out across workers. Every run is an isolated deterministic machine, so
// parallelism cannot perturb results; the aggregate is seed-reproducible.
// Workers draw warm machines from a MachinePool — Pool when set, else
// one pool private to the campaign: after the first cold builds,
// consecutive runs rewind a machine to the latest golden checkpoint
// their injector cannot have fired before (see DESIGN.md "Golden
// timeline") instead of rebuilding the stack. The differential
// determinism and checkpoint exactness suites pin warm == cold, so
// reuse cannot perturb results.
type Campaign struct {
	// Plan to execute.
	Plan *TestPlan
	// Runs is the number of runs (the paper's campaign size per class).
	Runs int
	// MasterSeed derives per-run seeds via SplitMix64.
	MasterSeed uint64
	// Workers bounds parallelism; 0 = GOMAXPROCS.
	Workers int
	// Mode selects evidence retention; the zero value is ModeFull.
	Mode CampaignMode
	// Offset is the global index of this campaign's first run in the
	// MasterSeed chain: the campaign executes runs [Offset, Offset+Runs)
	// of the larger campaign the chain describes. Seeds are derived by
	// advancing the SplitMix64 chain Offset times before taking Runs
	// outputs, so the union of shard campaigns over disjoint windows is
	// bit-identical to one campaign covering the whole range. Zero for
	// ordinary (unsharded) campaigns.
	Offset int
	// OnRun, when non-nil, observes every committed run before
	// Distribution mode drops it: the streaming-artefact hook. It
	// receives the run's global index (Offset + scheduling index) and the
	// full RunResult, including TraceHash, which is computed only when
	// this hook is set. It is called from one goroutine, in strict index
	// order whatever order the workers finish in, so a streamed artefact
	// is byte-identical for any worker count. It must not retain r past
	// the call in ModeDistribution.
	OnRun func(index int, r *RunResult)
	// Pool, when non-nil, supplies the workers' warm machines instead of
	// a pool private to this campaign. Pass the same pool to successive
	// campaigns (or shards executing in the same process) to keep
	// machines warm across them.
	Pool *MachinePool
	// ColdBuild disables machine reuse entirely, Pool included: every
	// run constructs a fresh stack. This is the reference path — kept
	// for the warm bench's comparison row and for bisecting a suspected
	// reuse bug (results must never differ from the pooled path; the
	// differential determinism suite enforces exactly that).
	ColdBuild bool
	// Stop, when non-nil, makes the campaign adaptive. Classified runs
	// are always committed in strict global-index order (a reorder
	// buffer holds out-of-order worker completions); the policy observes
	// each committed run, and the first observation that returns true
	// ends the campaign — runs with higher indices are discarded even
	// when already executed, and OnRun never sees them, so a streamed
	// artefact of a stopped campaign is byte-identical to a truncation
	// of the full campaign's canonical artefact. CampaignResult.Stop
	// records the decision. Runs acts as the max-N guard: an adaptive
	// campaign never exceeds it. Nil runs exactly Runs runs.
	Stop StopPolicy
	// Stratify rotates runs across the register-class strata of the
	// plan's field set (StratifyPlan): run with global index g draws its
	// injection fields from stratum g mod 3. The stratum assignment is a
	// pure function of the global index, so stratified campaigns shard,
	// resume and early-stop exactly like uniform ones. Stratification is
	// campaign identity — dist specs and manifests carry it.
	Stratify bool
}

// Execute runs the campaign. ctx cancellation stops scheduling new runs
// (in-flight runs complete; they are fast).
func (c *Campaign) Execute(ctx context.Context) (*CampaignResult, error) {
	if c.Plan == nil {
		return nil, fmt.Errorf("core: campaign has no plan")
	}
	if err := c.Plan.Validate(); err != nil {
		return nil, err
	}
	n := c.Runs
	if n <= 0 {
		n = 100
	}
	workers := c.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	if c.Offset < 0 {
		return nil, fmt.Errorf("core: campaign offset %d is negative", c.Offset)
	}

	// Pre-derive all seeds so the assignment is order-independent. The
	// chain is advanced past the Offset window first: shard campaigns draw
	// the same seeds the full campaign would have assigned to their runs.
	state := c.MasterSeed
	for i := 0; i < c.Offset; i++ {
		sim.SplitMix64(&state)
	}
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = sim.SplitMix64(&state)
	}

	planFor := func(int) *TestPlan { return c.Plan }
	if c.Stratify {
		strata, err := StratifyPlan(c.Plan)
		if err != nil {
			return nil, err
		}
		planFor = func(idx int) *TestPlan { return strata[(c.Offset+idx)%len(strata)] }
	}

	return c.execute(ctx, n, workers, seeds, planFor)
}

// execute is the one campaign executor: workers race over the run
// indices, but classified runs are committed — OnRun, aggregation, stop
// policy observation — in strict global-index order through a reorder
// buffer. Artefacts are therefore index-ordered by construction and
// byte-identical for any worker count, and an adaptive stop decision is
// a pure function of the seed-chain prefix: a stopped campaign's
// committed runs are bit-identical to the first K runs of the full
// campaign, no matter how many workers raced or in what order they
// finished. A fixed-N campaign is the same executor with no policy.
func (c *Campaign) execute(ctx context.Context, n, workers int, seeds []uint64, planFor func(int) *TestPlan) (*CampaignResult, error) {
	retain := c.Mode == ModeFull
	if c.Stop != nil {
		c.Stop.Reset()
	}

	type completion struct {
		idx int
		r   *RunResult
		err error
	}
	var (
		wg       sync.WaitGroup
		work     = make(chan int)
		finished = make(chan completion, workers)
		stopFeed = make(chan struct{})
	)
	ro := RunOptions{Mode: c.Mode, Pool: c.Pool, CaptureTraceHash: c.OnRun != nil}
	switch {
	case c.ColdBuild:
		ro.Pool = nil // fresh build per run
	case ro.Pool == nil:
		ro.Pool = NewMachinePool()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range work {
				r, err := RunExperimentOpts(planFor(idx), seeds[idx], ro)
				finished <- completion{idx, r, err}
			}
		}()
	}
	go func() {
		defer close(work)
		for i := 0; i < n; i++ {
			// select picks among ready cases at random: check the
			// context first, so a cancelled campaign never schedules
			// another run just because a worker happened to be idle.
			if ctx.Err() != nil {
				return
			}
			select {
			case <-ctx.Done():
				return
			case <-stopFeed:
				return
			case work <- i:
			}
		}
	}()
	go func() { wg.Wait(); close(finished) }()

	agg := &CampaignResult{Plan: c.Plan.Name}
	pending := make(map[int]completion, workers)
	next := 0    // next index to commit; committed prefix is [0, next)
	stopAt := -1 // committed prefix length at the stop decision
	var fatal error
	for done := range finished {
		if stopAt >= 0 || fatal != nil {
			continue // decision made or campaign doomed: drain the workers
		}
		pending[done.idx] = done
		for {
			e, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			if e.err != nil {
				fatal = fmt.Errorf("run %d (seed %#x): %w", c.Offset+next, seeds[next], e.err)
				close(stopFeed)
				break
			}
			if c.OnRun != nil {
				c.OnRun(c.Offset+next, e.r)
			}
			agg.addRun(e.r, retain)
			fired := c.Stop != nil && c.Stop.Observe(c.Offset+next, e.r.Outcome())
			next++
			if fired {
				stopAt = next
				close(stopFeed)
				break
			}
		}
	}
	if fatal != nil {
		return nil, fatal
	}
	if agg.total == 0 {
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("core: campaign cancelled before any run completed: %w", cerr)
		}
		return nil, fmt.Errorf("core: campaign produced no runs")
	}
	switch {
	case c.Stop == nil:
		// Fixed-N: no decision to record.
	case stopAt >= 0:
		agg.Stop = &StopDecision{DecidedAt: c.Offset + stopAt, Fired: stopAt < n}
	case next == n:
		// Max-N guard: the chain ran out before the target was met. The
		// whole window is the certified prefix.
		agg.Stop = &StopDecision{DecidedAt: c.Offset + n, Fired: false}
	default:
		// Cancelled before a decision: the committed prefix [0, next) is
		// a resumable remnant, not a certified stop — leave Stop nil so
		// callers (dist.ExecuteShard) treat the artefact as incomplete.
	}
	return agg, nil
}
