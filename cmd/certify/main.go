// Command certify is the framework's CLI: golden-run profiling, single
// fault-injection runs, full campaigns and SEooC assessment reports —
// the command-line face of the paper's testing methodology.
//
// Usage:
//
//	certify golden   [-seed N] [-duration 60s]
//	certify inject   [-plan E3-fig3 | -planfile f] [-fault MODEL] [-seed N] [-verbose]
//	certify campaign [-plan E3-fig3 | -planfile f] [-fault MODEL] [-runs 100] [-seed N]
//	                 [-csv] [-ci] [-out runs.jsonl|runs.jsonl.gz]
//	                 [-shards K -shard-index I -out shard-I.jsonl]
//	                 [-ci-width PP [-max-runs N] [-stratify]]
//	                 [-metrics-out metrics.json] [-cpuprofile f] [-memprofile f]
//	certify fanout   [-plan E3-fig3 | -planfile f] [-fault MODEL] [-runs 100] [-seed N]
//	                 [-shards K] [-parallel P] [-retries R] [-dir DIR]
//	                 [-ci-width PP [-max-runs N] [-stratify]]
//	                 [-gzip] [-stall 2m] [-csv] [-ci] [-metrics-out metrics.json]
//	                 [-cpuprofile f] [-memprofile f]
//	certify merge    [-csv] [-ci] [-index master-index.json] shard-*.jsonl[.gz]
//	certify inspect  [-run K] [-outcome NAME] [-grep REGEX] [-compare TARGET] [-raw]
//	                 runs.jsonl[.gz] | master-index.json | shard-*.jsonl[.gz]
//	certify report   [-runs 30] [-seed N]
//	certify plans
//	certify serve    [-addr HOST:PORT] [-data DIR] [-slots N] [-workers W]
//	                 [-max-runs N] [-skip-golden-check]
//	certify submit   [-server URL] [-plan E3-fig3 | -planfile f] [-fault MODEL]
//	                 [-runs 100] [-seed N] [-mode M] [-tenant NAME] [-wait=false]
//	                 [-ci-width PP [-max-runs N] [-stratify]]
//	certify watch    [-server URL] JOBID
//
// Exit codes are part of the CLI contract: 0 success, 1 I/O or
// execution failure, 2 usage (bad flags, unknown plan, bad
// combination), 3 campaign identity mismatch (an artefact, spec or
// merge input that names a different plan hash, seed, window, mode or
// fault model than the campaign at hand). "certify submit" maps the
// server's error classes onto the same codes, so scripts treat a
// remote campaign exactly like a local one.
//
// -fault selects a fault model from the registry (certify plans lists
// it): register (default), burst, ram, gic, irq-storm and friends. The
// model name becomes part of the plan's identity — it is written to the
// plan file, folded into the plan hash and recorded in every shard
// manifest, so artefacts produced under different models refuse to
// merge instead of blending silently.
//
// campaign -out names the JSONL evidence artefact, one record per run:
// a path ending in .jsonl, or .jsonl.gz for a gzip-compressed one. Any
// other path is a usage error.
//
// A campaign fans out across processes with -shards/-shard-index: each
// process executes one contiguous window of the run-index space,
// derives its seeds from the shared master-seed chain, and streams one
// JSONL evidence record per run to its -out file (gzip-compressed when
// the path ends in .gz). "certify merge" verifies the shard manifests
// and folds the files back into the exact single-process campaign
// aggregate. Completed shard files are skipped on rerun, so an
// interrupted fan-out resumes where it stopped.
//
// "certify fanout" is the one-command form: it supervises all K shard
// worker processes itself (re-execing this binary in a hidden
// fanout-worker mode), restarts crashed or stalled workers within
// -retries, shows live per-shard progress, writes a machine-readable
// fanout.json next to the shard artefacts, and auto-merges on
// completion — the same bit-identical aggregate, without hand-launching
// K processes and a merge.
//
// Every artefact is a self-indexed dossier: the writer appends an
// index footer (run offsets, outcomes, trace hashes, detection
// latencies) that "certify inspect" uses to answer reviewer queries —
// run K's evidence, all silent-degradation runs, per-outcome counts, a
// run-for-run comparison of two dossiers — in O(1) seeks instead of an
// archive scan. Pre-index artefacts and corrupted footers degrade to a
// sequential read with identical answers.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/dessertlab/certify/internal/analytics"
	"github.com/dessertlab/certify/internal/core"
	"github.com/dessertlab/certify/internal/dist"
	"github.com/dessertlab/certify/internal/fanout"
	"github.com/dessertlab/certify/internal/obs"
	"github.com/dessertlab/certify/internal/sim"
)

// writeMetricsJSON dumps the flight recorder (every obs metric: run
// durations, pool latencies, flush batches, ...) as JSON — the
// -metrics-out sink for batch runs that have no /metrics endpoint to
// scrape.
func writeMetricsJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.Default.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("flight recorder: %s\n", path)
	return nil
}

// resolvePlan loads a plan from -planfile when given, else by name.
func resolvePlan(name, file string) (*core.TestPlan, error) {
	if file != "" {
		text, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		return core.ParsePlan(string(text))
	}
	return lookupPlan(name)
}

// applyFault overrides the plan's fault model from the -fault flag. The
// override becomes part of the plan's identity (plan file, hash, shard
// manifests), so artefacts from different models never merge silently.
// An empty flag leaves the plan untouched — plan files keep their say.
func applyFault(plan *core.TestPlan, fault string) error {
	if fault == "" {
		return nil
	}
	if !core.FaultModelRegistered(fault) {
		return usagef("unknown fault model %q (registered: %s)",
			fault, strings.Join(core.FaultModelNames(), ", "))
	}
	if fault == core.DefaultFaultModelName {
		fault = "" // canonical spelling of the default, keeps plan hashes stable
	}
	plan.FaultName = fault
	return plan.Validate()
}

func main() {
	err := run(os.Args[1:])
	if err == nil {
		return
	}
	if errors.Is(err, flag.ErrHelp) {
		return // the FlagSet already printed its defaults
	}
	fmt.Fprintln(os.Stderr, "certify:", err)
	os.Exit(exitCode(err))
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return usagef("missing subcommand")
	}
	switch args[0] {
	case "golden":
		return cmdGolden(args[1:])
	case "inject":
		return cmdInject(args[1:])
	case "campaign":
		return cmdCampaign(args[1:])
	case "fanout":
		return cmdFanout(args[1:])
	case "fanout-worker":
		return cmdFanoutWorker(args[1:])
	case "merge":
		return cmdMerge(args[1:])
	case "inspect":
		return cmdInspect(args[1:])
	case "report":
		return cmdReport(args[1:])
	case "plans":
		return cmdPlans()
	case "serve":
		return cmdServe(args[1:])
	case "submit":
		return cmdSubmit(args[1:])
	case "watch":
		return cmdWatch(args[1:])
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return usagef("unknown subcommand %q", args[0])
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `certify — fault-injection assessment of a partitioning hypervisor
subcommands:
  golden     profile a fault-free run (injection-point activation counts)
  inject     execute one fault-injection run and print its verdict
  campaign   run a full campaign (or one shard of it) and print the outcome distribution
  fanout     supervise a sharded campaign end to end: spawn K shard workers,
             restart crashed/stalled ones, auto-merge, write fanout.json
  merge      verify and fold shard JSONL artefacts into one campaign result
  inspect    query archive dossiers without scanning them: run K's evidence,
             runs by outcome, per-outcome counts, compare two dossiers
  report     run the standard campaigns and emit the SEooC dossier
  plans      list the built-in test plans
  serve      run the campaign server: HTTP/JSON submissions, fair multi-tenant
             queueing, content-addressed result cache, live streaming
  submit     post a campaign to a running server and stream its progress
  watch      attach to a server job's live event stream
exit codes: 0 ok, 1 failure, 2 usage, 3 campaign mismatch`)
}

// lookupPlan resolves a built-in plan name through the shared registry
// the serve API uses too — one name space everywhere a spec can enter.
func lookupPlan(name string) (*core.TestPlan, error) {
	p, err := core.PlanByName(name)
	if err != nil {
		return nil, usagef("unknown plan %q (see 'certify plans')", name)
	}
	return p, nil
}

func cmdPlans() error {
	for _, name := range core.BuiltinPlanNames() {
		p, _ := core.PlanByName(name)
		fmt.Println(" ", p)
	}
	fmt.Println("fault models (-fault):", strings.Join(core.FaultModelNames(), ", "))
	return nil
}

func cmdGolden(args []string) error {
	fs := flag.NewFlagSet("golden", flag.ContinueOnError)
	seed := fs.Uint64("seed", 2022, "run seed")
	duration := fs.Duration("duration", time.Minute, "virtual run duration")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	gp, err := core.GoldenRun(*seed, sim.Time(*duration))
	if err != nil {
		return err
	}
	fmt.Print(analytics.ActivationTable(gp))
	fmt.Printf("trace hash: %#x (replays bit-identically for seed %d)\n", gp.TraceHash, *seed)
	return nil
}

func cmdInject(args []string) error {
	fs := flag.NewFlagSet("inject", flag.ContinueOnError)
	planName := fs.String("plan", "E3-fig3", "test plan name")
	planFile := fs.String("planfile", "", "load the plan from a plan file instead")
	fault := fs.String("fault", "", "fault model override (see 'certify plans' for the registry)")
	seed := fs.Uint64("seed", 1, "run seed")
	verbose := fs.Bool("verbose", false, "print consoles and injection log")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	plan, err := resolvePlan(*planName, *planFile)
	if err != nil {
		return err
	}
	if err := applyFault(plan, *fault); err != nil {
		return err
	}
	res, err := core.RunExperiment(plan, *seed)
	if err != nil {
		return err
	}
	fmt.Printf("plan %s, seed %#x → %v\n", res.Plan, res.Seed, res.Outcome())
	for _, e := range res.Verdict.Evidence {
		fmt.Println("  evidence:", e)
	}
	fmt.Printf("  injections: %d over %d matching calls\n", len(res.Injections), totalCalls(res))
	for _, rec := range res.Injections {
		fmt.Println("   ", rec)
	}
	if *verbose {
		fmt.Println("--- root console ---")
		fmt.Print(res.RootTranscript)
		fmt.Println("--- cell console ---")
		fmt.Print(res.CellTranscript)
		fmt.Println("--- hypervisor console ---")
		for _, l := range res.HVConsole {
			fmt.Println(l)
		}
	}
	return nil
}

func totalCalls(res *core.RunResult) uint64 {
	var n uint64
	for _, c := range res.CallCounts {
		n += c
	}
	return n
}

// parseModeFlag maps the shared -mode flag value to a campaign mode,
// with a flag-shaped error.
func parseModeFlag(s string) (core.CampaignMode, error) {
	mode, err := core.ParseCampaignMode(s)
	if err != nil {
		return 0, usagef("unknown -mode %q (want full or distribution)", s)
	}
	return mode, nil
}

// campaignFlags is the parsed + validated campaign flag set.
type campaignFlags struct {
	plan       *core.TestPlan
	runs       int
	seed       uint64
	csv, ci    bool
	mode       core.CampaignMode
	outJSONL   string // streaming JSONL artefact path ("" = none)
	shards     int
	shardIndex int
	metricsOut string         // flight-recorder JSON dump path ("" = none)
	stop       *core.StopSpec // adaptive stop policy (nil = fixed-N)
	stratify   bool
}

// adaptiveStop converts the -ci-width/-max-runs pair into a stop spec.
// -max-runs is the adaptive campaign's guard: it replaces the run count
// (the returned int), making "stop at the CI target or at N, whichever
// first" read naturally on the command line.
func adaptiveStop(ciWidth float64, maxRuns, runs int) (*core.StopSpec, int, error) {
	if ciWidth < 0 {
		return nil, 0, fmt.Errorf("-ci-width must be non-negative, got %v", ciWidth)
	}
	if maxRuns != 0 && ciWidth == 0 {
		return nil, 0, fmt.Errorf("-max-runs is the adaptive stop's guard and needs -ci-width")
	}
	if ciWidth == 0 {
		return nil, runs, nil
	}
	if maxRuns > 0 {
		runs = maxRuns
	}
	spec := &core.StopSpec{Policy: core.StopPolicyCIWidth, WidthBP: int(math.Round(ciWidth * 100))}
	if err := spec.Validate(); err != nil {
		return nil, 0, err
	}
	return spec, runs, nil
}

// printStopDecision reports where an adaptive campaign's certified
// prefix ended.
func printStopDecision(res *core.CampaignResult) {
	if res.Stop == nil {
		return
	}
	if res.Stop.Fired {
		fmt.Printf("adaptive stop: CI target met — certified prefix of %d runs\n", res.Stop.DecidedAt)
	} else {
		fmt.Printf("adaptive stop: CI target not met by the max-N guard (%d runs)\n", res.Stop.DecidedAt)
	}
}

// validateCampaignFlags enforces the -out/-shards/-shard-index
// contract. Every rejection names the offending combination and the
// fix; the CLI surfaces them on stderr with a non-zero exit code.
func validateCampaignFlags(f *campaignFlags, out string, shardIndexSet bool) error {
	if f.runs <= 0 {
		return fmt.Errorf("-runs must be positive, got %d", f.runs)
	}
	if out != "" && !strings.HasSuffix(out, ".jsonl") && !strings.HasSuffix(out, ".jsonl.gz") {
		return fmt.Errorf("-out %s: the artefact is a JSONL stream; name a .jsonl or .jsonl.gz file", out)
	}
	f.outJSONL = out
	if f.shards < 1 {
		return fmt.Errorf("-shards must be at least 1, got %d", f.shards)
	}
	if f.shards > f.runs {
		return fmt.Errorf("-shards %d exceeds -runs %d: at most one shard per run", f.shards, f.runs)
	}
	if f.shards > 1 && !shardIndexSet {
		return fmt.Errorf("-shards %d splits the campaign across %d processes; tell this one which window to run with -shard-index 0..%d", f.shards, f.shards, f.shards-1)
	}
	if shardIndexSet {
		if f.shards == 1 {
			return fmt.Errorf("-shard-index only makes sense with -shards K (K > 1); drop it or add -shards")
		}
		if f.shardIndex < 0 || f.shardIndex >= f.shards {
			return fmt.Errorf("-shard-index %d out of range: -shards %d allows 0..%d", f.shardIndex, f.shards, f.shards-1)
		}
	}
	if f.shards > 1 && f.outJSONL == "" {
		return fmt.Errorf("sharded campaigns stream per-run evidence for the merge step; give each shard its own artefact with -out shard-%d.jsonl", f.shardIndex)
	}
	return nil
}

func cmdCampaign(args []string) (err error) {
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	planName := fs.String("plan", "E3-fig3", "test plan name")
	planFile := fs.String("planfile", "", "load the plan from a plan file instead")
	fault := fs.String("fault", "", "fault model override (see 'certify plans' for the registry)")
	runs := fs.Int("runs", 100, "number of runs (total across all shards)")
	seed := fs.Uint64("seed", 2022, "master seed")
	csv := fs.Bool("csv", false, "emit CSV instead of the bar figure")
	ci := fs.Bool("ci", false, "print 95% Wilson confidence intervals")
	out := fs.String("out", "", "artefact sink: FILE.jsonl (or FILE.jsonl.gz) streams one record per run")
	mode := fs.String("mode", "full", "evidence retention: full (transcripts + per-run artefacts) or distribution (streaming aggregation, fastest)")
	shards := fs.Int("shards", 1, "split the campaign into K contiguous shards for multi-process fan-out")
	shardIndex := fs.Int("shard-index", 0, "which shard this process runs (0..K-1); requires -shards")
	metricsOut := fs.String("metrics-out", "", "write the flight-recorder metrics snapshot (JSON) here after the campaign")
	ciWidth := fs.Float64("ci-width", 0, "adaptive stop: halt once every outcome's 95% CI is narrower than this many percentage points (0 = fixed-N)")
	maxRuns := fs.Int("max-runs", 0, "adaptive max-N guard: cap the campaign at this many runs (requires -ci-width; replaces -runs)")
	stratify := fs.Bool("stratify", false, "rotate runs over register-class strata (args / callee-saved / control); full-GPR plans only")
	prof := addProfileFlags(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	plan, err := resolvePlan(*planName, *planFile)
	if err != nil {
		return err
	}
	if err := applyFault(plan, *fault); err != nil {
		return err
	}
	cf := &campaignFlags{
		plan: plan, runs: *runs, seed: *seed, csv: *csv, ci: *ci,
		shards: *shards, shardIndex: *shardIndex, metricsOut: *metricsOut,
		stratify: *stratify,
	}
	if cf.stop, cf.runs, err = adaptiveStop(*ciWidth, *maxRuns, cf.runs); err != nil {
		return asUsage(err)
	}
	if cf.mode, err = parseModeFlag(*mode); err != nil {
		return err
	}
	shardIndexSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "shard-index" {
			shardIndexSet = true
		}
	})
	if err := validateCampaignFlags(cf, *out, shardIndexSet); err != nil {
		return asUsage(err)
	}
	stop, err := prof.start("")
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stop()) }()

	fmt.Println("plan:", plan)
	if cf.outJSONL != "" {
		return runShardedCampaign(cf)
	}

	c := &core.Campaign{Plan: plan, Runs: cf.runs, MasterSeed: cf.seed, Mode: cf.mode, Stratify: cf.stratify}
	if cf.stop != nil {
		policy, err := analytics.NewStopPolicy(cf.stop)
		if err != nil {
			return err
		}
		c.Stop = policy
	}
	res, err := c.Execute(context.Background())
	if err != nil {
		return err
	}
	printStopDecision(res)
	printDistribution(cf, res)
	if cf.mode == core.ModeFull && !cf.csv {
		fmt.Print(analytics.InjectionSummary(res))
	}
	if cf.metricsOut != "" {
		return writeMetricsJSON(cf.metricsOut)
	}
	return nil
}

// runShardedCampaign executes one shard (the whole campaign when
// -shards is 1) through the dist subsystem, streaming JSONL evidence.
func runShardedCampaign(cf *campaignFlags) error {
	spec := &dist.Spec{
		Plan: cf.plan, Runs: cf.runs, MasterSeed: cf.seed,
		Shards: cf.shards, Mode: cf.mode,
		Stop: cf.stop, Stratify: cf.stratify,
	}
	sh, err := spec.Shard(cf.shardIndex)
	if err != nil {
		return err
	}
	fmt.Printf("shard %d/%d: runs [%d, %d) of %d, plan hash %#x\n",
		cf.shardIndex, cf.shards, sh.Start, sh.End, cf.runs, cf.plan.Hash())
	res, skipped, err := dist.ExecuteShard(context.Background(), spec, cf.shardIndex, 0, cf.outJSONL)
	if err != nil {
		return err
	}
	if skipped {
		fmt.Printf("%s already holds this shard, completed — skipped (merge-ready)\n", cf.outJSONL)
	} else {
		fmt.Printf("wrote %d run records + manifest + summary to %s\n", res.Total(), cf.outJSONL)
	}
	printStopDecision(res)
	printDistribution(cf, res)
	// Full mode retains the runs, so the injection summary is available
	// exactly as on the unsharded path (a resumed shard reloads only the
	// aggregate, so there is nothing to summarise then).
	if cf.mode == core.ModeFull && !cf.csv && len(res.Runs) > 0 {
		fmt.Print(analytics.InjectionSummary(res))
	}
	if cf.shards > 1 {
		fmt.Printf("(shard aggregate only — fold all %d shards with 'certify merge')\n", cf.shards)
	}
	if cf.metricsOut != "" {
		return writeMetricsJSON(cf.metricsOut)
	}
	return nil
}

// printDistribution renders a campaign (or shard) aggregate per flags.
func printDistribution(cf *campaignFlags, res *core.CampaignResult) {
	d := analytics.FromCampaign(cf.plan.Name, res)
	if cf.csv {
		fmt.Print(d.CSV())
		return
	}
	if cf.ci {
		fmt.Print(d.TableWithCI())
		fmt.Println()
	}
	fmt.Print(d.Bars(50))
	fmt.Println()
}

// cmdMerge verifies shard artefacts and prints the merged campaign.
func cmdMerge(args []string) error {
	fs := flag.NewFlagSet("merge", flag.ContinueOnError)
	csv := fs.Bool("csv", false, "emit CSV instead of the bar figure")
	ci := fs.Bool("ci", false, "print 95% Wilson confidence intervals")
	index := fs.String("index", "", "also compose the shard footers into a master index document at this path")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	paths := fs.Args()
	if len(paths) == 0 {
		return usagef("merge needs the shard artefact files: certify merge shard-*.jsonl")
	}
	res, shards, err := dist.Merge(paths)
	if err != nil {
		return err
	}
	first := shards[0].Manifest
	fmt.Printf("merged %d shards, %d runs, plan %s (hash %s), master seed %s\n",
		len(shards), res.Total(), first.Plan, first.PlanHash, first.MasterSeed)
	if *index != "" {
		if _, err := dist.WriteMasterIndexFile(*index, paths); err != nil {
			return err
		}
		fmt.Printf("master index: %s (inspect with 'certify inspect %s')\n", *index, *index)
	}
	cf := &campaignFlags{csv: *csv, ci: *ci}
	cf.plan = &core.TestPlan{Name: first.Plan}
	printStopDecision(res)
	printDistribution(cf, res)
	return nil
}

// fanoutFlags is the parsed + validated fanout flag set.
type fanoutFlags struct {
	plan       *core.TestPlan
	runs       int
	seed       uint64
	shards     int
	parallel   int
	retries    int
	dir        string
	mode       core.CampaignMode
	gzip       bool
	stall      time.Duration
	inproc     bool
	quiet      bool
	csv, ci    bool
	metricsOut string
	stop       *core.StopSpec
	stratify   bool
	prof       profileFlags
}

// validateFanoutFlags rejects unrunnable configurations with errors
// that name the fix, before any worker launches.
func validateFanoutFlags(f *fanoutFlags) error {
	if f.runs <= 0 {
		return fmt.Errorf("-runs must be positive, got %d", f.runs)
	}
	if f.shards < 1 {
		return fmt.Errorf("-shards must be at least 1, got %d", f.shards)
	}
	if f.shards > f.runs {
		return fmt.Errorf("-shards %d exceeds -runs %d: at most one shard per run", f.shards, f.runs)
	}
	if f.parallel < 0 {
		return fmt.Errorf("-parallel must be >= 0 (0 = min(shards, GOMAXPROCS)), got %d", f.parallel)
	}
	if f.retries < 0 {
		return fmt.Errorf("-retries must be >= 0, got %d", f.retries)
	}
	if f.stall < 0 {
		return fmt.Errorf("-stall must be >= 0 (0 disables the watchdog), got %v", f.stall)
	}
	if f.dir == "" {
		return fmt.Errorf("fanout needs a campaign directory; the default should have filled it")
	}
	return nil
}

// cmdFanout is the one-command distributed campaign: supervise K shard
// workers, restart failures, merge, report.
func cmdFanout(args []string) error {
	fs := flag.NewFlagSet("fanout", flag.ContinueOnError)
	planName := fs.String("plan", "E3-fig3", "test plan name")
	planFile := fs.String("planfile", "", "load the plan from a plan file instead")
	fault := fs.String("fault", "", "fault model override (see 'certify plans' for the registry)")
	runs := fs.Int("runs", 100, "number of runs (total across all shards)")
	seed := fs.Uint64("seed", 2022, "master seed")
	shards := fs.Int("shards", 4, "shard worker count K")
	parallel := fs.Int("parallel", 0, "concurrently running workers (0 = min(shards, GOMAXPROCS))")
	retries := fs.Int("retries", 2, "per-shard restart budget for crashed or stalled workers")
	dir := fs.String("dir", "", "campaign directory for artefacts, spec.json and fanout.json (default fanout-<plan>-<seed>)")
	mode := fs.String("mode", "distribution", "evidence retention inside each worker: full or distribution")
	gz := fs.Bool("gzip", false, "compress shard artefacts (shard-NN.jsonl.gz)")
	stall := fs.Duration("stall", 2*time.Minute, "kill a worker whose artefact stops growing for this long (0 disables)")
	inproc := fs.Bool("inproc", false, "run shard workers as goroutines instead of re-exec'd processes")
	quiet := fs.Bool("quiet", false, "suppress the live progress line")
	csv := fs.Bool("csv", false, "emit CSV instead of the bar figure")
	ci := fs.Bool("ci", false, "print 95% Wilson confidence intervals")
	metricsOut := fs.String("metrics-out", "", "write the flight-recorder metrics snapshot (JSON) here after the fan-out")
	ciWidth := fs.Float64("ci-width", 0, "adaptive stop: halt once every outcome's 95% CI is narrower than this many percentage points (0 = fixed-N)")
	maxRuns := fs.Int("max-runs", 0, "adaptive max-N guard: cap the campaign at this many runs (requires -ci-width; replaces -runs)")
	stratify := fs.Bool("stratify", false, "rotate runs over register-class strata (args / callee-saved / control); full-GPR plans only")
	prof := addProfileFlags(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	plan, err := resolvePlan(*planName, *planFile)
	if err != nil {
		return err
	}
	if err := applyFault(plan, *fault); err != nil {
		return err
	}
	ff := &fanoutFlags{
		plan: plan, runs: *runs, seed: *seed, shards: *shards,
		parallel: *parallel, retries: *retries, dir: *dir,
		gzip: *gz, stall: *stall, inproc: *inproc, quiet: *quiet,
		csv: *csv, ci: *ci, metricsOut: *metricsOut, stratify: *stratify,
		prof: prof,
	}
	if ff.stop, ff.runs, err = adaptiveStop(*ciWidth, *maxRuns, ff.runs); err != nil {
		return asUsage(err)
	}
	if ff.mode, err = parseModeFlag(*mode); err != nil {
		return err
	}
	if ff.dir == "" {
		ff.dir = fmt.Sprintf("fanout-%s-%d", plan.Name, *seed)
	}
	if err := validateFanoutFlags(ff); err != nil {
		return asUsage(err)
	}
	return runFanout(ff)
}

// runFanout executes a validated fan-out and reports the merged result.
func runFanout(ff *fanoutFlags) (err error) {
	spec := &dist.Spec{
		Plan: ff.plan, Runs: ff.runs, MasterSeed: ff.seed,
		Shards: ff.shards, Mode: ff.mode,
		Stop: ff.stop, Stratify: ff.stratify,
	}
	var launcher fanout.Launcher = fanout.InProcess{}
	if !ff.inproc {
		launcher = &fanout.Exec{
			Args:   append([]string{"fanout-worker"}, ff.prof.workerArgs()...),
			Stderr: os.Stderr,
			// Lets a test binary acting as the supervisor route its
			// re-exec'd children into worker mode; the real certify
			// binary ignores it.
			Env: []string{"CERTIFY_FANOUT_WORKER=1"},
		}
	}
	cfg := fanout.Config{
		Spec: spec, Dir: ff.dir, Parallel: ff.parallel,
		Retries: ff.retries, Launcher: launcher,
		Gzip: ff.gzip, StallTimeout: ff.stall,
	}
	if !ff.quiet {
		cfg.OnProgress = newProgressPrinter()
	}
	stop, err := ff.prof.start("")
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stop()) }()

	fmt.Println("plan:", ff.plan)
	fmt.Printf("fanout: %d runs over %d shards (parallel %s, retries %d) → %s\n",
		ff.runs, ff.shards, orAuto(ff.parallel), ff.retries, ff.dir)
	res, err := fanout.Run(context.Background(), cfg)
	if !ff.quiet {
		fmt.Fprintln(os.Stderr) // finish the progress line
	}
	if err != nil {
		if res != nil && res.ManifestPath != "" {
			fmt.Fprintf(os.Stderr, "certify: worker history in %s\n", res.ManifestPath)
		}
		return err
	}

	skipped := 0
	for _, w := range res.Manifest.Workers {
		if w.State == fanout.StateSkipped {
			skipped++
		}
	}
	fmt.Printf("merged %d shards (%d resumed), %d runs, plan hash %s, master seed %s\n",
		len(res.Shards), skipped, res.Merged.Total(), res.Manifest.PlanHash, res.Manifest.MasterSeed)
	fmt.Printf("worker manifest: %s\n", res.ManifestPath)
	if t := res.Manifest.Timing; t != nil {
		fmt.Printf("timing: %.2fs elapsed, %.1f runs/s\n", t.ElapsedSeconds, t.RunsPerSec)
	}
	cf := &campaignFlags{plan: ff.plan, csv: ff.csv, ci: ff.ci}
	printStopDecision(res.Merged)
	printDistribution(cf, res.Merged)
	if ff.metricsOut != "" {
		return writeMetricsJSON(ff.metricsOut)
	}
	return nil
}

// orAuto renders a 0-valued bound as "auto" in status lines.
func orAuto(n int) string {
	if n <= 0 {
		return fmt.Sprintf("auto/%d", runtime.GOMAXPROCS(0))
	}
	return fmt.Sprint(n)
}

// newProgressPrinter returns the live status-line renderer (stderr):
//
//	[fanout] 23/40 runs | s0 done 13/13 | s1 run 7/13 (try 2) | s2 run 3/14
//
// The closure remembers the previous line's width and pads the rewrite,
// so a shrinking line leaves no stale characters behind.
func newProgressPrinter() func(fanout.Snapshot) {
	prev := 0
	return func(s fanout.Snapshot) {
		var b strings.Builder
		fmt.Fprintf(&b, "[fanout] %d/%d runs", s.RunsDone, s.RunsTotal)
		for _, sh := range s.Shards {
			state := "wait"
			switch sh.State {
			case fanout.StateRunning:
				state = "run"
			case fanout.StateCompleted:
				state = "done"
			case fanout.StateSkipped:
				state = "skip"
			case fanout.StateFailed:
				state = "FAIL"
			case fanout.StateAborted:
				state = "abort"
			}
			fmt.Fprintf(&b, " | s%d %s %d/%d", sh.Index, state, sh.Runs, sh.Window)
			if sh.Attempt > 1 {
				fmt.Fprintf(&b, " (try %d)", sh.Attempt)
			}
		}
		line := b.String()
		pad := ""
		if n := prev - len(line); n > 0 {
			pad = strings.Repeat(" ", n)
		}
		prev = len(line)
		fmt.Fprint(os.Stderr, "\r"+line+pad)
	}
}

// cmdFanoutWorker is the hidden worker mode the fanout supervisor
// re-execs: load the published spec, execute one shard, exit. Its exit
// status is advisory — the supervisor judges the attempt by the
// artefact the worker leaves behind.
func cmdFanoutWorker(args []string) (err error) {
	fs := flag.NewFlagSet("fanout-worker", flag.ContinueOnError)
	specPath := fs.String("spec", "", "spec.json published by the supervisor")
	index := fs.Int("index", -1, "shard index to execute")
	out := fs.String("out", "", "shard artefact path")
	workers := fs.Int("workers", 0, "campaign parallelism inside this worker (0 = GOMAXPROCS)")
	prof := addProfileFlags(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *specPath == "" || *out == "" || *index < 0 {
		return usagef("fanout-worker is launched by 'certify fanout' and needs -spec, -index and -out")
	}
	stop, err := prof.start(fmt.Sprintf(".shard-%02d", *index))
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stop()) }()
	spec, err := dist.ReadSpecFile(*specPath)
	if err != nil {
		return err
	}
	res, skipped, err := dist.ExecuteShard(context.Background(), spec, *index, *workers, *out)
	if err != nil {
		return err
	}
	if skipped {
		fmt.Printf("shard %d already complete in %s\n", *index, *out)
		return nil
	}
	fmt.Printf("shard %d: %d runs → %s\n", *index, res.Total(), *out)
	return nil
}

func cmdReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	runs := fs.Int("runs", 30, "runs per campaign")
	seed := fs.Uint64("seed", 2022, "master seed")
	duration := fs.Duration("duration", time.Minute, "virtual run duration")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	report, err := core.QuickAssessment(*seed, *runs, sim.Time(*duration))
	if err != nil {
		return err
	}
	fmt.Print(report.Render())
	return nil
}
