// Package certify_test holds the benchmark harness that regenerates every
// experiment in the paper's evaluation (§III) plus the ablations listed
// in DESIGN.md. Each benchmark reports the same series the paper reports
// via b.ReportMetric — e.g. the Figure 3 campaign reports correct_pct,
// panic_park_pct and cpu_park_pct. Absolute run counts are scaled down by
// default; raise -benchtime for larger campaigns.
//
// Run everything:  go test -bench=. -benchmem
// One experiment:  go test -bench=BenchmarkFigure3 -benchmem
package certify_test

import (
	"bufio"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/dessertlab/certify/internal/analytics"
	"github.com/dessertlab/certify/internal/armv7"
	"github.com/dessertlab/certify/internal/board"
	"github.com/dessertlab/certify/internal/core"
	"github.com/dessertlab/certify/internal/dist"
	"github.com/dessertlab/certify/internal/fanout"
	"github.com/dessertlab/certify/internal/gic"
	"github.com/dessertlab/certify/internal/jailhouse"
	"github.com/dessertlab/certify/internal/obs"
	"github.com/dessertlab/certify/internal/sim"
)

// campaignRuns is the per-iteration campaign size for experiment benches.
const campaignRuns = 40

// reportDistribution publishes a campaign's outcome shares as benchmark
// metrics — the benchmark output *is* the paper's figure data.
func reportDistribution(b *testing.B, res *core.CampaignResult) {
	b.Helper()
	b.ReportMetric(100*res.Fraction(core.OutcomeCorrect), "correct_pct")
	b.ReportMetric(100*res.Fraction(core.OutcomePanicPark), "panic_park_pct")
	b.ReportMetric(100*res.Fraction(core.OutcomeCPUPark), "cpu_park_pct")
	b.ReportMetric(100*res.Fraction(core.OutcomeInvalidArgs), "invalid_args_pct")
	b.ReportMetric(100*res.Fraction(core.OutcomeInconsistent), "inconsistent_pct")
	b.ReportMetric(float64(res.InjectionsTotal())/float64(res.Total()), "inj_per_run")
}

func runCampaignBench(b *testing.B, plan *core.TestPlan) {
	b.Helper()
	var last *core.CampaignResult
	for i := 0; i < b.N; i++ {
		c := &core.Campaign{Plan: plan, Runs: campaignRuns, MasterSeed: 2022 + uint64(i)}
		res, err := c.Execute(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	reportDistribution(b, last)
}

// BenchmarkG0GoldenRun regenerates the paper's profiling step: a
// fault-free run counting activations of the three candidate functions.
func BenchmarkG0GoldenRun(b *testing.B) {
	var gp *core.GoldenProfile
	for i := 0; i < b.N; i++ {
		var err error
		gp, err = core.GoldenRun(uint64(i), sim.Minute)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(gp.Activation[jailhouse.PointTrap]), "trap_calls")
	b.ReportMetric(float64(gp.Activation[jailhouse.PointHVC]), "hvc_calls")
	b.ReportMetric(float64(gp.Activation[jailhouse.PointIRQChip]), "irq_calls")
	b.ReportMetric(float64(gp.CellLines), "cell_lines")
}

// BenchmarkE1HighIntensityRootHVC regenerates E1 on arch_handle_hvc:
// high-intensity flips in root context → "Invalid argument", cell not
// allocated (invalid_args_pct dominates, panic_park_pct ≈ 0).
func BenchmarkE1HighIntensityRootHVC(b *testing.B) {
	runCampaignBench(b, core.PlanE1HVC())
}

// BenchmarkE1HighIntensityRootTrap regenerates E1 on arch_handle_trap.
func BenchmarkE1HighIntensityRootTrap(b *testing.B) {
	runCampaignBench(b, core.PlanE1Trap())
}

// BenchmarkE2HighIntensityCore1 regenerates E2: injections filtered to
// CPU core 1 break the cell bring-up — inconsistent_pct reports the
// paper's "allocated but broken, reported running" share.
func BenchmarkE2HighIntensityCore1(b *testing.B) {
	runCampaignBench(b, core.PlanE2Core1())
}

// BenchmarkFigure3MediumIntensityCampaign regenerates Figure 3: medium
// intensity on the non-root cell's arch_handle_trap stream. Compare
// correct_pct / panic_park_pct / cpu_park_pct with the paper's
// majority / 30% / limited split.
func BenchmarkFigure3MediumIntensityCampaign(b *testing.B) {
	runCampaignBench(b, core.PlanE3Fig3())
}

// BenchmarkAdaptiveCampaign measures what CI-driven early stopping buys
// on the Figure-3 workload: the campaign runs under a 5pp
// Clopper-Pearson width target with a 4000-run max-N guard, and the
// policy certifies a prefix well short of the guard. runs_saved_pct is
// the headline — the fraction of the fixed-N budget the adaptive
// engine did not have to spend for the same statistical resolution —
// and it must stay ≥ 30%. decided_at pins where the policy stopped;
// being a pure function of the seed chain, it is identical every
// iteration and across machines.
func BenchmarkAdaptiveCampaign(b *testing.B) {
	plan := *core.PlanE3Fig3()
	plan.Duration = 5 * sim.Second
	plan.Name = "E3-adaptive"
	const maxN = 4000
	spec := &core.StopSpec{Policy: core.StopPolicyCIWidth, WidthBP: 500}
	var last *core.CampaignResult
	for i := 0; i < b.N; i++ {
		policy, err := analytics.NewStopPolicy(spec)
		if err != nil {
			b.Fatal(err)
		}
		c := &core.Campaign{Plan: &plan, Runs: maxN, MasterSeed: 2022,
			Mode: core.ModeDistribution, Stop: policy}
		res, err := c.Execute(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last.Stop == nil || !last.Stop.Fired {
		b.Fatalf("5pp target did not fire within %d runs (decision %+v)", maxN, last.Stop)
	}
	decided := last.Stop.DecidedAt
	saved := 100 * float64(maxN-decided) / maxN
	if saved < 30 {
		b.Fatalf("adaptive stop saved only %.1f%% of the %d-run budget (decided at %d), want ≥ 30%%", saved, maxN, decided)
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(decided)*float64(b.N)/secs, "runs_per_sec")
	}
	b.ReportMetric(float64(decided), "decided_at")
	b.ReportMetric(saved, "runs_saved_pct")
	b.ReportMetric(100*last.Fraction(core.OutcomeCorrect), "correct_pct")
}

// BenchmarkA1OccurrenceSweep is the ablation over occurrence rates the
// paper lists as future work ("wider and customizable set of fault
// models"): the same E3 experiment at 1/25..1/400.
func BenchmarkA1OccurrenceSweep(b *testing.B) {
	rates := []int{25, 50, 100, 200, 400}
	for _, rate := range rates {
		rate := rate
		b.Run(rateName(rate), func(b *testing.B) {
			plan := *core.PlanE3Fig3()
			plan.Rate = rate
			plan.Name = "A1-" + rateName(rate)
			runCampaignBench(b, &plan)
		})
	}
}

func rateName(r int) string {
	switch r {
	case 25:
		return "rate-1-25"
	case 50:
		return "rate-1-50"
	case 100:
		return "rate-1-100"
	case 200:
		return "rate-1-200"
	default:
		return "rate-1-400"
	}
}

// BenchmarkA2RegisterClasses ablates the register set: argument
// registers vs callee-saved vs control-flow vs the full GPR file.
func BenchmarkA2RegisterClasses(b *testing.B) {
	classes := []struct {
		name   string
		fields []armv7.Field
	}{
		{"args-r0-r3", core.ArgFields},
		{"callee-r4-r11", core.CalleeSavedFields},
		{"control-sp-lr-pc", core.ControlFields},
		{"all-gprs", core.GPRFields},
	}
	for _, cl := range classes {
		cl := cl
		b.Run(cl.name, func(b *testing.B) {
			plan := *core.PlanE3Fig3()
			plan.Fields = cl.fields
			plan.Name = "A2-" + cl.name
			runCampaignBench(b, &plan)
		})
	}
}

// BenchmarkA3IRQChipInjection verifies the paper's reason for excluding
// irqchip_handle_irq: corrupting the IRQ number is predictable and
// harmless (correct_pct ≈ 100).
func BenchmarkA3IRQChipInjection(b *testing.B) {
	runCampaignBench(b, core.PlanA3IRQ())
}

// BenchmarkS1SEooCAssessment regenerates the certification-facing output:
// the assumption-of-use verdicts over the three experiment families.
func BenchmarkS1SEooCAssessment(b *testing.B) {
	var violated int
	for i := 0; i < b.N; i++ {
		report, err := core.QuickAssessment(uint64(i), 10, 20*sim.Second)
		if err != nil {
			b.Fatal(err)
		}
		violated = report.Violated()
	}
	b.ReportMetric(float64(violated), "violated_claims")
}

// BenchmarkCampaignThroughput is the repo's perf trajectory anchor: the
// campaign pipeline's sustained rate in runs per wall-clock second, at
// three campaign sizes and in both retention modes, on the full-length
// Figure-3 plan — every path a run can take: checkpoint starts,
// injections, convergence cut-offs and straight runs to the horizon.
// Distribution mode streams runs into counters (no transcripts, no
// retained results) and is the configuration production-scale campaigns
// use; Full mode is the dossier configuration. Compare the runs_per_sec
// metric across PRs (archives before the full-length plan ran a 5 s
// plan that almost never injected).
func BenchmarkCampaignThroughput(b *testing.B) {
	base := *core.PlanE3Fig3()
	base.Name = "E3-throughput"
	for _, n := range []int{40, 400, 4000} {
		for _, mode := range []core.CampaignMode{core.ModeFull, core.ModeDistribution} {
			n, mode := n, mode
			b.Run(fmt.Sprintf("runs-%d/%s", n, mode), func(b *testing.B) {
				plan := base
				var last *core.CampaignResult
				// Fixed master seed: every iteration runs the identical
				// campaign, so the reported metrics are comparable across
				// -benchtime settings and across PRs.
				for i := 0; i < b.N; i++ {
					c := &core.Campaign{Plan: &plan, Runs: n, MasterSeed: 2022, Mode: mode}
					res, err := c.Execute(context.Background())
					if err != nil {
						b.Fatal(err)
					}
					last = res
				}
				if secs := b.Elapsed().Seconds(); secs > 0 {
					b.ReportMetric(float64(n)*float64(b.N)/secs, "runs_per_sec")
				}
				b.ReportMetric(100*last.Fraction(core.OutcomeCorrect), "correct_pct")
			})
		}
	}
}

// BenchmarkObsOverhead quantifies the flight recorder's hot-path cost:
// the identical campaign with metric recording on vs off. The recording
// path is a handful of atomic adds and two clock reads per run, so the
// two rows' runs_per_sec must stay within 3% of each other — that bar
// (checked against BenchmarkCampaignThroughput across PRs) is what
// keeps instrumentation from quietly taxing every campaign.
func BenchmarkObsOverhead(b *testing.B) {
	plan := *core.PlanE3Fig3()
	plan.Duration = 5 * sim.Second
	plan.Name = "E3-obs-overhead"
	const runs = 400
	for _, on := range []bool{true, false} {
		on := on
		name := "metrics-on"
		if !on {
			name = "metrics-off"
		}
		b.Run(name, func(b *testing.B) {
			obs.SetEnabled(on)
			defer obs.SetEnabled(true) // recording is on by default
			var last *core.CampaignResult
			for i := 0; i < b.N; i++ {
				c := &core.Campaign{Plan: &plan, Runs: runs, MasterSeed: 2022, Mode: core.ModeDistribution}
				res, err := c.Execute(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(runs)*float64(b.N)/secs, "runs_per_sec")
			}
			b.ReportMetric(100*last.Fraction(core.OutcomeCorrect), "correct_pct")
		})
	}
}

// BenchmarkWarmMachineCampaign measures what the warm machine pool buys:
// "cold" rebuilds the whole stack per run (ColdBuild, the pre-reuse
// reference path), "pool" shares one warm pool across workers and
// across iterations, so from iteration 2 on no run builds a machine.
// The differential determinism suite pins both rows to identical
// results; runs_per_sec is the only number allowed to move.
func BenchmarkWarmMachineCampaign(b *testing.B) {
	plan := *core.PlanE3Fig3()
	plan.Duration = 5 * sim.Second
	plan.Name = "E3-warm-throughput"
	const runs = 400

	bench := func(b *testing.B, campaign func() *core.Campaign) {
		var last *core.CampaignResult
		for i := 0; i < b.N; i++ {
			res, err := campaign().Execute(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			last = res
		}
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(runs)*float64(b.N)/secs, "runs_per_sec")
		}
		b.ReportMetric(100*last.Fraction(core.OutcomeCorrect), "correct_pct")
	}

	b.Run("cold", func(b *testing.B) {
		// No machine reuse at all: every run builds from nothing. This is
		// the BuildMachine share the pool exists to close.
		bench(b, func() *core.Campaign {
			return &core.Campaign{Plan: &plan, Runs: runs, MasterSeed: 2022,
				Mode: core.ModeDistribution, ColdBuild: true}
		})
	})
	pool := core.NewMachinePool()
	b.Run("pool", func(b *testing.B) {
		bench(b, func() *core.Campaign {
			return &core.Campaign{Plan: &plan, Runs: runs, MasterSeed: 2022,
				Mode: core.ModeDistribution, Pool: pool}
		})
	})
}

// BenchmarkSnapshotRestore isolates the per-run machine recycling cost
// the pool pays: restoring the post-boot image over a machine that ran
// ("after-run", the steady state of a warm campaign) and the floor cost
// of restoring an undirtied machine ("clean"). The after-run row dirties
// the machine with a fixed mutation inside the timer instead of running
// it outside, so any benchtime, a duration included, works for it; its
// time includes the mutation.
func BenchmarkSnapshotRestore(b *testing.B) {
	opts := core.DefaultMachineOptions(1)
	m, err := core.BuildMachine(opts)
	if err != nil {
		b.Fatal(err)
	}
	m.CaptureSnapshot()

	b.Run("clean", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := m.Restore(opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	// dirty leaves what a run leaves for the restore to undo: a queued
	// event, a RAM word, the LED level, a line on each UART and trace
	// records.
	dirty := func() {
		m.Board.Engine.After(sim.Second, board.EvRaiseSPI, 40, 0)
		_ = m.Board.RAM.WriteWord(board.DRAMBase+0x100, 0xBAD)
		m.Board.GPIO.Set(!m.Board.GPIO.Get())
		m.Board.UART0.PutString("dirty\n")
		m.Board.UART7.PutString("dirty\n")
		for k := 0; k < 64; k++ {
			m.Board.Trace().Add(m.Board.Now(), sim.KindNote, -1, "dirty")
		}
	}
	b.Run("after-run", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dirty()
			if err := m.Restore(opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkShardedCampaign measures the distributed campaign path: the
// run-index space split into K shards, each executed through
// dist.ExecuteShard with streaming JSONL evidence, then folded back
// with dist.Merge. runs_per_sec is comparable with
// BenchmarkCampaignThroughput's distribution rows; the delta is the
// cost of per-run artefact capture (trace hashing + JSONL encoding)
// plus the merge. Shard artefacts are recreated every iteration —
// resume skipping would otherwise turn iterations 2..N into no-ops.
func BenchmarkShardedCampaign(b *testing.B) {
	plan := *core.PlanE3Fig3()
	plan.Duration = 5 * sim.Second
	plan.Name = "E3-sharded-throughput"
	const runs = 200
	for _, k := range []int{1, 4} {
		k := k
		b.Run(fmt.Sprintf("shards-%d", k), func(b *testing.B) {
			dir := b.TempDir()
			spec := &dist.Spec{
				Plan: &plan, Runs: runs, MasterSeed: 2022,
				Shards: k, Mode: core.ModeDistribution,
			}
			paths := make([]string, k)
			for i := range paths {
				paths[i] = filepath.Join(dir, fmt.Sprintf("shard-%d.jsonl", i))
			}
			var merged *core.CampaignResult
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, p := range paths {
					if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
						b.Fatal(err)
					}
				}
				for s := 0; s < k; s++ {
					if _, skipped, err := dist.ExecuteShard(context.Background(), spec, s, 0, paths[s]); err != nil {
						b.Fatal(err)
					} else if skipped {
						b.Fatal("shard skipped — stale artefact survived")
					}
				}
				res, _, err := dist.Merge(paths)
				if err != nil {
					b.Fatal(err)
				}
				merged = res
			}
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(runs)*float64(b.N)/secs, "runs_per_sec")
			}
			b.ReportMetric(100*merged.Fraction(core.OutcomeCorrect), "correct_pct")
		})
	}
}

// BenchmarkFanoutCampaign measures the supervised path end to end:
// fanout.Run planning the shards, launching in-process workers, tailing
// their artefacts, merging and writing fanout.json. runs_per_sec lines
// up with BenchmarkShardedCampaign (same shard execution underneath);
// the delta is the supervision overhead — tail polling, manifest
// bookkeeping and the post-completion merge. Each iteration uses a
// fresh campaign directory so resume skipping cannot turn iterations
// 2..N into no-ops.
func BenchmarkFanoutCampaign(b *testing.B) {
	plan := *core.PlanE3Fig3()
	plan.Duration = 5 * sim.Second
	plan.Name = "E3-fanout-throughput"
	const runs = 200
	for _, k := range []int{4} {
		k := k
		b.Run(fmt.Sprintf("shards-%d", k), func(b *testing.B) {
			root := b.TempDir()
			spec := &dist.Spec{
				Plan: &plan, Runs: runs, MasterSeed: 2022,
				Shards: k, Mode: core.ModeDistribution,
			}
			var merged *core.CampaignResult
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := fanout.Run(context.Background(), fanout.Config{
					Spec: spec, Dir: filepath.Join(root, fmt.Sprintf("iter-%d", i)),
					Poll: 10 * time.Millisecond,
				})
				if err != nil {
					b.Fatal(err)
				}
				merged = res.Merged
			}
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(runs)*float64(b.N)/secs, "runs_per_sec")
			}
			b.ReportMetric(100*merged.Fraction(core.OutcomeCorrect), "correct_pct")
		})
	}
}

// buildSyntheticDossier streams a complete 10k-run artefact without
// simulating anything: the dossier benchmarks measure the artefact
// layer, not the machine.
func buildSyntheticDossier(b *testing.B, path string, runs int) {
	b.Helper()
	spec := &dist.Spec{Plan: core.PlanE3Fig3(), Runs: runs, MasterSeed: 2022, Shards: 1, Mode: core.ModeDistribution}
	sh, err := spec.Shard(0)
	if err != nil {
		b.Fatal(err)
	}
	w, err := dist.CreateJSONL(path)
	if err != nil {
		b.Fatal(err)
	}
	agg := &core.CampaignResult{Plan: spec.Plan.Name}
	outcomes := []core.Outcome{core.OutcomeCorrect, core.OutcomeCorrect, core.OutcomePanicPark, core.OutcomeCPUPark}
	if err := w.WriteManifest(sh.Manifest()); err != nil {
		b.Fatal(err)
	}
	for k := 0; k < runs; k++ {
		r := &core.RunResult{
			Plan: spec.Plan.Name, Seed: uint64(k), Horizon: sim.Minute,
			Verdict:          core.Verdict{Outcome: outcomes[k%len(outcomes)]},
			DetectionLatency: -1, TraceHash: 0xa10df7f198db0642 ^ uint64(k),
		}
		w.OnRun(k, r)
		agg.AddSample(r.Outcome(), 0, r.DetectionLatency)
	}
	if err := w.WriteSummary(agg); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
}

// scanRunLookup is the pre-index archive workflow: sequentially decode
// the artefact until run k's record appears. The baseline the indexed
// dossier is measured against.
func scanRunLookup(b *testing.B, path string, k int) *dist.RunRecord {
	b.Helper()
	f, err := os.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	var r io.Reader = bufio.NewReaderSize(f, 64<<10)
	if strings.HasSuffix(path, ".gz") {
		zr, err := gzip.NewReader(r)
		if err != nil {
			b.Fatal(err)
		}
		defer zr.Close()
		r = zr
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	for sc.Scan() {
		var rec dist.RunRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			break // the index footer: line data ends here
		}
		if rec.Type == "run" && rec.Index == k {
			return &rec
		}
	}
	b.Fatalf("run %d not found in %s", k, path)
	return nil
}

// BenchmarkDossierRandomAccess measures what the index footer buys a
// certifying reviewer pulling single runs out of an archive-scale
// dossier: OpenDossier.Run(k) against the sequential-scan lookup, on a
// 10k-run artefact, plain and gzip. The acceptance bar is ≥50× —
// indexed lookups are O(1) file reads while the scan decodes half the
// archive per query on average. The read-shard and merge rows time the
// whole-artefact read side over the same file: dist.ReadShard, and
// dist.Merge of it as a one-shard campaign.
func BenchmarkDossierRandomAccess(b *testing.B) {
	const runs = 10_000
	for _, name := range []string{"runs.jsonl", "runs.jsonl.gz"} {
		path := filepath.Join(b.TempDir(), name)
		buildSyntheticDossier(b, path, runs)
		label := "plain"
		if strings.HasSuffix(name, ".gz") {
			label = "gzip"
		}
		b.Run(label+"/indexed", func(b *testing.B) {
			d, err := dist.OpenDossier(path)
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			if !d.Indexed() {
				b.Fatal("benchmark artefact did not open indexed")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := (i * 7919) % runs
				rec, err := d.Run(k)
				if err != nil {
					b.Fatal(err)
				}
				if rec.Index != k {
					b.Fatalf("Run(%d) returned run %d", k, rec.Index)
				}
			}
		})
		b.Run(label+"/scan", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k := (i * 7919) % runs
				if rec := scanRunLookup(b, path, k); rec.Index != k {
					b.Fatalf("scan(%d) returned run %d", k, rec.Index)
				}
			}
		})
		b.Run(label+"/read-shard", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sf, err := dist.ReadShard(path)
				if err != nil || !sf.Complete || sf.Records != runs {
					b.Fatalf("ReadShard: %v", err)
				}
			}
		})
		b.Run(label+"/merge", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				merged, _, err := dist.Merge([]string{path})
				if err != nil || merged.Total() != runs {
					b.Fatalf("Merge: %v", err)
				}
			}
		})
	}
}

// TestTraceArenaPresize pins the PR 1 leftover: pre-sizing the trace
// record arena from the plan profile (core.TraceBudget) must eliminate
// the append-growth allocations the arena used to pay. Before/after is
// asserted at two levels: the arena itself (exact — a budgeted trace
// absorbs a real run's records in its two up-front allocations), and a
// full cold machine build + run (the budgeted configuration must
// allocate strictly less than the unhinted one). Whether the budget
// covers every builtin plan's peak use is TestTraceBudgetCoversBuiltinPlans
// in internal/core.
func TestTraceArenaPresize(t *testing.T) {
	plan := *core.PlanE3Fig3()
	plan.Duration = 5 * sim.Second
	recBudget, argBudget := core.TraceBudget(&plan)
	if recBudget <= 0 || argBudget <= 0 {
		t.Fatalf("TraceBudget(%v) = %d recs / %d args — not a usable profile", plan.Duration, recBudget, argBudget)
	}

	// Arena level: replaying a real E3-fig3 run's records, append by
	// append, into a fresh trace costs exactly the two arena allocations
	// when pre-sized, and a doubling cascade when not.
	src, err := core.BuildMachine(core.DefaultMachineOptions(2022))
	if err != nil {
		t.Fatal(err)
	}
	src.Run(plan.EffectiveDuration())
	recs := src.Board.Trace().Records()
	if len(recs) == 0 || len(recs) > recBudget {
		t.Fatalf("a %v E3-fig3 run holds %d records; budget %d", plan.Duration, len(recs), recBudget)
	}
	fill := func(tr *sim.Trace) {
		for _, r := range recs {
			tr.Add(r.At, r.Kind, r.CPU, r.Msg)
		}
	}
	presized := testing.AllocsPerRun(3, func() {
		tr := sim.NewTrace()
		tr.Grow(recBudget, argBudget)
		fill(tr)
	})
	grown := testing.AllocsPerRun(3, func() {
		fill(sim.NewTrace())
	})
	if presized > 3 { // trace + two arenas
		t.Errorf("pre-sized arena fill allocates %.0f times, want ≤ 3", presized)
	}
	if grown <= presized+4 {
		t.Errorf("append-grown arena fill allocates %.0f times vs %.0f pre-sized — the growth cascade this assertion guards is gone?", grown, presized)
	}

	// Machine level: a cold build + run with the plan-profile hint must
	// allocate strictly less than the same run without it. (Campaign
	// paths pass the hint via RunExperimentOpts; this compares the raw
	// before/after.)
	buildAndRun := func(hint bool) float64 {
		return testing.AllocsPerRun(1, func() {
			opts := core.DefaultMachineOptions(2022)
			if hint {
				opts.TraceRecords, opts.TraceArgs = recBudget, argBudget
			}
			m, err := core.BuildMachine(opts)
			if err != nil {
				t.Fatal(err)
			}
			m.Run(plan.EffectiveDuration())
		})
	}
	before, after := buildAndRun(false), buildAndRun(true)
	if after >= before {
		t.Errorf("plan-profile trace pre-sizing: %.0f allocs with hint, %.0f without — no improvement", after, before)
	}
}

// ---- Micro-benchmarks of the hot paths ----

// traceRewindPeriod is how many hot-path iterations append to a
// micro-benchmark machine's trace between two rewinds.
const traceRewindPeriod = 4096

// benchOnMachine times fn, one hot-path operation on m, b.N times. The
// machine's trace so far is published, and the records fn appends are
// rewound every traceRewindPeriod iterations outside the timer, after an
// untimed warm-up period has grown the trace arena to hold them, so B/op
// reports the path's own allocations and not the arena's amortised
// doubling.
func benchOnMachine(b *testing.B, m *core.Machine, fn func()) {
	tr := m.Board.Trace()
	log := tr.Publish(nil)
	mark := tr.Mark()
	for i := 0; i < traceRewindPeriod; i++ {
		fn()
	}
	tr.Rewind(log, mark)
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		fn()
		if i%traceRewindPeriod == 0 {
			b.StopTimer()
			tr.Rewind(log, mark)
			b.StartTimer()
		}
	}
}

// BenchmarkHypercallPath measures one full HVC round trip (guest →
// ArchHandleTrap → ArchHandleHVC → dispatch → merge-restore).
func BenchmarkHypercallPath(b *testing.B) {
	m, err := core.BuildMachine(core.DefaultMachineOptions(1))
	if err != nil {
		b.Fatal(err)
	}
	benchOnMachine(b, m, func() {
		if e := m.HV.HVC(0, jailhouse.HCHypervisorGetInfo, jailhouse.InfoNumCells, 0); e.Failed() {
			b.Fatal(e)
		}
	})
}

// BenchmarkTrapMMIOEmulation measures one trapped GICD read.
func BenchmarkTrapMMIOEmulation(b *testing.B) {
	m, err := core.BuildMachine(core.DefaultMachineOptions(2))
	if err != nil {
		b.Fatal(err)
	}
	benchOnMachine(b, m, func() {
		if _, err := m.HV.GuestRead32(1, board.GICDBase+gic.GICDTyper); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkInjectorHook measures the instrumentation overhead of one
// armed hook evaluation (the cost the dozen patched lines add per trap).
func BenchmarkInjectorHook(b *testing.B) {
	plan := core.PlanE3Fig3()
	rng := sim.NewRNG(7)
	inj, err := core.NewInjector(plan, core.DefaultProfile(), rng, func() sim.Time { return 3 * sim.Second })
	if err != nil {
		b.Fatal(err)
	}
	ctx := &armv7.TrapContext{HSR: armv7.BuildHSR(armv7.ECDABTLow, true, armv7.BuildDataAbortISS(4, 0, false, 0x06))}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inj.Hook(jailhouse.PointTrap, 1, "freertos-cell", ctx)
	}
}

// BenchmarkGICAckEOI measures the interrupt acknowledge/EOI cycle.
func BenchmarkGICAckEOI(b *testing.B) {
	d := gic.New(2)
	d.EnableDistributor(true)
	d.EnableCPUInterface(0, true)
	d.EnableIRQ(40)
	d.SetTargets(40, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.RaiseSPI(40)
		irq, _ := d.Acknowledge(0)
		d.EOI(0, irq)
	}
}

// BenchmarkSchedulerTick measures one FreeRTOS tick (scheduler +
// workload slice) on the assembled machine.
func BenchmarkSchedulerTick(b *testing.B) {
	m, err := core.BuildMachine(core.DefaultMachineOptions(3))
	if err != nil {
		b.Fatal(err)
	}
	m.Run(sim.Second) // reach steady state
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.RTOS.OnIRQ(1, gic.IRQVirtualTimer)
	}
}

// BenchmarkVirtualMinute measures the wall-clock cost of one full
// 60-virtual-second golden run — the unit of campaign cost.
func BenchmarkVirtualMinute(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := core.BuildMachine(core.DefaultMachineOptions(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		m.Run(sim.Minute)
	}
}

// BenchmarkDistributionRender measures the analytics path used by the
// CLI (build a Figure 3 table from a finished campaign).
func BenchmarkDistributionRender(b *testing.B) {
	plan := *core.PlanE3Fig3()
	plan.Duration = 10 * sim.Second
	c := &core.Campaign{Plan: &plan, Runs: 10, MasterSeed: 5}
	res, err := c.Execute(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := analytics.FromCampaign("fig3", res)
		_ = d.Bars(50)
	}
}

// BenchmarkTraceHash measures the trace-hash layer alone over one
// fault-free E3-fig3 minute trace (the Figure-3 machine and horizon),
// marked and published every virtual second, as a golden timeline marks
// and publishes its checkpoints. The trace's records are replayed into one reused trace per
// iteration, as a pooled machine reuses its trace run after run;
// replayed records carry their rendered text. "end-of-run" times Hash
// over the finished trace (the fold a campaign run pays at its end);
// "append" times the appends plus that Hash read (a run's whole trace
// path); "splice" rewinds a trace to the post-boot mark, splices the
// published minute back in one-second stretches and reads Hash, as a
// run that rejoins the golden trajectory fast-forwards; "rewind" restores a trace at the post-boot mark to the
// minute's last mark, as a run starting from the latest checkpoint does,
// and back. ns_per_record divides by the records replayed, spliced or
// restored.
func BenchmarkTraceHash(b *testing.B) {
	m, err := core.BuildMachine(core.DefaultMachineOptions(2022))
	if err != nil {
		b.Fatal(err)
	}
	golden := m.Board.Trace()
	marks := []sim.TraceMark{golden.Mark()}
	log := golden.Publish(nil)
	booted := golden.Len()
	for left := core.PlanE3Fig3().EffectiveDuration(); left > 0; left -= sim.Second {
		m.Run(min(left, sim.Second))
		marks = append(marks, golden.Mark())
		log = golden.Publish(log)
	}
	recs := golden.Records()
	want := golden.Hash()
	replay := func(tr *sim.Trace) {
		for _, r := range recs {
			tr.Add(r.At, r.Kind, r.CPU, r.Msg)
		}
	}
	report := func(b *testing.B, n int) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns_per_record")
		b.ReportMetric(float64(n), "records")
	}
	// Each iteration rewinds one trace to no records, as a pooled
	// machine's trace is rewound, so its suffix memo stays warm.
	empty := sim.NewTrace().Mark()
	b.Run("end-of-run", func(b *testing.B) {
		tr := sim.NewTrace()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			tr.Rewind(nil, empty)
			replay(tr)
			b.StartTimer()
			if tr.Hash() != want {
				b.Fatal("replayed trace hashes differently")
			}
		}
		report(b, len(recs))
	})
	b.Run("append", func(b *testing.B) {
		tr := sim.NewTrace()
		for i := 0; i < b.N; i++ {
			tr.Rewind(nil, empty)
			replay(tr)
			if tr.Hash() != want {
				b.Fatal("replayed trace hashes differently")
			}
		}
		report(b, len(recs))
	})
	b.Run("splice", func(b *testing.B) {
		tr := sim.NewTrace()
		for i := 0; i < b.N; i++ {
			tr.Rewind(log, marks[0])
			for k := 1; k < len(marks); k++ {
				tr.Splice(log, marks[k-1], marks[k])
			}
			if tr.Len() != len(recs) || tr.Hash() != want {
				b.Fatal("spliced trace differs from the straight one")
			}
		}
		report(b, len(recs)-booted)
	})
	b.Run("rewind", func(b *testing.B) {
		tr := sim.NewTrace()
		last := marks[len(marks)-1]
		tr.Rewind(log, marks[0])
		for i := 0; i < b.N; i++ {
			tr.Rewind(log, last)
			if tr.Len() != len(recs) || tr.Hash() != want {
				b.Fatal("restored trace differs from the straight one")
			}
			tr.Rewind(log, marks[0])
		}
		report(b, len(recs)-booted)
	})
}
