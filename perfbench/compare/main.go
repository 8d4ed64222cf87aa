// Command compare summarises one benchmark result set, or compares two.
// A result set is a directory of files named
// <workload>__seed<N>__trace<0|1>.out, each holding one benchmark run's
// standard output (perfbench/sweep.sh writes them); the last line of
// each is the run's JSON result.
//
// For every workload and metric it prints the median and quartiles of
// each set and the spread (interquartile range over median). Given two
// sets (A = parent, B = change) it adds a verdict per end-to-end metric
// against BENCHMARK.json's bound — better, worse or unresolved — and
// flags any per-seed change of an exact simulated count as a behaviour
// change. Run from the repository root:
//
//	go -C perfbench run ./compare -bench ../BENCHMARK.json A [B]
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
)

// benchFile is the part of BENCHMARK.json the comparator reads.
type benchFile struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// exactCounts are the simulated counts a pure-speed change must leave
// identical for the same seed.
var exactCounts = map[string]bool{
	"sim.events_per_run":            true,
	"gic.irqs_per_run":              true,
	"jailhouse.traps_per_run":       true,
	"jailhouse.hypercalls_per_run":  true,
	"jailhouse.cell_events_per_run": true,
	"core.hook_calls_per_run":       true,
	"core.hook_matches_per_run":     true,
	"core.injections_per_run":       true,
	"freertos.led_toggles_per_run":  true,
	"uart.cell_lines_per_run":       true,
	"analytics.runs_to_decision":    true,
	"dist.record_bytes":             true,
}

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// run is one parsed result file.
type run struct {
	workload string
	seed     int
	trace    int
	res      result
}

var fileName = regexp.MustCompile(`^(.+)__seed(\d+)__trace([01])\.out$`)

func load(dir string) ([]run, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var runs []run
	for _, en := range entries {
		m := fileName.FindStringSubmatch(en.Name())
		if m == nil {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, en.Name()))
		if err != nil {
			return nil, err
		}
		last := lastLine(b)
		var r result
		if err := json.Unmarshal(last, &r); err != nil {
			fmt.Fprintf(os.Stderr, "compare: %s: no result line (%v) — counted as a failed run\n", en.Name(), err)
			r = result{Correct: false}
		}
		seed, _ := strconv.Atoi(m[2])
		trace, _ := strconv.Atoi(m[3])
		runs = append(runs, run{workload: m[1], seed: seed, trace: trace, res: r})
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s holds no <workload>__seed<N>__trace<T>.out files", dir)
	}
	return runs, nil
}

func lastLine(b []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}

// quantile matches Python's statistics.quantiles(xs, n=4) (the
// exclusive method) for q in {0.25, 0.5, 0.75}.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN()
	case 1:
		return s[0]
	}
	if q == 0.5 {
		if n%2 == 1 {
			return s[n/2]
		}
		return (s[n/2-1] + s[n/2]) / 2
	}
	m := float64(n + 1)
	j := int(math.Floor(q * m))
	delta := q*m - float64(j)
	if j < 1 {
		return s[0]
	}
	if j >= n {
		return s[n-1]
	}
	return s[j-1] + (s[j]-s[j-1])*delta
}

// summary is one metric's sample in one set.
type summary struct {
	vals         []float64
	bySeed       map[int]float64
	q1, med, q3  float64
	spread       float64 // (q3 - q1) / median
	units        string
	failedRuns   int
	attemptedOps int
	failedOps    int
}

func summarise(runs []run, workload string, trace int, name string) *summary {
	s := &summary{bySeed: map[int]float64{}}
	for _, r := range runs {
		if r.workload != workload || r.trace != trace {
			continue
		}
		if !r.res.Correct {
			s.failedRuns++
		}
		s.attemptedOps += r.res.Attempted
		s.failedOps += r.res.Failed
		m, ok := r.res.Metrics[name]
		if !ok {
			continue
		}
		s.vals = append(s.vals, m.Value)
		s.bySeed[r.seed] = m.Value
		s.units = m.Unit
	}
	if len(s.vals) == 0 {
		return nil
	}
	s.q1, s.med, s.q3 = quantile(s.vals, 0.25), quantile(s.vals, 0.5), quantile(s.vals, 0.75)
	s.spread = (s.q3 - s.q1) / math.Abs(s.med)
	return s
}

// verdict judges B against A for one end-to-end metric.
func verdict(d metricDef, a, b *summary) string {
	sign := 1.0 // positive change = better
	if d.Better == "lower" {
		sign = -1
	}
	change := sign * (b.med - a.med) / math.Abs(a.med)
	// Pairs by seed: B wins a pair when its value is better.
	wins, pairs := 0, 0
	for seed, av := range a.bySeed {
		if bv, ok := b.bySeed[seed]; ok {
			pairs++
			if sign*(bv-av) > 0 {
				wins++
			}
		}
	}
	switch {
	case change < -d.Bound:
		return fmt.Sprintf("WORSE by %.1f%% (bound %.0f%%)", -100*change, 100*d.Bound)
	case pairs > 0 && float64(wins) >= 0.9*float64(pairs) && math.Abs(b.med-a.med) > a.q3-a.q1:
		return fmt.Sprintf("better by %.1f%% (wins %d/%d pairs)", 100*change, wins, pairs)
	case a.spread > d.Bound || b.spread > d.Bound:
		return fmt.Sprintf("unresolved: spread wider than the %.0f%% bound", 100*d.Bound)
	case change < 0:
		return fmt.Sprintf("unresolved: %.1f%% worse, within the %.0f%% bound", -100*change, 100*d.Bound)
	default:
		return fmt.Sprintf("no worse (%+.1f%%, within bound)", 100*change)
	}
}

func workloadsOf(runs []run) []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range runs {
		if !seen[r.workload] {
			seen[r.workload] = true
			out = append(out, r.workload)
		}
	}
	sort.Strings(out)
	return out
}

func main() {
	benchPath := flag.String("bench", "BENCHMARK.json", "the benchmark definition (bounds and metric directions)")
	flag.Parse()
	if flag.NArg() < 1 || flag.NArg() > 2 {
		fmt.Fprintln(os.Stderr, "usage: compare -bench BENCHMARK.json RESULTS_A [RESULTS_B]")
		os.Exit(2)
	}
	raw, err := os.ReadFile(*benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fmt.Fprintln(os.Stderr, "compare:", *benchPath+":", err)
		os.Exit(2)
	}
	sets := make([][]run, flag.NArg())
	for i := range sets {
		if sets[i], err = load(flag.Arg(i)); err != nil {
			fmt.Fprintln(os.Stderr, "compare:", err)
			os.Exit(2)
		}
	}
	two := len(sets) == 2
	behaviour := 0
	for _, w := range workloadsOf(append(append([]run(nil), sets[0]...), sets[len(sets)-1]...)) {
		for trace, defs := range [][]metricDef{bf.EndToEnd, bf.PerLayer} {
			title := "end-to-end, untraced"
			if trace == 1 {
				title = "per-layer, traced ledger"
			}
			header := false
			for _, d := range defs {
				sum := make([]*summary, len(sets))
				for i, set := range sets {
					sum[i] = summarise(set, w, trace, d.Name)
				}
				a := sum[0]
				if a == nil && (!two || sum[1] == nil) {
					continue
				}
				if !header {
					fmt.Printf("\n== %s (%s)\n", w, title)
					for i, set := range sets {
						if s := summarise(set, w, trace, d.Name); s != nil {
							fmt.Printf("   set %c: %d runs, %d failed runs, %d/%d operations failed\n",
								'A'+i, len(s.vals), s.failedRuns, s.failedOps, s.attemptedOps)
						}
					}
					header = true
				}
				line := fmt.Sprintf("%-32s", d.Name)
				for i, s := range sum {
					if s == nil {
						line += fmt.Sprintf("  %c: %-44s", 'A'+i, "missing")
						continue
					}
					line += fmt.Sprintf("  %c: %12.4g [%10.4g, %10.4g] %-6s spread %5.1f%%", 'A'+i, s.med, s.q1, s.q3, s.units, 100*s.spread)
				}
				if trace == 0 && d.Bound > 0 && a != nil {
					if two && sum[1] != nil {
						line += "  " + verdict(d, a, sum[1])
					} else if a.spread > d.Bound {
						line += fmt.Sprintf("  spread exceeds the %.0f%% bound", 100*d.Bound)
					}
				}
				if two && exactCounts[d.Name] && a != nil && sum[1] != nil {
					for seed, av := range a.bySeed {
						if bv, ok := sum[1].bySeed[seed]; ok && bv != av {
							line += fmt.Sprintf("  BEHAVIOUR CHANGE (seed %d: %g -> %g)", seed, av, bv)
							behaviour++
							break
						}
					}
				}
				fmt.Println(line)
			}
		}
	}
	if behaviour > 0 {
		fmt.Printf("\n%d exact simulated counts changed: the two sets do not run the same program behaviour.\n", behaviour)
	}
}
