// Command perfbench is the repository's end-to-end benchmark. It drives
// the real entry points — the `certify fanout` CLI and the `certify
// serve` HTTP API — from one load-generating process, checks every
// output before it reports a number, and prints one JSON result line.
//
// Usage (from the repository root, after perfbench/run.sh built the
// binaries):
//
//	perfbench -bin certify -work DIR --workload NAME --seed N --seconds S --trace 0|1
//
// With --trace 0 the workload runs untraced and the result carries the
// end-to-end metrics; with --trace 1 the traced run ledger (ledger.go)
// runs instead and the result carries the per-layer metrics. See
// README.md for the workloads, the metric definitions and the table of
// which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts operations and failed operations (including failed
// correctness checks); error_pct is failed over attempted.
type tally struct {
	attempted, failed int
	problems          []string
}

func (t *tally) ok() { t.attempted++ }

// fail records a failed operation or check, keeping the first few
// messages for the report.
func (t *tally) fail(format string, args ...any) {
	t.attempted++
	t.failed++
	if len(t.problems) < 20 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

// env is what every workload needs: the binary under test, a private
// scratch directory inside the checkout, the seed chain and the timed
// phase length.
type env struct {
	name    string
	bin     string
	work    string
	traces  string
	seed    uint64
	seconds time.Duration
	chain   *chain
	procs   *procSet
	report  *report
	tally   *tally
}

// workload is one benchmark workload: an untraced run producing the
// end-to-end metrics and the campaign shape its traced ledger uses.
type workload struct {
	name   string
	run    func(e *env) (map[string]metric, error)
	ledger shape
}

var workloads = map[string]workload{
	"fig3-fanout":  {name: "fig3-fanout", run: runFig3Fanout, ledger: fig3LedgerShape},
	"serve-fresh":  {name: "serve-fresh", run: runServeFresh, ledger: freshJobShape},
	"serve-cached": {name: "serve-cached", run: runServeCached, ledger: cachedLedgerShape},
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Uint64("seed", 1, "workload seed: the same seed generates the same inputs")
		seconds = flag.Int("seconds", 20, "length of the timed phase")
		traced  = flag.Int("trace", 0, "1 runs the traced per-layer ledger instead of the untraced workload")
		bin     = flag.String("bin", "", "path of the certify binary under test")
		work    = flag.String("work", "", "scratch directory inside the checkout")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (known: %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *bin == "" || *work == "" || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: needs -bin, -work, --seconds > 0 and --trace 0|1 (run it through perfbench/run.sh)")
		return 2
	}
	if _, err := os.Stat(*bin); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: binary under test: %v\n", err)
		return 2
	}
	dir := filepath.Join(*work, fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	procs := &procSet{}
	defer procs.killAll()

	e := &env{
		name:    w.name,
		bin:     *bin,
		work:    dir,
		traces:  filepath.Join(filepath.Dir(*work), "traces"),
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		chain:   newChain(*seed),
		procs:   procs,
		report:  newReport(w.name, *seed, *traced == 1),
		tally:   &tally{},
	}
	// The golden gate runs before any timed phase: a number from a build
	// that lost determinism is never recorded.
	if err := goldenGate(e); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: golden gate failed: %v\n", err)
		return 1
	}
	var (
		metrics map[string]metric
		err     error
	)
	if *traced == 1 {
		metrics, err = runLedger(e, w.ledger)
	} else {
		metrics, err = w.run(e)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	t := e.tally
	if t.attempted == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation was attempted")
		return 1
	}
	e.report.line("error_pct", 100*float64(t.failed)/float64(t.attempted), "%", t.attempted)
	for _, p := range t.problems {
		e.report.note("FAILED: " + p)
	}
	e.report.print(os.Stdout)
	out, err := json.Marshal(result{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// chain is the benchmark's own SplitMix64 stream: every campaign seed,
// request choice and sampled run index derives from --seed through it.
type chain struct{ state uint64 }

func newChain(seed uint64) *chain { return &chain{state: seed} }

func (c *chain) next() uint64 {
	c.state += 0x9e3779b97f4a7c15
	z := c.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn draws uniformly from [0, n).
func (c *chain) intn(n int) int { return int(c.next() % uint64(n)) }

// fork derives an independent stream, one per client.
func (c *chain) fork() *chain { return newChain(c.next()) }
