package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailPercentiles are the candidates for a reported tail, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// tail returns the highest of tailPercentiles that has at least ten
// samples beyond it, and its value; ok is false when the sample is too
// small for any of them.
func tail(xs []float64) (pct, value float64, ok bool) {
	n := float64(len(xs))
	for _, p := range tailPercentiles {
		if n*(1-p/100) >= 10 {
			return p, quantile(xs, p/100), true
		}
	}
	return 0, 0, false
}

// report collects the human-readable lines printed above the result
// line: every timing with its sample count, tails where the sample
// allows one, and notes on failures.
type report struct {
	lines []string
}

func newReport(workload string, seed uint64, traced bool) *report {
	kind := "untraced"
	if traced {
		kind = "traced ledger"
	}
	return &report{lines: []string{fmt.Sprintf("# perfbench %s, seed %d, %s", workload, seed, kind)}}
}

// line records one figure with the number of samples behind it.
func (r *report) line(name string, value float64, unit string, samples int) {
	r.lines = append(r.lines, fmt.Sprintf("#   %-32s %14.4f %-6s (n=%d)", name, value, unit, samples))
}

// dist records the median and, when the sample allows, the tail of a
// latency sample.
func (r *report) dist(name string, xs []float64, unit string) {
	r.line(name+"_p50", median(xs), unit, len(xs))
	if p, v, ok := tail(xs); ok {
		r.line(fmt.Sprintf("%s_tail(p%g)", name, p), v, unit, len(xs))
	} else {
		r.note(fmt.Sprintf("%s_tail: n=%d leaves no percentile with ten samples beyond it", name, len(xs)))
	}
}

func (r *report) note(s string) { r.lines = append(r.lines, "#   "+s) }

func (r *report) print(w io.Writer) {
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
}
