// Package analytics turns campaign results into the tables and figures
// the paper reports: outcome distributions, percentage tables, ASCII
// renderings of Figure 3, and CSV exports for external plotting.
package analytics

import (
	"fmt"
	"sort"
	"strings"

	"github.com/dessertlab/certify/internal/core"
)

// Distribution is an outcome histogram with a fixed class order.
type Distribution struct {
	Label  string
	Counts map[core.Outcome]int
	Order  []core.Outcome
}

// FromCampaign builds a distribution from a campaign result.
func FromCampaign(label string, res *core.CampaignResult) *Distribution {
	return &Distribution{
		Label:  label,
		Counts: res.Distribution(),
		Order:  core.AllOutcomes(),
	}
}

// classes returns the render order: Order first, then every outcome
// class present in Counts but absent from Order, appended in the
// taxonomy's canonical (numeric) order. Artefacts rendered with a
// stale Order slice — one predating an outcome class, like the PR 6
// degradation classes — must surface the unknown classes instead of
// silently dropping their counts.
func (d *Distribution) classes() []core.Outcome {
	known := make(map[core.Outcome]bool, len(d.Order))
	for _, o := range d.Order {
		known[o] = true
	}
	var extra []core.Outcome
	for o := range d.Counts {
		if !known[o] {
			extra = append(extra, o)
		}
	}
	if len(extra) == 0 {
		return d.Order
	}
	sort.Slice(extra, func(i, j int) bool { return extra[i] < extra[j] })
	return append(append(make([]core.Outcome, 0, len(d.Order)+len(extra)), d.Order...), extra...)
}

// Total returns the total number of classified runs.
func (d *Distribution) Total() int {
	n := 0
	for _, c := range d.Counts {
		n += c
	}
	return n
}

// Percent returns the percentage of runs in the given class.
func (d *Distribution) Percent(o core.Outcome) float64 {
	t := d.Total()
	if t == 0 {
		return 0
	}
	return 100 * float64(d.Counts[o]) / float64(t)
}

// Bars renders the distribution as a horizontal ASCII bar chart — the
// repository's rendering of Figure 3.
func (d *Distribution) Bars(width int) string {
	if width <= 0 {
		width = 50
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (n=%d)\n", d.Label, d.Total())
	for _, o := range d.classes() {
		pct := d.Percent(o)
		fill := int(pct / 100 * float64(width))
		if d.Counts[o] > 0 && fill == 0 {
			fill = 1
		}
		fmt.Fprintf(&b, "  %-22s |%-*s| %5.1f%%\n", o, width, strings.Repeat("█", fill), pct)
	}
	return b.String()
}

// CSV renders "class,count,percent" rows with a header.
func (d *Distribution) CSV() string {
	var b strings.Builder
	b.WriteString("outcome,count,percent\n")
	for _, o := range d.classes() {
		fmt.Fprintf(&b, "%s,%d,%.2f\n", o, d.Counts[o], d.Percent(o))
	}
	return b.String()
}

// CompareTable renders several distributions side by side (one column per
// distribution) — the shape used by the A1/A2 ablation sweeps.
func CompareTable(dists []*Distribution) string {
	if len(dists) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s", "outcome")
	for _, d := range dists {
		fmt.Fprintf(&b, " %14s", truncate(d.Label, 14))
	}
	b.WriteByte('\n')
	for _, o := range core.AllOutcomes() {
		fmt.Fprintf(&b, "%-22s", o.String())
		for _, d := range dists {
			fmt.Fprintf(&b, " %13.1f%%", d.Percent(o))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

// ActivationTable renders golden-run profiling counts (the paper's
// injection-point selection step) sorted by activation count.
func ActivationTable(gp *core.GoldenProfile) string {
	type row struct {
		name  string
		count uint64
	}
	var rows []row
	for p, c := range gp.Activation {
		rows = append(rows, row{p.String(), c})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].count > rows[j].count })
	var b strings.Builder
	fmt.Fprintf(&b, "golden-run profile over %v (seed %d)\n", gp.Duration.Duration(), gp.Seed)
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-22s %8d activations\n", r.name, r.count)
	}
	fmt.Fprintf(&b, "  cell console lines: %d, LED toggles: %d\n", gp.CellLines, gp.LEDToggles)
	return b.String()
}

// InjectionSummary tabulates which registers were hit across a campaign
// and what the outcomes were — per-register vulnerability, the analysis
// the paper's future work calls for.
func InjectionSummary(res *core.CampaignResult) string {
	type agg struct{ hits, fatal int }
	byField := make(map[string]*agg)
	for _, run := range res.Runs {
		fatal := run.Outcome() == core.OutcomePanicPark || run.Outcome() == core.OutcomeCPUPark
		for _, rec := range run.Injections {
			for _, f := range rec.Fields {
				name := fieldName(int(f))
				a := byField[name]
				if a == nil {
					a = &agg{}
					byField[name] = a
				}
				a.hits++
				if fatal {
					a.fatal++
				}
			}
		}
	}
	names := make([]string, 0, len(byField))
	for n := range byField {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "per-register injection summary for %s\n", res.Plan)
	for _, n := range names {
		a := byField[n]
		fmt.Fprintf(&b, "  %-8s %5d hits  %5d in fatal runs\n", n, a.hits, a.fatal)
	}
	return b.String()
}

// fieldName avoids importing armv7 just for names in this package's API.
func fieldName(f int) string {
	names := []string{"r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7", "r8", "r9", "r10", "r11", "r12", "sp", "lr", "pc", "hsr", "spsr", "elr", "hdfar", "cpuid"}
	if f >= 0 && f < len(names) {
		return names[f]
	}
	return fmt.Sprintf("f%d", f)
}
