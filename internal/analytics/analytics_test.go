package analytics

import (
	"context"
	"strings"
	"testing"

	"github.com/dessertlab/certify/internal/core"
)

func smallCampaign(t *testing.T) *core.CampaignResult {
	t.Helper()
	plan := *core.PlanE3Fig3()
	plan.Duration = 10e9 // 10 virtual seconds: enough for a distribution
	c := &core.Campaign{Plan: &plan, Runs: 12, MasterSeed: 9}
	res, err := c.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDistributionTotalsAndPercents(t *testing.T) {
	res := smallCampaign(t)
	d := FromCampaign("fig3-test", res)
	if d.Total() != 12 {
		t.Fatalf("Total = %d", d.Total())
	}
	sum := 0.0
	for _, o := range core.AllOutcomes() {
		p := d.Percent(o)
		if p < 0 || p > 100 {
			t.Fatalf("Percent(%v) = %f", o, p)
		}
		sum += p
	}
	if sum < 99.9 || sum > 100.1 {
		t.Fatalf("percentages sum to %f", sum)
	}
}

func TestTableBarsCSVRender(t *testing.T) {
	res := smallCampaign(t)
	d := FromCampaign("fig3-test", res)

	bars := d.Bars(40)
	if !strings.Contains(bars, "fig3-test (n=12)") || !strings.Contains(bars, "|") || !strings.Contains(bars, "%") {
		t.Fatalf("Bars = %q", bars)
	}
	csv := d.CSV()
	if !strings.HasPrefix(csv, "outcome,count,percent\n") {
		t.Fatalf("CSV header = %q", csv)
	}
	if got := strings.Count(csv, "\n"); got != len(core.AllOutcomes())+1 {
		t.Fatalf("CSV rows = %d", got)
	}
}

func TestBarsMinimumFill(t *testing.T) {
	d := &Distribution{
		Label:  "x",
		Counts: map[core.Outcome]int{core.OutcomeCorrect: 199, core.OutcomeCPUPark: 1},
		Order:  core.AllOutcomes(),
	}
	bars := d.Bars(30)
	// The 0.5% class still gets one visible cell.
	for _, line := range strings.Split(bars, "\n") {
		if strings.Contains(line, "cpu-park") && !strings.Contains(line, "█") {
			t.Fatalf("tiny class invisible: %q", line)
		}
	}
	if d.Bars(0) == "" {
		t.Fatal("zero width must fall back to default")
	}
}

func TestCompareTable(t *testing.T) {
	res := smallCampaign(t)
	a := FromCampaign("rate-1-50", res)
	b := FromCampaign("rate-1-100-long-label-overflow", res)
	out := CompareTable([]*Distribution{a, b})
	if !strings.Contains(out, "rate-1-50") {
		t.Fatalf("CompareTable missing label:\n%s", out)
	}
	if !strings.Contains(out, "…") {
		t.Fatal("long label not truncated")
	}
	if CompareTable(nil) != "" {
		t.Fatal("empty input must render empty")
	}
}

func TestActivationTable(t *testing.T) {
	gp, err := core.GoldenRun(3, 5e9)
	if err != nil {
		t.Fatal(err)
	}
	out := ActivationTable(gp)
	for _, want := range []string{"irqchip_handle_irq", "arch_handle_trap", "arch_handle_hvc", "activations"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ActivationTable missing %q:\n%s", want, out)
		}
	}
	// Hottest first: irqchip line must precede the hvc line.
	if strings.Index(out, "irqchip_handle_irq") > strings.Index(out, "arch_handle_hvc") {
		t.Fatal("activation table not sorted by count")
	}
}

func TestInjectionSummary(t *testing.T) {
	res := smallCampaign(t)
	out := InjectionSummary(res)
	if !strings.Contains(out, "per-register injection summary") {
		t.Fatalf("summary = %q", out)
	}
}

// TestRenderersSurfaceUnknownClasses pins the stale-Order fix: a
// distribution whose Counts hold outcome classes absent from Order
// (e.g. an artefact rendered by code predating a taxonomy extension)
// must append those classes — in canonical numeric order — instead of
// silently dropping their counts from every renderer.
func TestRenderersSurfaceUnknownClasses(t *testing.T) {
	d := &Distribution{
		Label: "stale-order",
		Counts: map[core.Outcome]int{
			core.OutcomeCorrect:      5,
			core.OutcomePanicPark:    2,
			core.OutcomeInconsistent: 1,
		},
		// Order predates panic-park and inconsistent.
		Order: []core.Outcome{core.OutcomeCorrect},
	}
	for name, render := range map[string]func() string{
		"Bars":        func() string { return d.Bars(20) },
		"CSV":         d.CSV,
		"TableWithCI": d.TableWithCI,
	} {
		out := render()
		for _, o := range []core.Outcome{core.OutcomeCorrect, core.OutcomeInconsistent, core.OutcomePanicPark} {
			if !strings.Contains(out, o.String()) {
				t.Fatalf("%s dropped class %s:\n%s", name, o, out)
			}
		}
		// Unknown classes append after Order, in numeric taxonomy order:
		// inconsistent before panic-park.
		if strings.Index(out, core.OutcomeInconsistent.String()) > strings.Index(out, core.OutcomePanicPark.String()) {
			t.Fatalf("%s did not append unknown classes in canonical order:\n%s", name, out)
		}
		if strings.Index(out, core.OutcomeCorrect.String()) > strings.Index(out, core.OutcomeInconsistent.String()) {
			t.Fatalf("%s put unknown classes before Order:\n%s", name, out)
		}
	}
	// And the totals include the hidden classes.
	if d.Total() != 8 {
		t.Fatalf("Total = %d, want 8", d.Total())
	}
}
