package analytics

import (
	"strings"
	"testing"
	"testing/quick"

	"github.com/dessertlab/certify/internal/core"
)

func TestWilsonKnownValues(t *testing.T) {
	// 30/100 at 95%: interval ≈ [21.9%, 39.6%].
	lo, hi := Wilson(30, 100, Z95)
	if lo < 0.20 || lo > 0.23 || hi < 0.38 || hi > 0.41 {
		t.Fatalf("Wilson(30,100) = [%f, %f]", lo, hi)
	}
	// Extremes stay in [0,1] and don't collapse.
	lo, hi = Wilson(0, 50, Z95)
	if lo != 0 || hi <= 0 {
		t.Fatalf("Wilson(0,50) = [%f, %f]", lo, hi)
	}
	lo, hi = Wilson(50, 50, Z95)
	if hi != 1 || lo >= 1 {
		t.Fatalf("Wilson(50,50) = [%f, %f]", lo, hi)
	}
	if lo, hi = Wilson(1, 0, Z95); lo != 0 || hi != 0 {
		t.Fatal("n=0 must be inert")
	}
}

func TestWilsonProperty(t *testing.T) {
	prop := func(kRaw, nRaw uint16) bool {
		n := int(nRaw%500) + 1
		k := int(kRaw) % (n + 1)
		lo, hi := Wilson(k, n, Z95)
		p := float64(k) / float64(n)
		// The interval contains the point estimate and is ordered.
		return lo <= p && p <= hi && lo >= 0 && hi <= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestTableWithCIAndBand(t *testing.T) {
	d := &Distribution{
		Label: "fig3",
		Counts: map[core.Outcome]int{
			core.OutcomeCorrect:   66,
			core.OutcomePanicPark: 29,
			core.OutcomeCPUPark:   5,
		},
		Order: core.AllOutcomes(),
	}
	out := d.TableWithCI()
	if !strings.Contains(out, "Wilson CI") || !strings.Contains(out, "[") {
		t.Fatalf("TableWithCI = %q", out)
	}
	// The paper's 30% lies inside the panic-park interval for 29/100,
	// and 60% does not.
	lo, hi := Wilson(d.Counts[core.OutcomePanicPark], d.Total(), Z95)
	if lo > 0.30 || hi < 0.30 || hi >= 0.60 {
		t.Fatalf("panic-park interval [%v, %v] for 29/100", lo, hi)
	}
}
