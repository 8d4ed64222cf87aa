package analytics

import (
	"fmt"
	"math"
	"strings"
)

// Wilson returns the Wilson score interval for a proportion at the given
// z (1.96 for 95% confidence): the right way to put error bars on
// campaign outcome shares, especially near 0 and 1 where the normal
// approximation misbehaves.
func Wilson(successes, n int, z float64) (lo, hi float64) {
	if n <= 0 {
		return 0, 0
	}
	p := float64(successes) / float64(n)
	nf := float64(n)
	denom := 1 + z*z/nf
	centre := (p + z*z/(2*nf)) / denom
	half := z * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf)) / denom
	lo, hi = centre-half, centre+half
	// At the boundaries the interval touches the boundary exactly in
	// real arithmetic; rounding can leave ±1 ulp of dust. Clamp.
	if successes == 0 {
		lo = 0
	}
	if successes == n {
		hi = 1
	}
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// Z95 is the 95% confidence z-score.
const Z95 = 1.96

// TableWithCI renders the distribution with 95% Wilson intervals —
// publication-grade error bars for the Figure 3 reproduction.
func (d *Distribution) TableWithCI() string {
	var b strings.Builder
	n := d.Total()
	fmt.Fprintf(&b, "%s (n=%d, 95%% Wilson CI)\n", d.Label, n)
	for _, o := range d.classes() {
		lo, hi := Wilson(d.Counts[o], n, Z95)
		fmt.Fprintf(&b, "  %-22s %4d  %6.1f%%  [%5.1f%%, %5.1f%%]\n",
			o, d.Counts[o], d.Percent(o), 100*lo, 100*hi)
	}
	return b.String()
}
