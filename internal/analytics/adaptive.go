package analytics

import (
	"fmt"
	"math"

	"github.com/dessertlab/certify/internal/core"
)

// Clopper-Pearson exact intervals and the sequential estimator behind
// the adaptive campaign engine: campaigns stop when every outcome
// class's confidence interval is narrower than a target width instead
// of at a fixed N. The stop decision is a pure function of the outcome
// prefix — no clocks, no randomness — so the same decision replays at
// merge time over shard artefacts and lands on the same run index.

// ClopperPearson returns the exact two-sided confidence interval for a
// binomial proportion at the given confidence level (0.95 for 95%).
// Unlike Wilson, the exact interval never under-covers — the
// conservative choice when the interval gates how much certification
// evidence a campaign collects. Endpoints are the standard beta
// quantiles: lo = B(alpha/2; k, n-k+1), hi = B(1-alpha/2; k+1, n-k),
// with the boundary conventions lo=0 at k=0 and hi=1 at k=n.
func ClopperPearson(successes, n int, conf float64) (lo, hi float64) {
	if n <= 0 {
		return 0, 0
	}
	if conf <= 0 || conf >= 1 {
		conf = 0.95
	}
	k := successes
	if k < 0 {
		k = 0
	}
	if k > n {
		k = n
	}
	alpha := 1 - conf
	if k > 0 {
		lo = betaQuantile(float64(k), float64(n-k+1), alpha/2)
	}
	hi = 1
	if k < n {
		hi = betaQuantile(float64(k+1), float64(n-k), 1-alpha/2)
	}
	return lo, hi
}

// betaQuantile inverts the regularised incomplete beta function by
// bisection: the x in [0,1] with I_x(a,b) = p. 100 halvings exceed
// float64 resolution; the incomplete beta itself evaluates via a
// continued fraction, so each step is O(few dozen) terms.
func betaQuantile(a, b, p float64) float64 {
	lo, hi := 0.0, 1.0
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if regIncBeta(a, b, mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// regIncBeta is the regularised incomplete beta function I_x(a,b),
// evaluated by the symmetric continued fraction (Lentz's method). The
// binomial CDF is P(X <= k) = I_{1-p}(n-k, k+1), which is how the
// reference tests cross-check this implementation against brute-force
// tail sums.
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lgab, _ := math.Lgamma(a + b)
	lga, _ := math.Lgamma(a)
	lgb, _ := math.Lgamma(b)
	front := math.Exp(lgab - lga - lgb + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the incomplete beta continued fraction with the
// modified Lentz algorithm.
func betaCF(a, b, x float64) float64 {
	const (
		eps  = 1e-14
		tiny = 1e-30
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= 300; m++ {
		mf := float64(m)
		m2 := 2 * mf
		aa := mf * (b - mf) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		aa = -(a + mf) * (qab + mf) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// SequentialEstimator folds a streaming outcome sequence into
// per-outcome-class confidence intervals — the state behind the
// CI-width stop policy, also usable standalone over a finished
// core.CampaignResult. The zero value is not usable; construct with
// NewSequentialEstimator.
type SequentialEstimator struct {
	interval string
	conf     float64
	counts   map[core.Outcome]int
	n        int
}

// NewSequentialEstimator builds an estimator over the given interval
// kind (core.IntervalClopperPearson, core.IntervalWilson; "" defaults
// to Clopper-Pearson) at the given confidence (0 defaults to 0.95).
func NewSequentialEstimator(interval string, conf float64) (*SequentialEstimator, error) {
	switch interval {
	case "":
		interval = core.IntervalClopperPearson
	case core.IntervalClopperPearson, core.IntervalWilson:
	default:
		return nil, fmt.Errorf("analytics: unknown interval kind %q", interval)
	}
	if conf == 0 {
		conf = 0.95
	}
	if conf <= 0 || conf >= 1 {
		return nil, fmt.Errorf("analytics: confidence %v outside (0,1)", conf)
	}
	return &SequentialEstimator{
		interval: interval,
		conf:     conf,
		counts:   make(map[core.Outcome]int, len(core.AllOutcomes())),
	}, nil
}

// Reset discards every observation.
func (e *SequentialEstimator) Reset() {
	clear(e.counts)
	e.n = 0
}

// Observe folds one classified run.
func (e *SequentialEstimator) Observe(o core.Outcome) {
	e.counts[o]++
	e.n++
}

// AddCampaign folds a finished campaign aggregate — the offline path
// for computing the same intervals the stop policy saw.
func (e *SequentialEstimator) AddCampaign(res *core.CampaignResult) {
	for o, c := range res.Distribution() {
		e.counts[o] += c
		e.n += c
	}
}

// N returns how many runs were observed.
func (e *SequentialEstimator) N() int { return e.n }

// Interval returns the confidence interval of the given outcome
// class's proportion.
func (e *SequentialEstimator) Interval(o core.Outcome) (lo, hi float64) {
	if e.interval == core.IntervalWilson {
		return Wilson(e.counts[o], e.n, Z95)
	}
	return ClopperPearson(e.counts[o], e.n, e.conf)
}

// Width returns the full width (hi - lo) of the class's interval.
func (e *SequentialEstimator) Width(o core.Outcome) float64 {
	lo, hi := e.Interval(o)
	return hi - lo
}

// MaxWidth returns the widest interval across every tracked outcome
// class — including classes not yet observed, whose interval at small n
// is wide by construction. "Every tracked outcome's CI is narrower than
// the target" is exactly MaxWidth() <= target.
func (e *SequentialEstimator) MaxWidth() float64 {
	if e.n == 0 {
		return 1
	}
	widest := 0.0
	for _, o := range core.AllOutcomes() {
		if w := e.Width(o); w > widest {
			widest = w
		}
	}
	return widest
}

// ciStopPolicy implements core.StopPolicy: halt once every outcome
// class's CI is narrower than the spec's target width, checked every
// CheckEvery runs after MinRuns. Pure function of the outcome prefix.
type ciStopPolicy struct {
	spec core.StopSpec
	est  *SequentialEstimator
}

// NewStopPolicy builds the campaign driver's stop policy from its
// serializable identity. The spec is validated (and its defaults
// normalised) first, so a policy constructed from any equal identity
// behaves identically.
func NewStopPolicy(spec *core.StopSpec) (core.StopPolicy, error) {
	if spec == nil {
		return nil, fmt.Errorf("analytics: nil stop spec")
	}
	s := *spec
	if err := s.Validate(); err != nil {
		return nil, err
	}
	est, err := NewSequentialEstimator(s.Interval, 0.95)
	if err != nil {
		return nil, err
	}
	return &ciStopPolicy{spec: s, est: est}, nil
}

// Reset implements core.StopPolicy.
func (p *ciStopPolicy) Reset() { p.est.Reset() }

// Observe implements core.StopPolicy. index is the global run index;
// observations arrive in order from 0, so the run count equals
// index+1.
func (p *ciStopPolicy) Observe(index int, o core.Outcome) bool {
	p.est.Observe(o)
	n := p.est.N()
	if n < p.spec.MinRuns {
		return false
	}
	if n%p.spec.CheckEvery != 0 {
		return false
	}
	return p.est.MaxWidth() <= float64(p.spec.WidthBP)/10000
}
