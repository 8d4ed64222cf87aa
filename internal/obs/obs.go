// Package obs is the framework's flight recorder: a zero-dependency
// observability core — atomic counters, gauges and fixed-bucket
// histograms behind a Registry — that the hot layers (core, dist,
// fanout, serve) report into, and that snapshots/exports in Prometheus
// text-exposition and JSON forms.
//
// Design rules, in order of priority:
//
//  1. Observability is out-of-band. Nothing in this package may ever
//     feed back into campaign identity or artefact bytes: metrics read
//     wall clocks and fold into process-local atomics, period. The
//     golden differential suite (internal/dist) pins that an
//     instrumented campaign's artefact is bit-identical to an
//     uninstrumented one.
//  2. Recording must be cheap enough for hot paths: a counter Add is
//     one atomic add behind one atomic enabled-gate load; a histogram
//     Observe adds a short linear bucket walk. Each counter word sits on
//     its own cache line, so hot counters do not falsely share one.
//  3. Metric names are a flat global namespace
//     (certify_<layer>_<what>_<unit>); the Registry rejects duplicate
//     registrations loudly (panic at package init), so a name collision
//     is caught by the first test that links the colliding packages.
//
// All recording respects the package-level enable gate (SetEnabled):
// with the gate off every Add/Set/Observe is a no-op after one atomic
// load — the "metrics off" half of BenchmarkObsOverhead.
package obs

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// enabled is the package-wide recording gate. Exposition always works;
// only recording is gated, so flipping the gate never breaks scrapes.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// SetEnabled flips the global recording gate. Used by the overhead
// benchmark and by deployments that want the flight recorder dark.
func SetEnabled(on bool) { enabled.Store(on) }

// validName is the Prometheus metric/label name grammar.
var validName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// Metric is anything a Registry can hold and export.
type Metric interface {
	Name() string
	Help() string
	// kind is the Prometheus TYPE line value.
	kind() string
	// snapshot renders the metric's current series.
	snapshot() []Series
}

// Series is one exported time series: a label value (empty for plain
// metrics) plus either a scalar or a histogram state.
type Series struct {
	Label string  `json:"label,omitempty"`
	Value float64 `json:"value"`
	// Histogram state (Kind "histogram" only). Buckets are cumulative
	// counts per upper bound, Prometheus-style; the +Inf bucket equals
	// Count.
	Buckets []Bucket `json:"buckets,omitempty"`
	Sum     float64  `json:"sum,omitempty"`
	Count   uint64   `json:"count,omitempty"`
}

// Bucket is one cumulative histogram bucket.
type Bucket struct {
	UpperBound float64 `json:"le"`
	Count      uint64  `json:"count"`
}

// Snapshot is one metric's exported state.
type Snapshot struct {
	Name   string   `json:"name"`
	Help   string   `json:"help"`
	Kind   string   `json:"kind"`
	Label  string   `json:"label_name,omitempty"` // label key for vec metrics
	Series []Series `json:"series"`
}

// Registry holds a flat namespace of metrics. The zero value is not
// usable; construct with NewRegistry. Default is the process-wide
// registry every layer registers into.
type Registry struct {
	mu      sync.RWMutex
	order   []string
	metrics map[string]Metric
}

// Default is the process-wide registry: the serve endpoints and the
// -metrics-out CLI flag export it.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]Metric)}
}

// Register adds m, rejecting duplicate or malformed names. The New*
// constructors wrap it with a panic: a metric-name collision is a
// programming error that must fail the build's first test run, not
// corrupt a scrape at 3am.
func (r *Registry) Register(m Metric) error {
	if !validName.MatchString(m.Name()) {
		return fmt.Errorf("obs: invalid metric name %q", m.Name())
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.metrics[m.Name()]; dup {
		return fmt.Errorf("obs: duplicate metric name %q", m.Name())
	}
	r.metrics[m.Name()] = m
	r.order = append(r.order, m.Name())
	return nil
}

func (r *Registry) mustRegister(m Metric) {
	if err := r.Register(m); err != nil {
		panic(err)
	}
}

// Lookup returns the registered metric by name.
func (r *Registry) Lookup(name string) (Metric, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m, ok := r.metrics[name]
	return m, ok
}

// Snapshot renders every metric's current state, sorted by name — the
// stable order both exposition formats share.
func (r *Registry) Snapshot() []Snapshot {
	r.mu.RLock()
	names := append([]string(nil), r.order...)
	ms := make([]Metric, 0, len(names))
	for _, n := range names {
		ms = append(ms, r.metrics[n])
	}
	r.mu.RUnlock()
	out := make([]Snapshot, 0, len(ms))
	for _, m := range ms {
		s := Snapshot{Name: m.Name(), Help: m.Help(), Kind: m.kind(), Series: m.snapshot()}
		if v, ok := m.(labeled); ok {
			s.Label = v.labelName()
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// labeled is implemented by vec metrics, which carry a label key.
type labeled interface{ labelName() string }

// --- Counter ---------------------------------------------------------

// pad64 spaces atomic words one cache line apart.
type pad64 struct {
	v atomic.Uint64
	_ [56]byte
}

// Counter is a monotonically increasing metric.
type Counter struct {
	name, help string
	v          pad64 // its own cache line: campaign workers share hot counters
}

// NewCounter registers a counter, panicking on a duplicate name.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	r.mustRegister(c)
	return c
}

// Name returns the metric name.
func (c *Counter) Name() string { return c.name }

// Help returns the help text.
func (c *Counter) Help() string { return c.help }

func (c *Counter) kind() string { return "counter" }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if !enabled.Load() {
		return
	}
	c.v.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.v.Load() }

func (c *Counter) snapshot() []Series {
	return []Series{{Value: float64(c.Value())}}
}

// --- Gauge -----------------------------------------------------------

// Gauge is a settable instantaneous value (slots busy, queue depth).
type Gauge struct {
	name, help string
	v          atomic.Int64
}

// NewGauge registers a gauge, panicking on a duplicate name.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{name: name, help: help}
	r.mustRegister(g)
	return g
}

// Name returns the metric name.
func (g *Gauge) Name() string { return g.name }

// Help returns the help text.
func (g *Gauge) Help() string { return g.help }

func (g *Gauge) kind() string { return "gauge" }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if !enabled.Load() {
		return
	}
	g.v.Store(v)
}

// Add adds d (negative to decrement).
func (g *Gauge) Add(d int64) {
	if !enabled.Load() {
		return
	}
	g.v.Add(d)
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

func (g *Gauge) snapshot() []Series {
	return []Series{{Value: float64(g.v.Load())}}
}

// --- Histogram -------------------------------------------------------

// Histogram counts observations into fixed buckets (upper bounds,
// ascending; +Inf implicit) and tracks sum and count. All state is
// atomic; Observe never locks.
type Histogram struct {
	name, help string
	bounds     []float64
	counts     []atomic.Uint64 // len(bounds)+1, last = +Inf
	sumBits    atomic.Uint64   // float64 bits, CAS-folded
	count      atomic.Uint64
}

// NewHistogram registers a histogram over the given bucket upper
// bounds (must be ascending and non-empty), panicking on a duplicate
// name or malformed buckets.
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	h := newHistogram(name, help, buckets)
	r.mustRegister(h)
	return h
}

func newHistogram(name, help string, buckets []float64) *Histogram {
	if len(buckets) == 0 {
		panic(fmt.Sprintf("obs: histogram %q needs at least one bucket", name))
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not ascending at %d", name, i))
		}
	}
	return &Histogram{
		name:   name,
		help:   help,
		bounds: append([]float64(nil), buckets...),
		counts: make([]atomic.Uint64, len(buckets)+1),
	}
}

// Name returns the metric name.
func (h *Histogram) Name() string { return h.name }

// Help returns the help text.
func (h *Histogram) Help() string { return h.help }

func (h *Histogram) kind() string { return "histogram" }

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if !enabled.Load() {
		return
	}
	h.observe(v)
}

func (h *Histogram) observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since start. Call with the
// time.Now() captured at the start of the operation being timed.
func (h *Histogram) ObserveSince(start time.Time) {
	if !enabled.Load() {
		return
	}
	h.observe(time.Since(start).Seconds())
}

// Sum returns the running sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

func (h *Histogram) series() Series {
	s := Series{Sum: h.Sum(), Count: h.Count()}
	var cum uint64
	for i, ub := range h.bounds {
		cum += h.counts[i].Load()
		s.Buckets = append(s.Buckets, Bucket{UpperBound: ub, Count: cum})
	}
	cum += h.counts[len(h.bounds)].Load()
	s.Buckets = append(s.Buckets, Bucket{UpperBound: math.Inf(1), Count: cum})
	return s
}

func (h *Histogram) snapshot() []Series { return []Series{h.series()} }

// --- Vec variants ----------------------------------------------------

// CounterVec is a family of counters keyed by one label value (e.g.
// per-tenant, per-state). Children are created on first use and live
// for the process lifetime — label values must be low-cardinality.
type CounterVec struct {
	name, help, label string
	mu                sync.RWMutex
	children          map[string]*Counter
}

// NewCounterVec registers a one-label counter family.
func (r *Registry) NewCounterVec(name, help, label string) *CounterVec {
	if !validName.MatchString(label) {
		panic(fmt.Sprintf("obs: invalid label name %q for %q", label, name))
	}
	v := &CounterVec{name: name, help: help, label: label, children: make(map[string]*Counter)}
	r.mustRegister(v)
	return v
}

// Name returns the metric name.
func (v *CounterVec) Name() string { return v.name }

// Help returns the help text.
func (v *CounterVec) Help() string { return v.help }

func (v *CounterVec) kind() string      { return "counter" }
func (v *CounterVec) labelName() string { return v.label }

// With returns the child counter for the label value.
func (v *CounterVec) With(value string) *Counter {
	v.mu.RLock()
	c, ok := v.children[value]
	v.mu.RUnlock()
	if ok {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok = v.children[value]; ok {
		return c
	}
	c = &Counter{name: v.name, help: v.help}
	v.children[value] = c
	return c
}

func (v *CounterVec) snapshot() []Series {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make([]Series, 0, len(v.children))
	for value, c := range v.children {
		out = append(out, Series{Label: value, Value: float64(c.Value())})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	return out
}

// HistogramVec is a family of histograms keyed by one label value.
type HistogramVec struct {
	name, help, label string
	buckets           []float64
	mu                sync.RWMutex
	children          map[string]*Histogram
}

// NewHistogramVec registers a one-label histogram family.
func (r *Registry) NewHistogramVec(name, help, label string, buckets []float64) *HistogramVec {
	if !validName.MatchString(label) {
		panic(fmt.Sprintf("obs: invalid label name %q for %q", label, name))
	}
	// Validate the bucket layout once, up front.
	probe := newHistogram(name, help, buckets)
	v := &HistogramVec{
		name: name, help: help, label: label,
		buckets: probe.bounds, children: make(map[string]*Histogram),
	}
	r.mustRegister(v)
	return v
}

// Name returns the metric name.
func (v *HistogramVec) Name() string { return v.name }

// Help returns the help text.
func (v *HistogramVec) Help() string { return v.help }

func (v *HistogramVec) kind() string      { return "histogram" }
func (v *HistogramVec) labelName() string { return v.label }

// With returns the child histogram for the label value.
func (v *HistogramVec) With(value string) *Histogram {
	v.mu.RLock()
	h, ok := v.children[value]
	v.mu.RUnlock()
	if ok {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h, ok = v.children[value]; ok {
		return h
	}
	h = newHistogram(v.name, v.help, v.buckets)
	v.children[value] = h
	return h
}

func (v *HistogramVec) snapshot() []Series {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make([]Series, 0, len(v.children))
	for value, h := range v.children {
		s := h.series()
		s.Label = value
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	return out
}

// --- Bucket layouts --------------------------------------------------

// ExpBuckets returns n ascending bucket bounds starting at start,
// multiplying by factor — the standard layout for latencies and sizes.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LatencyBuckets covers 10µs … ~160s in ×4 steps: wide enough for a
// pool reset (~µs–ms), an experiment run (~ms–s) and a whole campaign.
var LatencyBuckets = ExpBuckets(10e-6, 4, 13)

// SizeBuckets covers 1 … 4096 in ×2 steps — batch sizes, event counts
// in the thousands.
var SizeBuckets = ExpBuckets(1, 2, 13)
