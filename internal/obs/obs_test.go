package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_counter_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("Value = %d, want 5", got)
	}
}

func TestCounterConcurrentAddsSum(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_concurrent_total", "concurrent counter")
	var wg sync.WaitGroup
	const workers, per = 16, 1000
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("Value = %d, want %d", got, workers*per)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.NewGauge("test_gauge", "a gauge")
	g.Set(7)
	g.Inc()
	g.Dec()
	g.Add(-2)
	if got := g.v.Load(); got != 5 {
		t.Fatalf("Value = %d, want 5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("test_hist", "a histogram", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("Count = %d, want 4", h.Count())
	}
	if h.Sum() != 555.5 {
		t.Fatalf("Sum = %g, want 555.5", h.Sum())
	}
	s := h.series()
	wantCum := []uint64{1, 2, 3, 4} // le=1, le=10, le=100, le=+Inf
	if len(s.Buckets) != len(wantCum) {
		t.Fatalf("buckets = %d, want %d", len(s.Buckets), len(wantCum))
	}
	for i, b := range s.Buckets {
		if b.Count != wantCum[i] {
			t.Errorf("bucket %d cumulative = %d, want %d", i, b.Count, wantCum[i])
		}
	}
	if !math.IsInf(s.Buckets[len(s.Buckets)-1].UpperBound, 1) {
		t.Errorf("last bucket bound not +Inf")
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("test_conc_hist", "h", []float64{1})
	var wg sync.WaitGroup
	const workers, per = 8, 500
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				h.Observe(0.5)
			}
		}()
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("Count = %d, want %d", h.Count(), workers*per)
	}
	if h.Sum() != workers*per*0.5 {
		t.Fatalf("Sum = %g, want %g", h.Sum(), float64(workers*per)*0.5)
	}
}

func TestDuplicateNameRejected(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup_total", "first")
	if err := r.Register(&Counter{name: "dup_total"}); err == nil {
		t.Fatal("Register accepted a duplicate metric name")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewCounter did not panic on duplicate name")
		}
	}()
	r.NewCounter("dup_total", "second")
}

func TestInvalidNameRejected(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(&Counter{name: "bad-name"}); err == nil {
		t.Fatal("Register accepted a malformed metric name")
	}
}

func TestDisabledRecordingIsNoOp(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_disabled_total", "c")
	g := r.NewGauge("test_disabled_gauge", "g")
	h := r.NewHistogram("test_disabled_hist", "h", []float64{1})
	SetEnabled(false)
	defer SetEnabled(true)
	c.Inc()
	c.Add(3)
	g.Set(9)
	h.Observe(2)
	if c.Value() != 0 || g.v.Load() != 0 || h.Count() != 0 {
		t.Fatalf("recording not gated: counter=%d gauge=%d hist=%d",
			c.Value(), g.v.Load(), h.Count())
	}
}

func TestVecChildren(t *testing.T) {
	r := NewRegistry()
	cv := r.NewCounterVec("test_vec_total", "by tenant", "tenant")
	cv.With("alice").Add(2)
	cv.With("bob").Inc()
	cv.With("alice").Inc()
	if cv.With("alice").Value() != 3 || cv.With("bob").Value() != 1 {
		t.Fatalf("vec children wrong: alice=%d bob=%d",
			cv.With("alice").Value(), cv.With("bob").Value())
	}
	hv := r.NewHistogramVec("test_vec_hist", "by state", "state", []float64{1, 2})
	hv.With("running").Observe(1.5)
	if hv.With("running").Count() != 1 {
		t.Fatal("histogram vec child lost an observation")
	}
	snaps := r.Snapshot()
	for _, s := range snaps {
		if s.Name == "test_vec_total" {
			if s.Label != "tenant" || len(s.Series) != 2 {
				t.Fatalf("vec snapshot wrong: label=%q series=%d", s.Label, len(s.Series))
			}
			// sorted by label value
			if s.Series[0].Label != "alice" || s.Series[1].Label != "bob" {
				t.Fatalf("vec series not sorted: %+v", s.Series)
			}
		}
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("certify_test_runs_total", "Total runs.")
	c.Add(3)
	g := r.NewGauge("certify_test_slots", "Busy slots.")
	g.Set(2)
	h := r.NewHistogram("certify_test_latency_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(5)
	cv := r.NewCounterVec("certify_test_jobs_total", "Jobs by state.", "state")
	cv.With("done").Inc()

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# HELP certify_test_runs_total Total runs.",
		"# TYPE certify_test_runs_total counter",
		"certify_test_runs_total 3",
		"# TYPE certify_test_slots gauge",
		"certify_test_slots 2",
		"# TYPE certify_test_latency_seconds histogram",
		`certify_test_latency_seconds_bucket{le="0.1"} 1`,
		`certify_test_latency_seconds_bucket{le="1"} 1`,
		`certify_test_latency_seconds_bucket{le="+Inf"} 2`,
		"certify_test_latency_seconds_sum 5.05",
		"certify_test_latency_seconds_count 2",
		`certify_test_jobs_total{state="done"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, text)
		}
	}
	// Basic format sanity: every non-comment line is "name[{labels}] value".
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		if len(strings.Fields(line)) != 2 {
			t.Errorf("malformed exposition line: %q", line)
		}
	}
}

func TestJSONExport(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("certify_json_total", "c").Add(9)
	r.NewHistogram("certify_json_hist", "h", []float64{1}).Observe(0.5)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("WriteJSON output not valid JSON: %v\n%s", err, buf.String())
	}
	if _, ok := doc["certify_json_total"]; !ok {
		t.Fatalf("JSON export missing counter key: %s", buf.String())
	}
	if _, ok := doc["certify_json_hist"]; !ok {
		t.Fatalf("JSON export missing histogram key: %s", buf.String())
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestObserveSince(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("test_since_seconds", "h", []float64{10})
	h.ObserveSince(time.Now().Add(-time.Millisecond))
	if h.Count() != 1 || h.Sum() <= 0 {
		t.Fatalf("ObserveSince recorded count=%d sum=%g", h.Count(), h.Sum())
	}
}

func TestSnapshotSortedByName(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("zzz_total", "z")
	r.NewCounter("aaa_total", "a")
	s := r.Snapshot()
	if len(s) != 2 || s[0].Name != "aaa_total" || s[1].Name != "zzz_total" {
		t.Fatalf("snapshot not sorted: %+v", s)
	}
}
