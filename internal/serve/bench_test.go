package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"
)

// BenchmarkServerCachedRequest measures layer 2 of the campaign server:
// a submit whose (plan hash, seed, runs, mode) key already has a
// verified artefact in the result cache is answered synchronously from
// the store — manifest check, summary decode, HTTP round trip — without
// simulating a single run. The fresh execution of the same 40-run E3
// campaign is timed once as the baseline; the acceptance bar is a ≥100×
// speedup for the cached path. (Lives here rather than in the root
// bench harness: linking net/http into the root test binary perturbs
// TestTraceArenaPresize's allocation goldens.)
func BenchmarkServerCachedRequest(b *testing.B) {
	s, err := New(Config{
		DataDir: b.TempDir(), SkipGoldenCheck: true, WorkersPerJob: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	c := &Client{Base: ts.URL, HTTP: ts.Client()}
	ctx := context.Background()
	req := &SubmitRequest{Plan: "E3-fig3", Runs: 40, Seed: 2022}

	// Fresh execution: submit, then poll to completion. Timed once as
	// the baseline the cache is measured against.
	freshStart := time.Now()
	v, err := c.Submit(ctx, req)
	if err != nil {
		b.Fatal(err)
	}
	for !v.State.Terminal() {
		time.Sleep(2 * time.Millisecond)
		if v, err = c.Job(ctx, v.ID); err != nil {
			b.Fatal(err)
		}
	}
	fresh := time.Since(freshStart)
	if v.State != StateCompleted || v.Cached {
		b.Fatalf("baseline job = %s cached=%v", v.State, v.Cached)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hit, err := c.Submit(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		if !hit.Cached || hit.State != StateCompleted {
			b.Fatalf("request %d missed the cache: %s cached=%v", i, hit.State, hit.Cached)
		}
	}
	b.StopTimer()
	cached := b.Elapsed() / time.Duration(b.N)
	b.ReportMetric(float64(fresh.Milliseconds()), "fresh_ms")
	b.ReportMetric(fresh.Seconds()/cached.Seconds(), "speedup_x")
}

// BenchmarkServerCachedRequestFullMode splits the read side of a large
// cache entry by request kind: one full-mode E1-hvc entry (120 runs,
// records carrying whole serial transcripts, about 1.3 MB on disk) is
// filled, then every iteration times a repeat submission answered from
// the store (cached_submit_ms) and a download of the canonical artefact
// (artefact_ms), each checked against the first answer. An untimed
// repeat and download come first, so the rows time steady-state
// repeats rather than the first read of the entry.
func BenchmarkServerCachedRequestFullMode(b *testing.B) {
	s, err := New(Config{
		DataDir: b.TempDir(), SkipGoldenCheck: true, WorkersPerJob: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	c := &Client{Base: ts.URL, HTTP: ts.Client()}
	ctx := context.Background()
	req := &SubmitRequest{Plan: "E1-hvc", Runs: 120, Seed: 2022, Mode: "full"}

	v, err := c.Submit(ctx, req)
	if err != nil {
		b.Fatal(err)
	}
	for !v.State.Terminal() {
		time.Sleep(10 * time.Millisecond)
		if v, err = c.Job(ctx, v.ID); err != nil {
			b.Fatal(err)
		}
	}
	if v.State != StateCompleted {
		b.Fatalf("fill job = %s (%s)", v.State, v.Error)
	}
	first, err := c.Submit(ctx, req)
	if err != nil || !first.Cached {
		b.Fatalf("warm-up repeat: cached=%v err=%v", first != nil && first.Cached, err)
	}
	var want bytes.Buffer
	if err := c.Artefact(ctx, &want, v.ID); err != nil {
		b.Fatal(err)
	}

	var submit, artefact time.Duration
	var got bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		hit, err := c.Submit(ctx, req)
		submit += time.Since(start)
		if err != nil {
			b.Fatal(err)
		}
		if !hit.Cached || fmt.Sprint(hit.Distribution) != fmt.Sprint(first.Distribution) {
			b.Fatalf("repeat %d: cached=%v %v, want %v", i, hit.Cached, hit.Distribution, first.Distribution)
		}
		got.Reset()
		start = time.Now()
		err = c.Artefact(ctx, &got, v.ID)
		artefact += time.Since(start)
		if err != nil {
			b.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			b.Fatalf("download %d differs from the first", i)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(submit)/float64(b.N)/1e6, "cached_submit_ms")
	b.ReportMetric(float64(artefact)/float64(b.N)/1e6, "artefact_ms")
	b.ReportMetric(float64(want.Len()), "artefact_bytes")
}
