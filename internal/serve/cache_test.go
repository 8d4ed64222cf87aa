package serve

import (
	"bytes"
	"container/list"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
)

func newTestMemo() *verifiedMemo {
	return &verifiedMemo{byDigest: make(map[digest]*list.Element)}
}

func testDigest(i int) digest {
	var d digest
	binary.LittleEndian.PutUint64(d[:], uint64(i))
	return d
}

// TestVerifiedMemoEntryBound fills the memo to its entry cap and adds
// one more verdict: exactly the least recently used one goes.
func TestVerifiedMemoEntryBound(t *testing.T) {
	m := newTestMemo()
	evicted := metMemoEvictions.Value()
	for i := 0; i < memoMaxEntries; i++ {
		m.put(&memoEntry{sum: testDigest(i)})
	}
	if _, ok := m.get(testDigest(0)); !ok { // 1 is now least recently used
		t.Fatal("entry 0 missing below the cap")
	}
	m.put(&memoEntry{sum: testDigest(memoMaxEntries)})

	if n := m.lru.Len(); n != memoMaxEntries || len(m.byDigest) != memoMaxEntries {
		t.Fatalf("memo holds %d entries (%d indexed), cap %d", n, len(m.byDigest), memoMaxEntries)
	}
	if _, ok := m.get(testDigest(1)); ok {
		t.Fatal("least recently used entry survived the cap")
	}
	for _, i := range []int{0, 2, memoMaxEntries} {
		if _, ok := m.get(testDigest(i)); !ok {
			t.Fatalf("entry %d evicted out of LRU order", i)
		}
	}
	if got := metMemoEvictions.Value() - evicted; got != 1 {
		t.Fatalf("evictions counted %d, want 1", got)
	}
	if want := int64(memoMaxEntries) * memoEntryOverhead; m.held != want {
		t.Fatalf("held %d bytes, want %d", m.held, want)
	}
}

// TestVerifiedMemoByteBound fills the byte cap with canonical bytes
// exactly, then pushes past it: the least recently used verdict goes,
// and canonical bytes that could never fit are not held at all.
func TestVerifiedMemoByteBound(t *testing.T) {
	m := newTestMemo()
	half := make([]byte, memoMaxBytes/2-memoEntryOverhead)
	a, b, c := testDigest(1), testDigest(2), testDigest(3)
	for _, d := range []digest{a, b} {
		m.put(&memoEntry{sum: d})
		m.setCanonical(d, half)
	}
	if m.held != memoMaxBytes || m.lru.Len() != 2 {
		t.Fatalf("at the cap: held %d bytes in %d entries, want %d in 2", m.held, m.lru.Len(), memoMaxBytes)
	}
	m.put(&memoEntry{sum: c})
	if _, ok := m.get(a); ok {
		t.Fatal("least recently used entry survived the byte cap")
	}
	if e, ok := m.get(b); !ok || len(e.canonical) != len(half) {
		t.Fatal("recent entry lost its canonical bytes")
	}
	if want := int64(memoMaxBytes/2 + memoEntryOverhead); m.held != want {
		t.Fatalf("held %d bytes, want %d", m.held, want)
	}

	m.setCanonical(c, make([]byte, memoMaxBytes))
	if e, ok := m.get(c); !ok || e.canonical != nil {
		t.Fatal("canonical bytes beyond the byte cap were memoised")
	}
	if _, ok := m.get(b); !ok {
		t.Fatal("an oversized fill evicted other entries")
	}
}

// TestArtefactDownloadMemoHitMatchesMiss: the first download of an
// entry renders it (a memo miss), the repeats answer from the memo, and
// every one is byte-identical to the canonical form rendered directly
// from the artefact. /metrics counts each repeat as a memo hit.
func TestArtefactDownloadMemoHitMatchesMiss(t *testing.T) {
	s, c := newTestServer(t, Config{SkipGoldenCheck: true, WorkersPerJob: 2})
	ctx := context.Background()
	_, v := rawSubmit(t, c.Base, &SubmitRequest{PlanFile: shortPlanText, Runs: 4, Seed: 11, Mode: "full"})
	if done := waitTerminal(t, c, v.ID); done.State != StateCompleted {
		t.Fatalf("job = %s (%s)", done.State, done.Error)
	}
	job, _ := s.Job(v.ID)
	want := canonicalBytes(t, s.ArtefactPath(job))

	hits, misses := metMemoHits.Value(), metMemoMisses.Value()
	var miss bytes.Buffer
	if err := c.Artefact(ctx, &miss, v.ID); err != nil {
		t.Fatal(err)
	}
	if got := metMemoMisses.Value() - misses; got != 1 {
		t.Fatalf("first download counted %d memo misses, want 1", got)
	}
	const repeats = 3
	for i := 0; i < repeats; i++ {
		var hit bytes.Buffer
		if err := c.Artefact(ctx, &hit, v.ID); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(hit.Bytes(), miss.Bytes()) {
			t.Fatalf("download %d (memo hit) differs from the first (memo miss)", i+2)
		}
	}
	if !bytes.Equal(miss.Bytes(), want) {
		t.Fatal("downloaded artefact differs from the directly rendered canonical form")
	}
	// The repeat submissions hit the verdict the first download stored.
	for i := 0; i < repeats; i++ {
		if _, r := rawSubmit(t, c.Base, &SubmitRequest{PlanFile: shortPlanText, Runs: 4, Seed: 11, Mode: "full"}); !r.Cached {
			t.Fatalf("repeat %d was not a cache hit", i)
		}
	}
	if got := metMemoHits.Value() - hits; got != 2*repeats {
		t.Fatalf("memo hits counted %d, want %d", got, 2*repeats)
	}
	if got := metMemoMisses.Value() - misses; got != 1 {
		t.Fatalf("memo misses counted %d, want 1", got)
	}
	text := fetchMetrics(t, c.Base)
	for _, fam := range []string{
		"certify_serve_verified_memo_hits_total",
		"certify_serve_verified_memo_misses_total",
		"certify_serve_verified_memo_evictions_total",
		"certify_serve_verified_memo_entries",
		"certify_serve_verified_memo_held_bytes",
	} {
		if !bytes.Contains(text, []byte("# TYPE "+fam+" ")) {
			t.Errorf("/metrics lacks %s", fam)
		}
	}
	if !bytes.Contains(text, []byte(fmt.Sprintf("certify_serve_verified_memo_hits_total %d\n", metMemoHits.Value()))) {
		t.Errorf("/metrics memo hit count disagrees with the counter (%d)", metMemoHits.Value())
	}
}

// TestConcurrentCachedSubmitsAndDownloads races repeat submissions and
// downloads of one entry, starting from an empty memo, so first-fill,
// canonical fill and hits interleave. Every answer must be the entry's.
func TestConcurrentCachedSubmitsAndDownloads(t *testing.T) {
	s, c := newTestServer(t, Config{SkipGoldenCheck: true, WorkersPerJob: 2})
	ctx := context.Background()
	req := &SubmitRequest{PlanFile: shortPlanText, Runs: 4, Seed: 12, Mode: "full"}
	_, v := rawSubmit(t, c.Base, req)
	first := waitTerminal(t, c, v.ID)
	if first.State != StateCompleted {
		t.Fatalf("job = %s (%s)", first.State, first.Error)
	}
	job, _ := s.Job(v.ID)
	want := canonicalBytes(t, s.ArtefactPath(job))

	const clients, rounds = 6, 5
	ids := make(chan string, clients*rounds)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				hit, err := c.Submit(ctx, req)
				if err != nil {
					t.Error(err)
					return
				}
				if !hit.Cached || fmt.Sprint(hit.Distribution) != fmt.Sprint(first.Distribution) {
					t.Errorf("repeat = cached %v %v, want cached %v", hit.Cached, hit.Distribution, first.Distribution)
				}
				ids <- hit.ID
				var art bytes.Buffer
				if err := c.Artefact(ctx, &art, v.ID); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(art.Bytes(), want) {
					t.Error("concurrent download differs from the canonical form")
				}
			}
		}()
	}
	wg.Wait()
	close(ids)

	sum, err := digestFile(s.ArtefactPath(job))
	if err != nil {
		t.Fatal(err)
	}
	e, ok := s.cache.memo.get(sum)
	if !ok || !bytes.Equal(e.canonical, want) {
		t.Fatal("memo holds no verdict with the canonical bytes for the entry")
	}
	// Every repeat reports the memo's one verified tally: a cached job
	// holds a pointer to an immutable value, not a copy.
	for id := range ids {
		j, _ := s.Job(id)
		j.mu.Lock()
		res := j.result
		j.mu.Unlock()
		if res != e.result {
			t.Fatalf("cached job %s holds its own tally, not the memo's", id)
		}
	}
}

// fetchMetrics returns the /metrics exposition.
func fetchMetrics(t *testing.T, base string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
