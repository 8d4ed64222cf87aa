package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/dessertlab/certify/internal/core"
	"github.com/dessertlab/certify/internal/dist"
)

// shortPlanText is a plan-file E3 variant with a shortened horizon so
// server tests execute campaigns in milliseconds per run.
const shortPlanText = `name      = E3-serve-short
points    = arch_handle_trap
intensity = medium
cpu       = 1
cell      = freertos-cell
duration  = 8s
workload  = steady
`

// newTestServer boots a server (golden self-check skipped unless the
// test opts in) behind httptest and returns it with a wired client.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	if cfg.Poll == 0 {
		cfg.Poll = 2 * time.Millisecond
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, &Client{Base: ts.URL, HTTP: ts.Client()}
}

// waitTerminal polls the job until it leaves the queue/run states.
func waitTerminal(t *testing.T, c *Client, id string) *JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		v, err := c.Job(context.Background(), id)
		if err != nil {
			t.Fatalf("job %s: %v", id, err)
		}
		if v.State.Terminal() {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, v.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// rawSubmit posts the request without the client, exposing the status
// code (202 admitted vs 200 served from cache).
func rawSubmit(t *testing.T, base string, req *SubmitRequest) (int, JobView) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("submit response: %v", err)
	}
	return resp.StatusCode, v
}

// TestSubmitValidation pins the usage error class for every malformed
// request shape.
func TestSubmitValidation(t *testing.T) {
	_, c := newTestServer(t, Config{SkipGoldenCheck: true, MaxRuns: 10})
	bad := []*SubmitRequest{
		{Runs: 4, Seed: 1}, // no plan
		{Plan: "E3-fig3", PlanFile: shortPlanText, Runs: 4}, // both
		{Plan: "nope", Runs: 4},                             // unknown plan
		{PlanFile: "points =", Runs: 4},                     // unparsable plan file
		{Plan: "E3-fig3", Runs: 0},                          // no runs
		{Plan: "E3-fig3", Runs: 11},                         // over MaxRuns
		{Plan: "E3-fig3", Runs: 4, Mode: "verbose"},         // bad mode
		{Plan: "E3-fig3", Runs: 4, Fault: "not-a-model"},    // unknown fault
	}
	for i, req := range bad {
		_, err := c.Submit(context.Background(), req)
		var ae *APIError
		if !errors.As(err, &ae) || ae.Class != ClassUsage {
			t.Fatalf("bad request %d: err = %v, want APIError class usage", i, err)
		}
	}
	// Unknown JSON fields are usage errors too (strict decode).
	resp, err := http.Post(c.Base+"/campaigns", "application/json",
		bytes.NewReader([]byte(`{"plan":"E3-fig3","runs":4,"sede":1}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d, want 400", resp.StatusCode)
	}
	// Missing jobs are not-found.
	_, err = c.Job(context.Background(), "job-999999")
	var ae *APIError
	if !errors.As(err, &ae) || ae.Class != ClassNotFound {
		t.Fatalf("missing job err = %v, want class not-found", err)
	}
}

// TestSubmitBodyBound: a submission body past the 1 MiB cap is refused
// with 413 and class usage, without disturbing the server, while an
// ordinary inline plan_file request is still accepted.
func TestSubmitBodyBound(t *testing.T) {
	_, c := newTestServer(t, Config{SkipGoldenCheck: true, WorkersPerJob: 1})
	big := `{"plan_file":"` + strings.Repeat("a", 2<<20) + `","runs":1}`
	resp, err := http.Post(c.Base+"/campaigns", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	err = json.NewDecoder(resp.Body).Decode(&eb)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge || eb.Class != ClassUsage {
		t.Fatalf("2 MiB body: status %d class %q (%s), want 413 %q", resp.StatusCode, eb.Class, eb.Error, ClassUsage)
	}

	if h, err := c.Health(context.Background()); err != nil || h.Status != "ok" {
		t.Fatalf("server unhealthy after an oversize body: %+v %v", h, err)
	}
	status, v := rawSubmit(t, c.Base, &SubmitRequest{PlanFile: shortPlanText, Runs: 2, Seed: 5})
	if status != http.StatusAccepted {
		t.Fatalf("inline plan_file submit: status %d, want 202", status)
	}
	if done := waitTerminal(t, c, v.ID); done.State != StateCompleted {
		t.Fatalf("inline plan_file job = %s (%s)", done.State, done.Error)
	}
}

// TestSeedWireFormat pins the flexible seed encoding: JSON numbers and
// numeric strings both land on the same campaign.
func TestSeedWireFormat(t *testing.T) {
	for _, in := range []string{`2022`, `"2022"`, `"0x7e6"`} {
		var s Seed
		if err := json.Unmarshal([]byte(in), &s); err != nil {
			t.Fatalf("seed %s: %v", in, err)
		}
		if uint64(s) != 2022 {
			t.Fatalf("seed %s = %d, want 2022", in, s)
		}
	}
	out, err := json.Marshal(Seed(2022))
	if err != nil || string(out) != `"0x7e6"` {
		t.Fatalf("marshal = %s (%v), want \"0x7e6\"", out, err)
	}
	var s Seed
	if err := json.Unmarshal([]byte(`"banana"`), &s); err == nil {
		t.Fatal("non-numeric seed accepted")
	}
}

// canonicalBytes renders the artefact at path in canonical form.
func canonicalBytes(t *testing.T, path string) []byte {
	t.Helper()
	d, err := dist.OpenDossier(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var buf bytes.Buffer
	if err := dist.WriteCanonical(&buf, d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCacheHitByteIdentical is the short-mode cache contract: the
// second identical submission is answered from the store without
// executing, and the artefact served for it is byte-identical both to
// the first execution's and to an independent in-process execution of
// the same spec.
func TestCacheHitByteIdentical(t *testing.T) {
	_, c := newTestServer(t, Config{SkipGoldenCheck: true, WorkersPerJob: 2})
	req := &SubmitRequest{PlanFile: shortPlanText, Runs: 6, Seed: 2022}

	status, v1 := rawSubmit(t, c.Base, req)
	if status != http.StatusAccepted {
		t.Fatalf("first submit status = %d, want 202", status)
	}
	v1done := waitTerminal(t, c, v1.ID)
	if v1done.State != StateCompleted || v1done.Cached {
		t.Fatalf("first job = %s cached=%v, want completed fresh", v1done.State, v1done.Cached)
	}
	var art1 bytes.Buffer
	if err := c.Artefact(context.Background(), &art1, v1.ID); err != nil {
		t.Fatal(err)
	}

	status, v2 := rawSubmit(t, c.Base, req)
	if status != http.StatusOK {
		t.Fatalf("second submit status = %d, want 200 (cache hit)", status)
	}
	if v2.State != StateCompleted || !v2.Cached {
		t.Fatalf("second job = %s cached=%v, want completed from cache", v2.State, v2.Cached)
	}
	if v2.StartSeq != 0 {
		t.Fatalf("cached job has start seq %d — it executed", v2.StartSeq)
	}
	if fmt.Sprint(v2.Distribution) != fmt.Sprint(v1done.Distribution) ||
		v2.InjectionsTotal != v1done.InjectionsTotal {
		t.Fatalf("cached result %v/%d differs from fresh %v/%d",
			v2.Distribution, v2.InjectionsTotal, v1done.Distribution, v1done.InjectionsTotal)
	}
	var art2 bytes.Buffer
	if err := c.Artefact(context.Background(), &art2, v2.ID); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(art1.Bytes(), art2.Bytes()) {
		t.Fatal("cached artefact is not byte-identical to the fresh execution's")
	}

	// Independent execution of the same spec, outside the server.
	plan, err := core.ParsePlan(shortPlanText)
	if err != nil {
		t.Fatal(err)
	}
	spec := &dist.Spec{Plan: plan, Runs: 6, MasterSeed: 2022, Shards: 1, Mode: core.ModeDistribution}
	indep := filepath.Join(t.TempDir(), "indep.jsonl")
	if _, _, err := dist.ExecuteShard(context.Background(), spec, 0, 2, indep); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(art1.Bytes(), canonicalBytes(t, indep)) {
		t.Fatal("served artefact differs from an independent execution's canonical form")
	}
}

// TestCachePoisoning flips bytes in a cached artefact and pins the
// soundness property: the poisoned entry is never served — the
// campaign re-executes and the client still receives the correct
// result. Every poison is applied while the verified-content memo holds
// a verdict (and canonical bytes) for the entry's current content, and
// the file's mtime is put back afterwards: only the bytes tell the
// memo the entry changed.
func TestCachePoisoning(t *testing.T) {
	s, c := newTestServer(t, Config{SkipGoldenCheck: true, WorkersPerJob: 2})
	ctx := context.Background()
	req := &SubmitRequest{PlanFile: shortPlanText, Runs: 6, Seed: 3}
	_, v1 := rawSubmit(t, c.Base, req)
	v1done := waitTerminal(t, c, v1.ID)
	if v1done.State != StateCompleted {
		t.Fatalf("seed job: %s (%s)", v1done.State, v1done.Error)
	}
	job, _ := s.Job(v1.ID)
	path := s.ArtefactPath(job)
	golden := canonicalBytes(t, path)

	// A valid, complete artefact of another campaign, whose verdict the
	// memo also holds: swapped in, its digest hits — with a manifest
	// that must not match the request.
	other := &SubmitRequest{PlanFile: shortPlanText, Runs: 6, Seed: 4}
	_, vo := rawSubmit(t, c.Base, other)
	if done := waitTerminal(t, c, vo.ID); done.State != StateCompleted {
		t.Fatalf("other job: %s (%s)", done.State, done.Error)
	}
	if _, v := rawSubmit(t, c.Base, other); !v.Cached {
		t.Fatal("other campaign's repeat was not a cache hit")
	}
	otherJob, _ := s.Job(vo.ID)
	foreign, err := os.ReadFile(s.ArtefactPath(otherJob))
	if err != nil {
		t.Fatal(err)
	}

	poisons := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"outcome bit-flip", func(b []byte) []byte {
			// Corrupt the first outcome value's leading letter: the record
			// no longer parses as a known outcome.
			return bytes.Replace(b, []byte(`"outcome":"`), []byte(`"outcome":"X`), 1)
		}},
		{"same-length byte flip", func(b []byte) []byte {
			// Overwrite the first outcome value's leading letter in place:
			// same size, unknown outcome.
			i := bytes.Index(b, []byte(`"outcome":"`))
			if i < 0 {
				t.Fatal("no outcome to flip")
			}
			b = bytes.Clone(b)
			b[i+len(`"outcome":"`)] = 'X'
			return b
		}},
		{"truncated summary", func(b []byte) []byte {
			// Drop everything from the summary footer on: incomplete shard.
			i := bytes.Index(b, []byte(`{"type":"summary"`))
			if i < 0 {
				t.Fatal("no summary line to truncate")
			}
			return b[:i]
		}},
		{"truncated mid-record", func(b []byte) []byte { return b[:len(b)/2] }},
		{"summary run count edited in place", func(b []byte) []byte {
			// Same length, every record intact, footer still valid: only
			// the summary-versus-records cross-check can refuse it.
			edited := bytes.Replace(b, []byte(`{"type":"summary","runs":6,`), []byte(`{"type":"summary","runs":7,`), 1)
			if bytes.Equal(edited, b) {
				t.Fatal("no six-run summary line to edit")
			}
			return edited
		}},
		{"valid artefact of another campaign", func([]byte) []byte { return foreign }},
	}
	for _, p := range poisons {
		// The memo holds the entry's current content: a repeat and a
		// download both answer from it.
		if _, v := rawSubmit(t, c.Base, req); !v.Cached {
			t.Fatalf("%s: set-up repeat was not a cache hit", p.name)
		}
		var dl bytes.Buffer
		if err := c.Artefact(ctx, &dl, v1.ID); err != nil {
			t.Fatal(err)
		}
		sum, err := digestFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if e, ok := s.cache.memo.get(sum); !ok || e.canonical == nil {
			t.Fatalf("%s: memo holds no verdict with canonical bytes for the entry", p.name)
		}

		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, p.mut(data), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(path, st.ModTime(), st.ModTime()); err != nil {
			t.Fatal(err)
		}
		_, v := rawSubmit(t, c.Base, req)
		if v.State.Terminal() && v.Cached {
			t.Fatalf("%s: poisoned entry served from cache", p.name)
		}
		done := waitTerminal(t, c, v.ID)
		if done.State != StateCompleted || done.Cached {
			t.Fatalf("%s: job = %s cached=%v (%s), want fresh completion",
				p.name, done.State, done.Cached, done.Error)
		}
		if fmt.Sprint(done.Distribution) != fmt.Sprint(v1done.Distribution) {
			t.Fatalf("%s: re-executed result %v differs from original %v",
				p.name, done.Distribution, v1done.Distribution)
		}
		if !bytes.Equal(canonicalBytes(t, path), golden) {
			t.Fatalf("%s: re-executed artefact not byte-identical to the original", p.name)
		}
		dl.Reset()
		if err := c.Artefact(ctx, &dl, v.ID); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dl.Bytes(), golden) {
			t.Fatalf("%s: downloaded artefact not byte-identical to the original", p.name)
		}
	}
}

// TestCancellationFreesSlotAndLeavesResumableArtefact: cancelling an
// in-flight job aborts it mid-campaign, the artefact left behind is a
// resumable same-campaign remnant, the freed slot admits the next job,
// and resubmitting the cancelled campaign completes it.
func TestCancellationFreesSlotAndLeavesResumableArtefact(t *testing.T) {
	s, c := newTestServer(t, Config{SkipGoldenCheck: true, Slots: 1, WorkersPerJob: 1})
	// Enough runs that the campaign is still going when the cancel
	// lands: warm runs start from golden checkpoints and many are cut
	// off, so a short campaign finishes within a few milliseconds.
	long := &SubmitRequest{Plan: "E3-fig3", Runs: 400, Seed: 7}
	_, v := rawSubmit(t, c.Base, long)

	// Wait until the campaign has made real progress, then cancel.
	job, _ := s.Job(v.ID)
	tail := dist.NewTail(s.ArtefactPath(job))
	deadline := time.Now().Add(60 * time.Second)
	for {
		p, _ := tail.Poll()
		if p.Runs >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never made progress")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := c.Cancel(context.Background(), v.ID); err != nil {
		t.Fatal(err)
	}
	done := waitTerminal(t, c, v.ID)
	if done.State != StateCancelled {
		t.Fatalf("cancelled job state = %s", done.State)
	}

	// The artefact is a same-campaign incomplete remnant.
	sf, err := dist.ReadShard(s.ArtefactPath(job))
	if err != nil {
		t.Fatalf("remnant unreadable: %v", err)
	}
	sh, _ := job.spec.Shard(0)
	if sf.Complete || !sf.Manifest.SameCampaignAs(sh) {
		t.Fatalf("remnant complete=%v sameCampaign=%v, want incomplete same-campaign",
			sf.Complete, sf.Manifest.SameCampaignAs(sh))
	}

	// The slot is free: an unrelated small job completes.
	_, quick := rawSubmit(t, c.Base, &SubmitRequest{PlanFile: shortPlanText, Runs: 2, Seed: 11})
	if q := waitTerminal(t, c, quick.ID); q.State != StateCompleted {
		t.Fatalf("post-cancel job = %s (%s) — slot never freed?", q.State, q.Error)
	}

	// Resubmitting the cancelled campaign finishes it (fresh execution
	// over the remnant, not a cache hit).
	_, again := rawSubmit(t, c.Base, long)
	if again.Cached {
		t.Fatal("incomplete remnant served as a cache hit")
	}
	fin := waitTerminal(t, c, again.ID)
	if fin.State != StateCompleted || fin.Cached {
		t.Fatalf("resubmitted campaign = %s cached=%v (%s)", fin.State, fin.Cached, fin.Error)
	}
	total := 0
	for _, n := range fin.Distribution {
		total += n
	}
	if total != long.Runs {
		t.Fatalf("resumed campaign classified %d runs, want %d", total, long.Runs)
	}
}

// TestHTTPFairnessFloodedTenant pins the end-to-end fairness bound:
// with one execution slot and a tenant flooding the queue, another
// tenant's single job starts within one job-slot turnaround (start
// sequence ≤ 3: the job already running, at most one more flood job,
// then the quiet tenant). Per-tenant submission order is preserved.
func TestHTTPFairnessFloodedTenant(t *testing.T) {
	_, c := newTestServer(t, Config{SkipGoldenCheck: true, Slots: 1, WorkersPerJob: 1})
	// Each flood job simulates 40 minute-horizon runs, so the slot stays
	// occupied for real wall-clock time — long enough that the backlog
	// is still queued when the quiet tenant shows up, even with
	// snapshot-restore machines recycling runs in microseconds. Distinct
	// seeds defeat the result cache.
	var flood []string
	for i := 0; i < 4; i++ {
		_, v := rawSubmit(t, c.Base, &SubmitRequest{
			Tenant: "noisy", Plan: "E3-fig3", Runs: 40, Seed: Seed(100 + i),
		})
		flood = append(flood, v.ID)
	}
	_, quiet := rawSubmit(t, c.Base, &SubmitRequest{
		Tenant: "quiet", Plan: "E3-fig3", Runs: 2, Seed: 999,
	})

	for _, id := range append(append([]string{}, flood...), quiet.ID) {
		if v := waitTerminal(t, c, id); v.State != StateCompleted {
			t.Fatalf("job %s = %s (%s)", id, v.State, v.Error)
		}
	}
	qv, err := c.Job(context.Background(), quiet.ID)
	if err != nil {
		t.Fatal(err)
	}
	if qv.StartSeq == 0 || qv.StartSeq > 3 {
		t.Fatalf("quiet tenant start seq = %d, want 1..3 (one turnaround despite the flood)", qv.StartSeq)
	}
	prev := 0
	for _, id := range flood {
		v, _ := c.Job(context.Background(), id)
		if v.StartSeq <= prev {
			t.Fatalf("flood tenant jobs out of FIFO order: %s started at %d after %d", id, v.StartSeq, prev)
		}
		prev = v.StartSeq
	}
}

// TestEventsAndRunRecords exercises the live-streaming layer: the
// event stream yields state → progress → done, and run records are
// fetchable by global index afterwards.
func TestEventsAndRunRecords(t *testing.T) {
	// Minute-horizon runs take real wall-clock time, so the stream
	// attaches while the campaign is still in flight.
	_, c := newTestServer(t, Config{SkipGoldenCheck: true, WorkersPerJob: 1})
	_, v := rawSubmit(t, c.Base, &SubmitRequest{Plan: "E3-fig3", Runs: 8, Seed: 5})

	var events []Event
	fin, err := c.Watch(context.Background(), v.ID, func(ev Event) { events = append(events, ev) })
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateCompleted {
		t.Fatalf("watched job = %s (%s)", fin.State, fin.Error)
	}
	if len(events) == 0 || events[0].Type != "state" {
		t.Fatalf("stream did not open with a state event: %+v", events)
	}
	last := events[len(events)-1]
	if last.Type != "done" || last.State != StateCompleted {
		t.Fatalf("stream did not end with a completed done event: %+v", last)
	}
	total := 0
	for _, n := range last.Distribution {
		total += n
	}
	if total != 8 {
		t.Fatalf("done event distribution sums to %d, want 8", total)
	}
	sawProgress := false
	for _, ev := range events {
		if ev.Type == "progress" && ev.Runs > 0 {
			sawProgress = true
		}
	}
	if !sawProgress {
		t.Fatal("no per-run progress event observed during execution")
	}

	for _, k := range []int{0, 7} {
		line, err := c.RawRun(context.Background(), v.ID, k)
		if err != nil {
			t.Fatalf("run %d: %v", k, err)
		}
		var rec dist.RunRecord
		if err := json.Unmarshal(line, &rec); err != nil || rec.Index != k {
			t.Fatalf("run %d record = %s (err %v)", k, line, err)
		}
	}
	if _, err := c.RawRun(context.Background(), v.ID, 8); err == nil {
		t.Fatal("out-of-window run record served")
	}
	var ae *APIError
	if err := c.Artefact(context.Background(), bytes.NewBuffer(nil), "job-424242"); !errors.As(err, &ae) || ae.Class != ClassNotFound {
		t.Fatalf("artefact of missing job: %v, want not-found", err)
	}
}

// TestServerGoldenCampaignE2E is the paper-pinned end-to-end check: the
// seed-2022 40-run E3 campaign submitted over HTTP reproduces the
// golden 23/1/16 split with 56 injections; the second identical request
// is a cache hit serving byte-identical evidence; and /healthz carries
// the engine's golden trace fingerprint 0xa10df7f198db0642.
func TestServerGoldenCampaignE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("full golden campaign")
	}
	_, c := newTestServer(t, Config{WorkersPerJob: 4}) // golden self-check ON
	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.GoldenTraceHash != "0xa10df7f198db0642" {
		t.Fatalf("golden trace hash = %s, want 0xa10df7f198db0642", h.GoldenTraceHash)
	}

	req := &SubmitRequest{Plan: "E3-fig3", Runs: 40, Seed: 2022}
	status, v1 := rawSubmit(t, c.Base, req)
	if status != http.StatusAccepted {
		t.Fatalf("first submit status = %d, want 202", status)
	}
	v1done := waitTerminal(t, c, v1.ID)
	if v1done.State != StateCompleted || v1done.Cached {
		t.Fatalf("first job = %s cached=%v (%s)", v1done.State, v1done.Cached, v1done.Error)
	}
	want := map[string]int{
		core.OutcomeCorrect.String():      23,
		core.OutcomeInconsistent.String(): 1,
		core.OutcomePanicPark.String():    16,
	}
	for name, n := range want {
		if v1done.Distribution[name] != n {
			t.Fatalf("distribution[%s] = %d, want %d (full: %v)",
				name, v1done.Distribution[name], n, v1done.Distribution)
		}
	}
	if v1done.InjectionsTotal != 56 {
		t.Fatalf("injections = %d, want 56", v1done.InjectionsTotal)
	}

	var art1 bytes.Buffer
	if err := c.Artefact(context.Background(), &art1, v1.ID); err != nil {
		t.Fatal(err)
	}
	status, v2 := rawSubmit(t, c.Base, req)
	if status != http.StatusOK || !v2.Cached || v2.State != StateCompleted {
		t.Fatalf("second submit: status %d cached=%v state=%s, want 200 cache hit", status, v2.Cached, v2.State)
	}
	for name, n := range want {
		if v2.Distribution[name] != n {
			t.Fatalf("cached distribution[%s] = %d, want %d", name, v2.Distribution[name], n)
		}
	}
	var art2 bytes.Buffer
	if err := c.Artefact(context.Background(), &art2, v2.ID); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(art1.Bytes(), art2.Bytes()) {
		t.Fatal("cached golden artefact not byte-identical to the fresh one")
	}

	// The same campaign executed independently canonicalises to the
	// same bytes the server served.
	spec := &dist.Spec{Plan: core.PlanE3Fig3(), Runs: 40, MasterSeed: 2022, Shards: 1, Mode: core.ModeDistribution}
	indep := filepath.Join(t.TempDir(), "indep.jsonl")
	if _, _, err := dist.ExecuteShard(context.Background(), spec, 0, 4, indep); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(art1.Bytes(), canonicalBytes(t, indep)) {
		t.Fatal("served golden artefact differs from an independent execution's canonical form")
	}
}

// TestCompletedJobDropsPerRunRecords: a finished full-mode job keeps
// only its aggregate in the job table — the per-run records and their
// transcripts live in the artefact — so the daemon does not grow with
// every job it completes, and the job view still reports the split.
func TestCompletedJobDropsPerRunRecords(t *testing.T) {
	s, c := newTestServer(t, Config{SkipGoldenCheck: true, WorkersPerJob: 1})
	_, v := rawSubmit(t, c.Base, &SubmitRequest{PlanFile: shortPlanText, Runs: 4, Seed: 9, Mode: "full"})
	fin := waitTerminal(t, c, v.ID)
	if fin.State != StateCompleted {
		t.Fatalf("job = %s (%s)", fin.State, fin.Error)
	}
	total := 0
	for _, n := range fin.Distribution {
		total += n
	}
	if total != 4 {
		t.Fatalf("job view distribution sums to %d, want 4", total)
	}
	j, ok := s.Job(v.ID)
	if !ok {
		t.Fatal("job missing from the table")
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.result == nil {
		t.Fatal("job table keeps no tally")
	}
	kept := 0
	for _, n := range j.result.counts {
		kept += n
	}
	if kept != 4 {
		t.Fatalf("job table keeps %+v", j.result)
	}
}
