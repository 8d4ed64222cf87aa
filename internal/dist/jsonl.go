package dist

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"github.com/dessertlab/certify/internal/core"
)

// SchemaVersion is the JSONL artefact schema generation. Readers refuse
// files written by a newer schema; bump it on any incompatible change to
// the record shapes below.
const SchemaVersion = 1

// Line discriminators (the "type" field every record leads with). Type
// must stay the FIRST field of every record struct: the fan-out
// supervisor's Tail classifies live artefact lines by their
// `{"type":"..."` prefix without decoding JSON.
const (
	recordManifest = "manifest"
	recordRun      = "run"
	recordSummary  = "summary"
)

// Manifest is the first line of a shard artefact file: everything a
// merge needs to decide whether this file belongs to the campaign it is
// assembling — and to refuse it loudly when it does not.
type Manifest struct {
	Type       string `json:"type"`        // "manifest"
	Schema     int    `json:"schema"`      // SchemaVersion
	Plan       string `json:"plan"`        // plan name, for humans
	PlanHash   string `json:"plan_hash"`   // hex core.TestPlan.Hash — the machine check
	MasterSeed string `json:"master_seed"` // hex
	Runs       int    `json:"runs"`        // total campaign runs across all shards
	Shards     int    `json:"shards"`      // shard count K
	Shard      int    `json:"shard"`       // this file's shard index
	Start      int    `json:"start"`       // first global run index, inclusive
	End        int    `json:"end"`         // last global run index, exclusive
	Mode       string `json:"mode"`        // evidence retention mode

	// FaultModel is the registry name of the fault model the shard ran.
	// Omitted (and read back as "") by pre-registry writers; "" and
	// "register" are the same identity, so old artefacts stay mergeable.
	FaultModel string `json:"fault_model,omitempty"`

	// Stop is the adaptive stop policy the campaign runs under, nil for
	// fixed-N campaigns. Like the fault model it is campaign identity:
	// two artefacts whose stop specs differ certify different prefixes
	// and must never merge or answer for each other in the result cache.
	// Absent in pre-adaptive artefacts (read back as nil = fixed-N), so
	// old files stay mergeable and fixed-N manifests byte-identical.
	Stop *core.StopSpec `json:"stop,omitempty"`

	// Stratify records that runs rotate over register-class strata
	// (core.StratifyPlan): run i injects into stratum i mod 3. Campaign
	// identity for the same reason — a stratified run sequence is a
	// different experiment than a uniform one.
	Stratify bool `json:"stratify,omitempty"`
}

// faultModelID normalises the manifest's fault-model identity: absent
// (pre-registry artefact) means the default register model.
func (m Manifest) faultModelID() string {
	if m.FaultModel == "" {
		return core.DefaultFaultModelName
	}
	return m.FaultModel
}

// identityDiff names the identity fields where m and o disagree. The
// plan hash — not the name — identifies the plan. The shard index and
// window count only with shard set: shards of one campaign differ in
// them.
func (m Manifest) identityDiff(o Manifest, shard bool) []string {
	var parts []string
	add := func(field string, a, b any) {
		if a != b {
			parts = append(parts, fmt.Sprintf("%s %v vs %v", field, a, b))
		}
	}
	add("schema", m.Schema, o.Schema)
	add("plan hash", m.PlanHash, o.PlanHash)
	add("master seed", m.MasterSeed, o.MasterSeed)
	add("runs", m.Runs, o.Runs)
	add("shards", m.Shards, o.Shards)
	if shard {
		add("shard index", m.Shard, o.Shard)
		add("window start", m.Start, o.Start)
		add("window end", m.End, o.End)
	}
	add("mode", m.Mode, o.Mode)
	add("fault model", m.faultModelID(), o.faultModelID())
	add("stop policy", m.Stop.Identity(), o.Stop.Identity())
	add("stratify", m.Stratify, o.Stratify)
	return parts
}

// matches reports whether two manifests describe the same shard of the
// same campaign.
func (m Manifest) matches(o Manifest) bool { return len(m.identityDiff(o, true)) == 0 }

// diff names the fields where two manifests of one shard disagree, for
// error messages that point at the actual mismatch.
func (m Manifest) diff(o Manifest) string {
	if parts := m.identityDiff(o, true); len(parts) > 0 {
		return strings.Join(parts, ", ")
	}
	return "identical manifests"
}

// sameCampaign reports whether two manifests (of different shards) come
// from the same campaign spec.
func (m Manifest) sameCampaign(o Manifest) bool { return len(m.identityDiff(o, false)) == 0 }

// campaignDiff names the campaign-identity fields where m and o
// disagree. Empty when sameCampaign would be true.
func (m Manifest) campaignDiff(o Manifest) string {
	return strings.Join(m.identityDiff(o, false), ", ")
}

// RunRecord is one line per classified run — the per-run evidence the
// paper's rig logged, reduced to what Distribution mode can afford to
// keep plus whatever the retention mode captured. Transcripts appear
// only when the shard ran in full mode; the streaming writer never
// re-enables transcript retention on its own.
type RunRecord struct {
	Type        string   `json:"type"`  // "run"
	Index       int      `json:"index"` // global run index in [Start, End)
	Seed        string   `json:"seed"`  // hex per-run seed
	Outcome     string   `json:"outcome"`
	Injections  int      `json:"injections"`
	DetectionNS int64    `json:"detection_latency_ns"` // -1 = nothing detected
	HorizonNS   int64    `json:"horizon_ns"`
	CellLines   int      `json:"cell_console_lines"`
	TraceHash   string   `json:"trace_hash"` // hex sim.Trace.Hash
	Evidence    []string `json:"evidence,omitempty"`
	Root        string   `json:"root_transcript,omitempty"` // full mode only
	Cell        string   `json:"cell_transcript,omitempty"` // full mode only
}

// Summary is the footer line: the shard's aggregate distribution. Its
// presence is the completion marker — a file without a summary is a
// crashed shard and is rerun, not merged.
type Summary struct {
	Type         string         `json:"type"` // "summary"
	Runs         int            `json:"runs"`
	Distribution map[string]int `json:"distribution"`
	Injections   int            `json:"injections_total"`
	MeanDetectNS int64          `json:"mean_detection_latency_ns"`

	// DecidedAt / StopFired record the adaptive stop decision for shards
	// run under a stop policy (manifest Stop != nil): the shard's
	// certified prefix ends at global index DecidedAt, and StopFired
	// says the policy halted before the shard's window end. Both are
	// pure functions of the manifest window and the record count
	// (stampStop), so a canonical rewrite reproduces them byte-for-byte.
	// Omitted for fixed-N shards, keeping their footers byte-identical
	// to the pre-adaptive format.
	DecidedAt int  `json:"decided_at,omitempty"`
	StopFired bool `json:"stop_fired,omitempty"`
}

// stampStop derives the summary's stop-decision fields from the
// manifest window and the number of run records the artefact holds.
// DecidedAt = Start + records; StopFired means the policy fired inside
// the window (records < window) — a shard whose target was only met
// exactly at the window end counts as not-fired, the same convention
// core.Campaign uses, so the stamp never disagrees with the in-memory
// decision. Fixed-N artefacts (m.Stop == nil) are left unstamped.
func stampStop(s *Summary, m Manifest, records int) {
	if m.Stop == nil {
		return
	}
	s.DecidedAt = m.Start + records
	s.StopFired = records < m.End-m.Start
}

// DefaultFlushInterval is the batching window CreateJSONL installs: run
// records are pushed through to the file either when a batch fills or
// when a record has been sitting unflushed this long — the liveness
// contract dist.Tail's consumers (the fan-out stall watchdog, progress
// display) rely on. Per-record flushing cost a measurable share of the
// OnRun campaign gap (ROADMAP); batching closes it without letting the
// artefact lag the classification stream by more than this interval.
const DefaultFlushInterval = 25 * time.Millisecond

// flushBatch caps how many run records may sit unflushed regardless of
// the timer: a full batch flushes immediately, so high-rate campaigns
// never buffer more than this many runs.
const flushBatch = 64

// JSONLWriter streams campaign evidence as JSON Lines: one manifest,
// one record per run as it classifies, one summary footer. Its OnRun
// method plugs directly into core.Campaign.OnRun; workers call it
// concurrently, so every write is serialised under an internal mutex.
// Record order in the file is completion order — consumers key on the
// index field, never on line position.
//
// Records are encoded by one persistent json.Encoder per writer (no
// per-record buffer copy) and flushed in batches: immediately when
// flushBatch records are pending, otherwise by a timer within the flush
// interval — see SetFlushInterval.
type JSONLWriter struct {
	mu   sync.Mutex
	w    *bufio.Writer
	enc  *json.Encoder // persistent line encoder over lineCount → w
	gz   *gzip.Writer  // non-nil for .gz artefacts; closed before file
	file *os.File
	err  error // first write error; OnRun cannot return one
	runs int
	man  Manifest // header, kept for the summary's stop stamp
	// haveMan guards man: a writer used without WriteManifest (tests,
	// ad-hoc streams) must not stamp from a zero manifest.
	haveMan bool

	// lineCount meters the uncompressed line stream (the encoder's
	// output), giving every record its byte offset for the index footer.
	lineCount *countingWriter
	// fileCount meters compressed bytes reaching the file — the gzip
	// restart offsets. Nil for plain artefacts.
	fileCount *countingWriter
	// idx accumulates the index footer.
	idx *indexBuilder

	flushEvery time.Duration // 0 = flush every record synchronously
	pending    int           // run records since the last flush
	timer      *time.Timer   // deadline-flush timer, reused across batches
	timerArmed bool          // the timer is scheduled to fire
	closed     bool
}

// countingWriter meters bytes passed through to its sink.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// SetFlushInterval selects the batching window: d > 0 lets run records
// accumulate until a batch fills or a timer fires d after the first
// unflushed record; d == 0 restores synchronous per-record flushing.
// Call before the first OnRun.
func (jw *JSONLWriter) SetFlushInterval(d time.Duration) {
	jw.mu.Lock()
	defer jw.mu.Unlock()
	if d < 0 {
		d = 0
	}
	jw.flushEvery = d
}

// IsGzipPath reports whether path names a gzip-compressed artefact —
// the ".gz" suffix is the write-side contract (readers additionally
// sniff the magic bytes, so a renamed file still parses).
func IsGzipPath(path string) bool { return strings.HasSuffix(path, ".gz") }

// CreateJSONL creates (or truncates) the artefact file at path. A ".gz"
// suffix selects transparent gzip compression: archive-scale campaigns
// keep per-run evidence at a fraction of the plain-text footprint, and
// ReadShard/Merge decompress on the fly.
//
// File-backed writers index as they write: every run record's offset,
// outcome, trace hash, injection count and detection latency is
// recorded, and Close appends the index footer that OpenDossier uses
// for random access. Gzip artefacts additionally end a gzip member at
// every batch flush, so each flush point doubles as a random-access
// restart offset (gzip decoding cannot otherwise start mid-stream).
func CreateJSONL(path string) (*JSONLWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	jw := &JSONLWriter{file: f, flushEvery: DefaultFlushInterval, idx: &indexBuilder{}}
	if IsGzipPath(path) {
		jw.fileCount = &countingWriter{w: f}
		jw.gz = gzip.NewWriter(jw.fileCount)
		jw.w = bufio.NewWriter(jw.gz)
		jw.idx.restarts = []restart{{comp: 0, uncomp: 0}}
	} else {
		jw.w = bufio.NewWriter(f)
	}
	jw.lineCount = &countingWriter{w: jw.w}
	jw.enc = json.NewEncoder(jw.lineCount)
	return jw, nil
}

// writeLine encodes v and appends it as one line through the writer's
// persistent encoder (which terminates each value with '\n', exactly the
// bytes json.Marshal+newline produced). Callers hold mu.
func (jw *JSONLWriter) writeLine(v any) error {
	if jw.err != nil {
		return jw.err
	}
	if err := jw.enc.Encode(v); err != nil {
		jw.err = err
		return err
	}
	return nil
}

// flushLocked pushes buffered bytes through to the file so the lines
// written so far are visible to a tailing supervisor and survive a
// kill. For gzip artefacts every flush ends the current gzip member
// and starts a new one (a few bytes of header/trailer per batch): the
// member boundary buys the same liveness and torn-file recovery a
// flate sync point did, and doubles as a random-access restart offset
// — decoding can start at any member boundary without the stream
// history a mid-member seek would need. Callers hold mu.
func (jw *JSONLWriter) flushLocked() {
	if jw.pending > 0 {
		metFlushBatch.Observe(float64(jw.pending))
	}
	jw.pending = 0
	if err := jw.w.Flush(); err != nil {
		if jw.err == nil {
			jw.err = err
		}
		return
	}
	if jw.gz != nil {
		jw.closeMemberLocked()
	}
}

// closeMemberLocked ends the current gzip member (when it holds any
// bytes) and records the next member's restart point. Line boundaries
// always coincide with flushes, so no record line ever straddles a
// member boundary — the invariant the dossier's random-access reads
// rely on. Callers hold mu and have flushed jw.w.
func (jw *JSONLWriter) closeMemberLocked() {
	last := jw.idx.restarts[len(jw.idx.restarts)-1]
	if jw.lineCount.n == last.uncomp {
		return // nothing written since the member opened
	}
	if err := jw.gz.Close(); err != nil {
		if jw.err == nil {
			jw.err = err
		}
		return
	}
	jw.gz.Reset(jw.fileCount)
	jw.idx.restarts = append(jw.idx.restarts, restart{comp: jw.fileCount.n, uncomp: jw.lineCount.n})
}

// noteRecordLocked applies the batching policy after a run record was
// appended: flush when the batch is full (or batching is off), else arm
// the deadline timer that bounds how long the record may stay invisible
// to a tail. Callers hold mu.
func (jw *JSONLWriter) noteRecordLocked() {
	jw.pending++
	if jw.flushEvery <= 0 || jw.pending >= flushBatch {
		jw.flushLocked()
		return
	}
	if !jw.timerArmed {
		jw.timerArmed = true
		if jw.timer == nil {
			jw.timer = time.AfterFunc(jw.flushEvery, jw.timedFlush)
		} else {
			jw.timer.Reset(jw.flushEvery)
		}
	}
}

// timedFlush is the deadline flush: whatever accumulated since the
// timer was armed becomes visible now, keeping the tail's liveness
// contract at batch granularity.
func (jw *JSONLWriter) timedFlush() {
	jw.mu.Lock()
	defer jw.mu.Unlock()
	jw.timerArmed = false
	if jw.closed || jw.pending == 0 {
		return
	}
	jw.flushLocked()
}

// WriteManifest emits the header line. Call it exactly once, first.
func (jw *JSONLWriter) WriteManifest(m Manifest) error {
	jw.mu.Lock()
	defer jw.mu.Unlock()
	jw.man, jw.haveMan = m, true
	if err := jw.writeLine(m); err != nil {
		return err
	}
	jw.flushLocked()
	return jw.err
}

// OnRun is the campaign streaming hook: it renders r as a RunRecord and
// appends it. Write errors are sticky and surface via Err/Close — the
// campaign callback has nowhere to return them.
func (jw *JSONLWriter) OnRun(index int, r *core.RunResult) {
	rec := RunRecord{
		Type:        recordRun,
		Index:       index,
		Seed:        fmt.Sprintf("%#x", r.Seed),
		Outcome:     r.Outcome().String(),
		Injections:  len(r.Injections),
		DetectionNS: int64(r.DetectionLatency),
		HorizonNS:   int64(r.Horizon),
		CellLines:   r.CellLines,
		TraceHash:   fmt.Sprintf("%#x", r.TraceHash),
		Evidence:    r.Verdict.Evidence,
		Root:        r.RootTranscript,
		Cell:        r.CellTranscript,
	}
	jw.mu.Lock()
	defer jw.mu.Unlock()
	start := jw.lineCount.n
	if jw.writeLine(rec) == nil {
		jw.runs++
		metRecords.Inc()
		jw.idx.entries = append(jw.idx.entries, IndexEntry{
			Index:       index,
			Offset:      start,
			Length:      int(jw.lineCount.n - start),
			Outcome:     rec.Outcome,
			Injections:  rec.Injections,
			TraceHash:   r.TraceHash,
			DetectionNS: rec.DetectionNS,
		})
		jw.noteRecordLocked()
	}
}

// summaryFor renders a campaign aggregate as the summary footer record.
// Shared by the streaming writer and the canonical re-serialisation
// (WriteCanonical), so a rebuilt footer is byte-identical to a written
// one.
func summaryFor(res *core.CampaignResult) Summary {
	dist := make(map[string]int, len(core.AllOutcomes()))
	for _, o := range core.AllOutcomes() {
		dist[o.String()] = res.Count(o)
	}
	return Summary{
		Type:         recordSummary,
		Runs:         res.Total(),
		Distribution: dist,
		Injections:   res.InjectionsTotal(),
		MeanDetectNS: int64(res.MeanDetectionLatency()),
	}
}

// WriteSummary emits the completion footer from the shard's aggregate
// and flushes immediately — the completion marker must not sit in a
// batch.
func (jw *JSONLWriter) WriteSummary(res *core.CampaignResult) error {
	s := summaryFor(res)
	jw.mu.Lock()
	defer jw.mu.Unlock()
	if jw.haveMan {
		stampStop(&s, jw.man, jw.runs)
	}
	if err := jw.writeLine(s); err != nil {
		return err
	}
	jw.idx.summary = true
	jw.flushLocked()
	return jw.err
}

// Err returns the first write error, if any.
func (jw *JSONLWriter) Err() error {
	jw.mu.Lock()
	defer jw.mu.Unlock()
	return jw.err
}

// Close flushes, appends the index footer and closes the file,
// returning the first error seen anywhere in the stream. The gzip
// layer, when present, is finalised between the buffer flush and the
// footer — only then does the artefact carry a valid trailer. A writer
// that hit an earlier error skips the footer: the artefact stays
// readable through the sequential fallback rather than carrying an
// index that may not match its bytes.
func (jw *JSONLWriter) Close() error {
	jw.mu.Lock()
	defer jw.mu.Unlock()
	if jw.closed {
		return jw.err // second Close: everything already finalised
	}
	jw.closed = true
	// Stop the deadline timer under the mutex: a flush scheduled just
	// before Close must not land after the buffers are finalised and the
	// gzip member ended. Stop can miss a timer that already fired and is
	// waiting on mu — the closed flag makes that late timedFlush a no-op.
	if jw.timer != nil {
		jw.timer.Stop()
		jw.timerArmed = false
	}
	jw.pending = 0
	if err := jw.w.Flush(); err != nil && jw.err == nil {
		jw.err = err
	}
	if jw.gz != nil {
		jw.closeMemberLocked()
	}
	if jw.err == nil {
		jw.writeFooterLocked()
	}
	jw.gz = nil
	if err := jw.file.Close(); err != nil && jw.err == nil {
		jw.err = err
	}
	return jw.err
}

// writeFooterLocked appends the index footer after the line stream:
// the footer block plus the fixed trailer that locates it (plain), or
// a footer gzip member plus the hand-crafted trailer member (gzip).
// Callers hold mu; all line data has been flushed through to the file.
func (jw *JSONLWriter) writeFooterLocked() {
	ix := &shardIndex{entries: jw.idx.entries, summary: jw.idx.summary}
	if jw.fileCount != nil {
		// Drop the restart point that would name the footer member
		// itself: only points inside the line stream are useful.
		for _, r := range jw.idx.restarts {
			if r.uncomp < jw.lineCount.n {
				ix.restarts = append(ix.restarts, r)
			}
		}
	}
	block := encodeFooter(ix)
	var err error
	if jw.fileCount != nil {
		footerOff := jw.fileCount.n
		jw.gz.Reset(jw.fileCount)
		if _, err = jw.gz.Write(block); err == nil {
			err = jw.gz.Close()
		}
		if err == nil {
			_, err = jw.file.Write(encodeGzipTrailer(footerOff, jw.fileCount.n-footerOff))
		}
	} else {
		footerOff := jw.lineCount.n
		if _, err = jw.file.Write(block); err == nil {
			_, err = jw.file.Write(encodePlainTrailer(footerOff, int64(len(block))))
		}
	}
	if err != nil && jw.err == nil {
		jw.err = err
	}
}
