package dist

import (
	"bufio"
	"bytes"
	"compress/flate"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"

	"github.com/dessertlab/certify/internal/core"
	"github.com/dessertlab/certify/internal/sim"
)

// The one reader of artefact line data: a line layer (openArtefact,
// lineReader) and a record layer (scanRecords) on top of it, plus the
// completion predicate (shardComplete). DESIGN.md, "One reader".

// maxLineBytes bounds one JSONL line. Full-mode records embed whole
// serial transcripts, which reach megabytes on minute-long runs.
const maxLineBytes = 64 << 20

// ErrTorn marks an artefact cut off before it could identify itself — a
// crash remnant, not a foreign campaign's file. Every complete artefact
// starts with an intact manifest line, so a file whose compressed
// stream or first line is truncated cannot be anyone's finished
// evidence; ExecuteShard overwrites such remnants instead of refusing.
var ErrTorn = errors.New("dist: artefact truncated before its manifest")

// errCorruptLine reports a line that is neither JSON nor the index
// footer and is not the artefact's last: no killed writer leaves one
// behind (a crash cuts the stream, it does not garble its middle), so
// the bytes were damaged after they were written.
var errCorruptLine = errors.New("corrupt line inside the artefact")

// openShardReader returns a line reader over r, decompressing
// transparently when the content (magic bytes, not just the suffix) is
// gzip. The returned bool reports whether the stream is compressed —
// readers use it to classify decode errors as torn crash remnants. The
// sniffing buffer stays small: a line scanner reading a plain stream
// bypasses it once drained, and a dossier's open reads only the
// manifest line.
func openShardReader(r io.Reader, path string) (io.Reader, bool, error) {
	br := bufio.NewReaderSize(r, 4<<10)
	magic, err := br.Peek(2)
	if err != nil {
		// Shorter than the gzip magic: nothing identifiable in there.
		if IsGzipPath(path) {
			return nil, false, fmt.Errorf("dist: %s: %w", path, ErrTorn)
		}
		return br, false, nil
	}
	if magic[0] != 0x1f || magic[1] != 0x8b {
		return br, false, nil
	}
	zr, err := gzip.NewReader(br)
	if err != nil {
		return nil, false, fmt.Errorf("dist: %s: bad gzip header (%v): %w", path, err, ErrTorn)
	}
	return zr, true, nil
}

// tornGzip reports whether a read error on a compressed stream is the
// signature of a truncated (killed-writer) file rather than bad media:
// everything decoded before the cut still counts, exactly like a torn
// trailing line in a plain artefact.
func tornGzip(err error) bool {
	var corrupt flate.CorruptInputError
	return errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) ||
		errors.Is(err, gzip.ErrChecksum) || errors.As(err, &corrupt)
}

// Why a lineReader's line data ended.
const (
	stopEOF    = iota // the stream ended
	stopFooter        // the index footer block begins
	stopTorn          // a killed writer's tail: a non-JSON last line, or a truncated gzip stream
)

// lineReader is the line layer: it yields the lines of a plain or
// decompressed stream, numbered from 1, with each line's offset in the
// uncompressed stream.
type lineReader struct {
	path       string
	size       int64 // the artefact's size in bytes, compressed or not (0: unknown)
	sc         *bufio.Scanner
	compressed bool
	num        int   // the current line's number
	off, next  int64 // the current line's offset, and the next line's
	stop       int   // why the line data ended, once scan returned false
	err        error // the read error that ended the stream, if any
}

func newLineReader(r io.Reader, compressed bool, path string, bufSize int) *lineReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, bufSize), maxLineBytes)
	return &lineReader{path: path, sc: sc, compressed: compressed}
}

// scan advances to the next line. When there is none it returns false,
// keeping the read error that ended the stream; a truncated gzip stream
// stops as torn.
func (l *lineReader) scan() bool {
	if l.sc.Scan() {
		l.num++
		l.off = l.next
		l.next += int64(len(l.sc.Bytes())) + 1
		return true
	}
	l.err = l.sc.Err()
	if l.err != nil && l.compressed && tornGzip(l.err) {
		l.stop = stopTorn
	}
	return false
}

// bytes returns the current line, valid until the next scan.
func (l *lineReader) bytes() []byte { return l.sc.Bytes() }

// notJSON applies the rule for a current line that does not decode as
// JSON: the index footer ends the line data, and so does a torn last
// line; anything else with another line after it is damage. The line
// data ends either way; the caller reads no further.
func (l *lineReader) notJSON() error {
	if bytes.HasPrefix(l.bytes(), []byte(footerMagic)) {
		l.stop = stopFooter
		return nil
	}
	num := l.num
	if l.scan() {
		return fmt.Errorf("dist: %s line %d: %w", l.path, num, errCorruptLine)
	}
	l.stop = stopTorn
	return nil
}

// failure returns the read error that ended the stream, unless a killed
// writer explains it: the lines decoded before a gzip cut still count.
func (l *lineReader) failure() error {
	if l.err == nil || (l.compressed && tornGzip(l.err)) {
		return nil
	}
	return fmt.Errorf("dist: %s: %w", l.path, l.err)
}

// errorf refuses the artefact at the current line.
func (l *lineReader) errorf(format string, args ...any) error {
	return fmt.Errorf("dist: %s line %d: "+format, append([]any{l.path, l.num}, args...)...)
}

// openArtefact opens the line layer over the first size bytes of ra —
// gzip recognised by its magic bytes — and decodes the manifest line.
// An artefact cut off before it could name its campaign (a truncated
// gzip header or stream, or a plain file that is one unterminated line)
// is refused with ErrTorn; one that does not start with a valid
// manifest is refused as foreign. bufSize is the initial line buffer:
// small for callers that read only the manifest.
func openArtefact(ra io.ReaderAt, size int64, path string, bufSize int) (*lineReader, Manifest, error) {
	r, compressed, err := openShardReader(io.NewSectionReader(ra, 0, size), path)
	if err != nil {
		return nil, Manifest{}, err
	}
	l := newLineReader(r, compressed, path, bufSize)
	l.size = size
	if !l.scan() {
		switch {
		case l.stop == stopTorn:
			return nil, Manifest{}, fmt.Errorf("dist: %s: %v: %w", path, l.err, ErrTorn)
		case l.err != nil:
			return nil, Manifest{}, l.failure()
		case compressed:
			return nil, Manifest{}, fmt.Errorf("dist: %s holds no manifest line: %w", path, ErrTorn)
		}
		return nil, Manifest{}, fmt.Errorf("dist: %s is empty (no manifest line)", path)
	}
	var m Manifest
	if err := json.Unmarshal(l.bytes(), &m); err != nil || m.Type != recordManifest {
		// Every complete artefact's lines are newline-terminated and the
		// scanner hands back a final unterminated token verbatim, so a
		// token that is the whole plain file is a write cut off
		// mid-manifest: the torn-gzip-header shape in plain text.
		if !compressed && int64(len(l.bytes())) == size {
			return nil, Manifest{}, fmt.Errorf("dist: %s cut off inside its first line: %w", path, ErrTorn)
		}
		return nil, Manifest{}, fmt.Errorf("dist: %s does not start with a manifest line", path)
	}
	if err := validateManifest(path, m); err != nil {
		return nil, Manifest{}, err
	}
	return l, m, nil
}

// validateManifest applies the manifest sanity checks every reader
// shares.
func validateManifest(path string, m Manifest) error {
	if m.Schema > SchemaVersion {
		return fmt.Errorf("dist: %s uses schema %d, this build reads up to %d", path, m.Schema, SchemaVersion)
	}
	if m.Runs <= 0 || m.Shards <= 0 || m.Shard < 0 || m.Shard >= m.Shards {
		return fmt.Errorf("dist: %s manifest declares shard %d of %d over %d runs — inconsistent", path, m.Shard, m.Shards, m.Runs)
	}
	if m.Start < 0 || m.End < m.Start || m.End > m.Runs {
		return fmt.Errorf("dist: %s manifest window [%d,%d) is invalid for %d runs", path, m.Start, m.End, m.Runs)
	}
	return nil
}

// scanRecords is the record layer: it decodes the lines after l's
// manifest line with the checks every reader applies — run index inside
// m's window and not seen before, a known outcome name, a hex trace
// hash, a summary that decodes, no unknown record type — and calls run
// with each run record's index row, outcome and line (the line is valid
// only during the call). It returns the summary, nil when the line data
// holds none. A torn tail or the index footer ends the line data
// without error (l.stop says which).
func scanRecords(l *lineReader, m Manifest, run func(e IndexEntry, o core.Outcome, line []byte)) (*Summary, error) {
	var summary *Summary
	seen := make(map[int]bool, runCapacity(m, l.size))
	for l.scan() {
		line := l.bytes()
		// Nearly every line is a run record, so it is decoded as one
		// first. Only a line that is not a well-formed run record takes
		// the type probe, which gives every other line its verdict.
		var rec RunRecord
		if runErr := json.Unmarshal(line, &rec); runErr != nil || rec.Type != recordRun {
			var probe struct {
				Type string `json:"type"`
			}
			if err := json.Unmarshal(line, &probe); err != nil {
				if err := l.notJSON(); err != nil {
					return nil, err
				}
				break
			}
			switch probe.Type {
			case recordRun:
				return nil, l.errorf("%w", runErr)
			case recordSummary:
				var s Summary
				if err := json.Unmarshal(line, &s); err != nil {
					return nil, l.errorf("%w", err)
				}
				summary = &s
				continue
			default:
				return nil, l.errorf("unknown record type %q", probe.Type)
			}
		}
		if rec.Index < m.Start || rec.Index >= m.End {
			return nil, l.errorf("run index %d outside shard window [%d,%d)", rec.Index, m.Start, m.End)
		}
		if seen[rec.Index] {
			return nil, l.errorf("duplicate run index %d", rec.Index)
		}
		seen[rec.Index] = true
		o, err := parseOutcome(rec.Outcome)
		if err != nil {
			return nil, l.errorf("%w", err)
		}
		hash, err := parseHex(rec.TraceHash)
		if err != nil {
			return nil, l.errorf("bad trace hash %q", rec.TraceHash)
		}
		run(IndexEntry{
			Index:       rec.Index,
			Offset:      l.off,
			Length:      len(line) + 1,
			Outcome:     rec.Outcome,
			Injections:  rec.Injections,
			TraceHash:   hash,
			DetectionNS: rec.DetectionNS,
		}, o, line)
	}
	return summary, l.failure()
}

// runCapacity is how many run records to presize per-run tables for:
// the manifest's window, but no more than size bytes of artefact can
// hold — a run line that passes the record checks takes at least 48
// bytes (the shortest takes 52) — so a small file declaring a huge
// window costs no more than its bytes. A gzip stream can hold more than
// its size suggests; tables presized from it grow as records arrive.
func runCapacity(m Manifest, size int64) int {
	return int(min(int64(m.End-m.Start), size/48))
}

// parseOutcome maps a taxonomy name back to the classifier's outcome.
func parseOutcome(s string) (core.Outcome, error) {
	for _, o := range core.AllOutcomes() {
		if o.String() == s {
			return o, nil
		}
	}
	return 0, fmt.Errorf("dist: unknown outcome %q", s)
}

func parseHex(s string) (uint64, error) {
	return strconv.ParseUint(s, 0, 64)
}

// foldEntries rebuilds the aggregate of the runs an offset table lists.
func foldEntries(m Manifest, entries []IndexEntry) (*core.CampaignResult, error) {
	res := &core.CampaignResult{Plan: m.Plan}
	for _, e := range entries {
		o, err := parseOutcome(e.Outcome)
		if err != nil {
			return nil, fmt.Errorf("dist: run %d: %w", e.Index, err)
		}
		res.AddSample(o, e.Injections, sim.Time(e.DetectionNS))
	}
	return res, nil
}

// shardComplete is the completion predicate every reader applies. The
// artefact carries a summary that confirms res, the aggregate folded
// from its records, and the records fill the window. Under a stop
// policy any non-empty prefix of the window may be a finished shard:
// the policy certified a shorter prefix, and whether it stopped at the
// right index is the campaign-set check's replay, which sees the global
// outcome sequence one file does not.
func shardComplete(m Manifest, s *Summary, res *core.CampaignResult) bool {
	if s == nil || !summaryConfirms(s, m, res) {
		return false
	}
	n := res.Total()
	if m.Stop != nil {
		return n > 0 && n <= m.End-m.Start
	}
	return n == m.End-m.Start
}

// summaryConfirms cross-checks the summary against the folded records,
// including the adaptive stop stamp: a summary claiming a decision
// index other than the one its own record count implies (stampStop) is
// inconsistent.
func summaryConfirms(s *Summary, m Manifest, res *core.CampaignResult) bool {
	if s.Runs != res.Total() || s.Injections != res.InjectionsTotal() {
		return false
	}
	for _, o := range core.AllOutcomes() {
		if s.Distribution[o.String()] != res.Count(o) {
			return false
		}
	}
	var want Summary
	stampStop(&want, m, res.Total())
	return s.DecidedAt == want.DecidedAt && s.StopFired == want.StopFired
}
