package dist

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"

	"github.com/dessertlab/certify/internal/core"
)

// Dossier is the random-access view of one shard artefact: run K's
// record, outcome queries and range reads without a sequential scan.
// The fast path reads the index footer CreateJSONL appends (O(1) seeks
// to locate it, one bounded read per record after that); artefacts
// written before the index existed, or whose footer is missing, torn
// or fails verification, degrade transparently to one sequential
// decode whose results are cached — same answers, archive-scan cost.
//
// A Dossier is not goroutine-safe: it keeps per-handle read state (the
// fallback cache, the read counter). Open one per goroutine.
type Dossier struct {
	path string
	r    io.ReaderAt
	// f is the file OpenDossier opened: Close releases it and the
	// live-tail rescan stats it. Nil for OpenDossierAt readers.
	f    *os.File
	size int64
	gz   bool
	man  Manifest

	// entries is the offset table sorted by run index — footer-decoded
	// on the indexed path, rebuilt by the sequential scan on fallback.
	entries []IndexEntry
	// footerRestarts is the gzip restart table (indexed path only).
	footerRestarts []restart
	// indexed is true while record reads go through footer offsets.
	indexed bool
	// checked is set once Complete has compared the footer with the
	// line data (checkFooter).
	checked bool
	// footerSummary is the footer's summary flag (indexed path only).
	footerSummary bool
	// summary is the summary line a sequential decode read: the
	// fallback's scan, or checkFooter's on the indexed path.
	summary *Summary
	// err is why the last sequential decode refused the artefact; a
	// dossier holding one serves no record.
	err error
	// raw caches record lines (without trailing newline) by run index
	// once a *gzip* dossier has degraded to the sequential path — gzip
	// cannot be re-read at an offset without the restart table. Plain
	// fallbacks stay lean: the scan only records each line's span and
	// record reads are positioned re-reads, so counts-only queries on
	// an archive-scale pre-index artefact never hold its records in
	// memory.
	raw map[int][]byte

	reads int64 // ReadAt calls served, for access-cost assertions
}

// OpenDossier opens the artefact file at path for random access; see
// OpenDossierAt. A file-backed dossier also follows a shard that is
// still being written: a record read past the scanned end re-stats the
// file and rescans it once it has grown.
func OpenDossier(path string) (*Dossier, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	d, err := OpenDossierAt(f, st.Size(), path)
	if err != nil {
		f.Close()
		return nil, err
	}
	d.f = f
	return d, nil
}

// OpenDossierAt opens the artefact held in the first size bytes of r
// for random access. The artefact must carry a readable manifest line
// (anything else is not a shard artefact and errors, exactly as
// ReadShardAt would); everything about the index footer is
// best-effort — Indexed reports which path serves. path only names the
// artefact in errors.
func OpenDossierAt(r io.ReaderAt, size int64, path string) (*Dossier, error) {
	d := &Dossier{path: path, r: r, size: size}
	l, m, err := openArtefact(d, size, path, 4<<10)
	if err != nil {
		return nil, err
	}
	d.gz, d.man = l.compressed, m
	if ix, err := d.loadFooter(); err == nil {
		if verr := d.adoptIndex(ix); verr == nil {
			metDossierIndexedOpens.Inc()
			return d, nil
		}
	}
	if err := d.degrade(); err != nil {
		return nil, err
	}
	metDossierFallbackScans.Inc()
	return d, nil
}

// ReadAt serves every file access of the dossier, counting calls so
// tests can assert the indexed path's O(1) cost. Implements io.ReaderAt.
func (d *Dossier) ReadAt(p []byte, off int64) (int, error) {
	d.reads++
	return d.r.ReadAt(p, off)
}

// Reads returns how many file reads the dossier has performed.
func (d *Dossier) Reads() int64 { return d.reads }

// Close releases the file OpenDossier opened; it is a no-op for a
// dossier over a caller's reader.
func (d *Dossier) Close() error {
	if d.f == nil {
		return nil
	}
	return d.f.Close()
}

// Path returns the artefact path the dossier serves.
func (d *Dossier) Path() string { return d.path }

// Manifest returns the artefact's identity header.
func (d *Dossier) Manifest() Manifest { return d.man }

// Indexed reports whether record reads use the index footer (true) or
// the cached sequential decode (false).
func (d *Dossier) Indexed() bool { return d.indexed }

// Complete reports whether the artefact is a finished shard by the
// completion predicate ReadShard applies (shardComplete): a summary
// line that confirms the records, which fill the window (or, under a
// stop policy, a non-empty prefix of it). On an indexed dossier the
// first call reads the line data once to check it against the footer,
// so a dossier reports complete only over lines ReadShard accepts.
func (d *Dossier) Complete() bool {
	if d.indexed && !d.checked {
		d.checkFooter()
	}
	res, err := foldEntries(d.man, d.entries)
	return err == nil && shardComplete(d.man, d.summary, res)
}

// NumRuns returns how many run records the dossier holds.
func (d *Dossier) NumRuns() int { return len(d.entries) }

// Window returns the artefact's global run-index window [start, end).
func (d *Dossier) Window() (start, end int) { return d.man.Start, d.man.End }

// Entries returns the offset table sorted by run index. The slice is
// the dossier's own — treat it as read-only.
func (d *Dossier) Entries() []IndexEntry { return d.entries }

// OutcomeCounts tallies records per outcome name straight from the
// index — no record decoding.
func (d *Dossier) OutcomeCounts() map[string]int {
	return tallyOutcomes(make(map[string]int, 8), d.entries)
}

// InjectionsTotal sums performed injections across the indexed runs.
func (d *Dossier) InjectionsTotal() int { return sumInjections(d.entries) }

// tallyOutcomes adds entries' per-outcome counts into out.
func tallyOutcomes(out map[string]int, entries []IndexEntry) map[string]int {
	for _, e := range entries {
		out[e.Outcome]++
	}
	return out
}

// sumInjections sums entries' performed injections.
func sumInjections(entries []IndexEntry) int {
	n := 0
	for _, e := range entries {
		n += e.Injections
	}
	return n
}

// Entry returns run k's index row.
func (d *Dossier) Entry(k int) (IndexEntry, bool) {
	i := sort.Search(len(d.entries), func(i int) bool { return d.entries[i].Index >= k })
	if i < len(d.entries) && d.entries[i].Index == k {
		return d.entries[i], true
	}
	return IndexEntry{}, false
}

// RawRun returns run k's record line exactly as written (without the
// trailing newline) — the byte-identity the differential equivalence
// suite compares against the sequential decode. An indexed read whose
// bytes do not decode to run k degrades to the sequential path and
// retries there instead of misattributing a record.
func (d *Dossier) RawRun(k int) ([]byte, error) {
	if d.err != nil {
		return nil, d.err
	}
	e, ok := d.Entry(k)
	if !ok && !d.indexed {
		// A degraded dossier may be reading a shard that is still being
		// written (the serve live-tail path): records appended after the
		// sequential scan cached its entries are invisible until the
		// cache is invalidated. A size change is the growth signal.
		if err := d.refreshScan(); err != nil {
			return nil, fmt.Errorf("dist: %s: rescan after growth: %w", d.path, err)
		}
		e, ok = d.Entry(k)
	}
	if !ok {
		return nil, fmt.Errorf("dist: %s holds no record for run %d", d.path, k)
	}
	if !d.indexed {
		if d.gz {
			return d.raw[k], nil
		}
		// Plain fallback: re-read the span the sequential scan recorded.
		line, err := d.readPlainSpanLenient(e)
		if err != nil {
			return nil, fmt.Errorf("dist: %s run %d: %w", d.path, k, err)
		}
		if !verifyRunLine(line, k) {
			return nil, fmt.Errorf("dist: %s changed underneath the dossier: run %d's bytes no longer decode", d.path, k)
		}
		return line, nil
	}
	line, err := d.readSpan(e)
	if err == nil && verifyRunLine(line, k) {
		metDossierIndexedReads.Inc()
		return line, nil
	}
	if err == nil {
		err = fmt.Errorf("the indexed span does not hold run %d's record", k)
	}
	// The footer lied (bad offset, mid-write corruption): abandon it.
	metDossierFallbackScans.Inc()
	if derr := d.degrade(); derr != nil {
		return nil, fmt.Errorf("dist: %s: indexed read of run %d failed (%v) and sequential fallback too: %w", d.path, k, err, derr)
	}
	return d.RawRun(k)
}

// verifyRunLine checks that a line read through the index really is
// run k's record before anyone trusts it.
func verifyRunLine(line []byte, k int) bool {
	var probe struct {
		Type  string `json:"type"`
		Index int    `json:"index"`
	}
	return json.Unmarshal(line, &probe) == nil &&
		probe.Type == recordRun && probe.Index == k
}

// Run returns run k's decoded record.
func (d *Dossier) Run(k int) (*RunRecord, error) {
	line, err := d.RawRun(k)
	if err != nil {
		return nil, err
	}
	var rec RunRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		return nil, fmt.Errorf("dist: %s run %d: %w", d.path, k, err)
	}
	return &rec, nil
}

// Runs returns the decoded records with global indices in [from, to),
// in index order. Indices outside the dossier's holdings are skipped —
// a range read over a half-window artefact returns what is there.
func (d *Dossier) Runs(from, to int) ([]*RunRecord, error) {
	var out []*RunRecord
	for _, e := range d.entries {
		if e.Index < from || e.Index >= to {
			continue
		}
		rec, err := d.Run(e.Index)
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	return out, nil
}

// ByOutcome returns the decoded records classified with the given
// outcome name, in index order.
func (d *Dossier) ByOutcome(outcome string) ([]*RunRecord, error) {
	var out []*RunRecord
	for _, e := range d.entries {
		if e.Outcome != outcome {
			continue
		}
		rec, err := d.Run(e.Index)
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	return out, nil
}

// readSpan reads the line at entry e through the index: one positioned
// read for plain artefacts (adoptIndex checked the span lies inside the
// line data); for gzip, a seek to the nearest restart offset at or
// before the line and a bounded decode from there. Cost is independent
// of the artefact's total size.
func (d *Dossier) readSpan(e IndexEntry) ([]byte, error) {
	if !d.gz {
		return d.readPlainSpanLenient(e)
	}
	if e.Length <= 0 || e.Length > maxLineBytes {
		return nil, fmt.Errorf("dist: index entry spans %d bytes", e.Length)
	}
	ix, err := d.restartFor(e.Offset)
	if err != nil {
		return nil, err
	}
	zr, err := gzip.NewReader(bufio.NewReaderSize(io.NewSectionReader(d, ix.comp, d.size-ix.comp), 32<<10))
	if err != nil {
		return nil, err
	}
	defer zr.Close()
	zr.Multistream(false) // the whole line lives inside this member
	if _, err := io.CopyN(io.Discard, zr, e.Offset-ix.uncomp); err != nil {
		return nil, err
	}
	buf := make([]byte, e.Length)
	if _, err := io.ReadFull(zr, buf); err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(buf, []byte("\n")), nil
}

// readPlainSpanLenient reads a plain-file span, tolerating a final
// record line that was never newline-terminated (a torn tail whose
// JSON still parsed, recorded by the fallback scan): the span may
// overshoot the file end by the phantom newline, so a short read at EOF
// is fine.
func (d *Dossier) readPlainSpanLenient(e IndexEntry) ([]byte, error) {
	if e.Length <= 0 || e.Length > maxLineBytes {
		return nil, fmt.Errorf("dist: index entry spans %d bytes", e.Length)
	}
	buf := make([]byte, e.Length)
	n, err := d.ReadAt(buf, e.Offset)
	if err != nil && err != io.EOF {
		return nil, err
	}
	return bytes.TrimSuffix(buf[:n], []byte("\n")), nil
}

// restartFor returns the latest gzip restart point at or before
// uncompressed offset off.
func (d *Dossier) restartFor(off int64) (restart, error) {
	rs := d.footerRestarts
	i := sort.Search(len(rs), func(i int) bool { return rs[i].uncomp > off })
	if i == 0 {
		return restart{}, fmt.Errorf("dist: no restart point covers offset %d", off)
	}
	return rs[i-1], nil
}

// loadFooter locates, reads and parses the index footer. Every failure
// is an error the caller answers with the sequential fallback.
func (d *Dossier) loadFooter() (*shardIndex, error) {
	if d.gz {
		return d.loadGzipFooter()
	}
	if d.size < plainTrailerSize+int64(len(footerMagic))+4 {
		return nil, fmt.Errorf("dist: %s is too small for a footer", d.path)
	}
	tail := make([]byte, plainTrailerSize)
	if _, err := io.ReadFull(io.NewSectionReader(d, d.size-plainTrailerSize, plainTrailerSize), tail); err != nil {
		return nil, err
	}
	footOff, footLen, ok := parsePlainTrailer(tail)
	if !ok {
		return nil, fmt.Errorf("dist: %s carries no index trailer", d.path)
	}
	if footOff+footLen+plainTrailerSize != d.size {
		return nil, fmt.Errorf("dist: %s trailer places the footer at [%d,+%d), file is %d bytes", d.path, footOff, footLen, d.size)
	}
	block := make([]byte, footLen)
	if _, err := io.ReadFull(io.NewSectionReader(d, footOff, footLen), block); err != nil {
		return nil, err
	}
	return parseFooter(block)
}

// maxFooterMemberBytes bounds the compressed footer member a reader
// will buffer — corrupt trailer fields must not allocate the file size.
const maxFooterMemberBytes = 1 << 30

func (d *Dossier) loadGzipFooter() (*shardIndex, error) {
	if d.size < gzipTrailerSize {
		return nil, fmt.Errorf("dist: %s is too small for a trailer member", d.path)
	}
	tail := make([]byte, gzipTrailerSize)
	if _, err := io.ReadFull(io.NewSectionReader(d, d.size-gzipTrailerSize, gzipTrailerSize), tail); err != nil {
		return nil, err
	}
	footOff, footLen, ok := parseGzipTrailer(tail)
	if !ok {
		return nil, fmt.Errorf("dist: %s carries no index trailer member", d.path)
	}
	if footLen > maxFooterMemberBytes || footOff+footLen+gzipTrailerSize != d.size {
		return nil, fmt.Errorf("dist: %s trailer places the footer member at [%d,+%d), file is %d bytes", d.path, footOff, footLen, d.size)
	}
	// One read for the whole member keeps the open's cost independent
	// of the run count.
	member := make([]byte, footLen)
	if _, err := io.ReadFull(io.NewSectionReader(d, footOff, footLen), member); err != nil {
		return nil, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(member))
	if err != nil {
		return nil, err
	}
	defer zr.Close()
	zr.Multistream(false)
	block, err := io.ReadAll(io.LimitReader(zr, maxFooterMemberBytes))
	if err != nil {
		return nil, err
	}
	return parseFooter(block)
}

// adoptIndex installs a parsed footer after validating it against the
// manifest: indices inside the window, unique (parseFooter enforces
// order), spans inside the file for plain artefacts, restart points
// present for gzip ones.
func (d *Dossier) adoptIndex(ix *shardIndex) error {
	dataEnd := d.size
	if !d.gz {
		// footer + trailer verified to end the file in loadFooter
		dataEnd = d.size - plainTrailerSize
	}
	for _, e := range ix.entries {
		if e.Index < d.man.Start || e.Index >= d.man.End {
			return fmt.Errorf("dist: footer entry %d outside window [%d,%d)", e.Index, d.man.Start, d.man.End)
		}
		if !d.gz && e.Offset+int64(e.Length) > dataEnd {
			return fmt.Errorf("dist: footer entry %d spans beyond the line stream", e.Index)
		}
	}
	if d.gz {
		if len(ix.restarts) == 0 || ix.restarts[0].comp != 0 || ix.restarts[0].uncomp != 0 {
			return fmt.Errorf("dist: gzip footer lacks a leading restart point")
		}
		for i := 1; i < len(ix.restarts); i++ {
			if ix.restarts[i].comp <= ix.restarts[i-1].comp || ix.restarts[i].uncomp <= ix.restarts[i-1].uncomp {
				return fmt.Errorf("dist: gzip footer restart points not increasing")
			}
			if ix.restarts[i].comp >= d.size {
				return fmt.Errorf("dist: gzip footer restart point beyond the file")
			}
		}
	}
	d.entries = ix.entries
	d.footerRestarts = ix.restarts
	d.footerSummary = ix.summary
	d.indexed = true
	return nil
}

// refreshScan re-checks a degraded dossier against its file: if the
// artefact grew since the sequential scan cached its entries (a shard
// still streaming), the stale cache is dropped and the scan runs again
// over the longer file. A stable size keeps the cache — the common case
// for archived artefacts, where the stat is the only cost.
func (d *Dossier) refreshScan() error {
	if d.f == nil {
		return nil // a caller's reader has a fixed size
	}
	st, err := d.f.Stat()
	if err != nil {
		return err
	}
	if st.Size() == d.size {
		return nil
	}
	d.size = st.Size()
	metDossierFallbackScans.Inc()
	return d.degrade()
}

// degrade abandons the indexed path and rebuilds the entry table from
// one tolerant sequential decode — the behaviour for pre-index
// artefacts, torn footers, and any indexed read or check that failed
// verification. Plain files keep only the spans (records are re-read
// positioned on demand); gzip files additionally cache the raw lines,
// since a gzip stream cannot be re-entered without restart points.
// Torn tails (crashed writers) are tolerated exactly as ReadShard
// tolerates them; a file ReadShard refuses errors here too, and the
// dossier then serves no record.
func (d *Dossier) degrade() error {
	d.indexed = false
	d.footerRestarts = nil
	d.entries, d.summary, d.raw, d.err = nil, nil, nil, nil
	s, err := d.scanLines(d.gz)
	if err != nil {
		d.err = err
		return err
	}
	d.entries, d.summary, d.raw = s.entries, s.summary, s.raw
	return nil
}

// lineScan is what one sequential decode of the line data yields.
type lineScan struct {
	entries []IndexEntry // sorted by run index
	summary *Summary
	raw     map[int][]byte // record lines by run index, when kept
	stop    int            // why the line data ended
}

// scanLines decodes the line data through the record scanner — the
// checks ReadShard applies — keeping every record line when keepRaw is
// set.
func (d *Dossier) scanLines(keepRaw bool) (lineScan, error) {
	var s lineScan
	if keepRaw {
		s.raw = make(map[int][]byte)
	}
	l, _, err := openArtefact(d, d.size, d.path, 64<<10)
	if err != nil {
		return lineScan{}, err
	}
	s.summary, err = scanRecords(l, d.man, func(e IndexEntry, _ core.Outcome, line []byte) {
		s.entries = append(s.entries, e)
		if keepRaw {
			s.raw[e.Index] = bytes.Clone(line)
		}
	})
	if err != nil {
		return lineScan{}, err
	}
	s.stop = l.stop
	sort.Slice(s.entries, func(i, j int) bool { return s.entries[i].Index < s.entries[j].Index })
	return s, nil
}

// checkFooter compares the adopted footer with the line data it
// indexes: the footer's CRC covers only the footer, so damaged record
// lines behind an intact footer show only here. The line data must end
// at the footer and hold exactly the rows and summary flag the footer
// records. On a mismatch the dossier degrades to what the lines hold
// (or to nothing, when ReadShard would refuse them). It runs once, for
// Complete.
func (d *Dossier) checkFooter() {
	d.checked = true
	s, err := d.scanLines(false)
	if err == nil && s.stop == stopFooter && (s.summary != nil) == d.footerSummary && slices.Equal(s.entries, d.entries) {
		d.summary = s.summary
		return
	}
	metDossierFallbackScans.Inc()
	d.degrade()
}
