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
	"os"
	"sort"
	"strconv"

	"github.com/dessertlab/certify/internal/analytics"
	"github.com/dessertlab/certify/internal/core"
	"github.com/dessertlab/certify/internal/sim"
)

// maxLineBytes bounds one JSONL line. Full-mode records embed whole
// serial transcripts, which reach megabytes on minute-long runs.
const maxLineBytes = 64 << 20

// ErrTorn marks an artefact cut off before it could identify itself — a
// crash remnant, not a foreign campaign's file. Every complete artefact
// starts with an intact manifest line, so a file whose compressed
// stream or first line is truncated cannot be anyone's finished
// evidence; ExecuteShard overwrites such remnants instead of refusing.
var ErrTorn = errors.New("dist: artefact truncated before its manifest")

// ErrCampaignMismatch marks every campaign-identity refusal: an artefact
// or spec that names a different plan hash, seed, window, mode or fault
// model than the campaign being assembled. Callers (the certify CLI's
// exit-code policy, the serve daemon's error classes) branch on
// errors.Is(err, ErrCampaignMismatch) to distinguish "you pointed two
// campaigns at each other" from plain I/O failure.
var ErrCampaignMismatch = errors.New("campaign identity mismatch")

// openShardReader returns a line reader over r, decompressing
// transparently when the content (magic bytes, not just the suffix) is
// gzip. The returned bool reports whether the stream is compressed —
// readers use it to classify decode errors as torn crash remnants.
func openShardReader(r io.Reader, path string) (io.Reader, bool, error) {
	br := bufio.NewReaderSize(r, 64<<10)
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

// errCorruptLine reports a line that is neither JSON nor the index
// footer and is not the artefact's last: no killed writer leaves one
// behind (a crash cuts the stream, it does not garble its middle), so
// the bytes were damaged after they were written.
var errCorruptLine = errors.New("corrupt line inside the artefact")

// corruptLine reports whether the non-JSON token sc just scanned is
// damage rather than the end of the line data: it is not the index
// footer, and another token follows it. It consumes that token.
func corruptLine(sc *bufio.Scanner) bool {
	if bytes.HasPrefix(sc.Bytes(), []byte(footerMagic)) {
		return false
	}
	return sc.Scan()
}

// ShardFile is one parsed shard artefact: its manifest, completion
// state, and the aggregate rebuilt from its run records.
type ShardFile struct {
	Path     string
	Manifest Manifest
	// Complete is true when the file carries a summary footer whose
	// counts match the folded run records — the shard finished cleanly.
	Complete bool
	// HasSummary is true when a summary footer line was parsed at all
	// (it may still disagree with the records; see Complete).
	HasSummary bool
	// Records is the number of run records present.
	Records int
	// Result is the shard's aggregate, rebuilt record by record (not
	// trusted from the footer; the footer only confirms it).
	Result *core.CampaignResult
	// TraceHashes maps global run index → trace hash, the per-run
	// reproducibility fingerprints the invariance checks compare.
	TraceHashes map[int]uint64
	// Samples maps global run index → the per-run aggregate sample, kept
	// only for adaptive shards (manifest Stop != nil): the merge replays
	// the stop policy over the globally index-ordered outcome sequence,
	// which the order-free Result aggregate cannot provide.
	Samples map[int]Sample
}

// Sample is one run's contribution to the campaign aggregate, keyed by
// global index so the merge can refold runs in seed-chain order.
type Sample struct {
	Outcome     core.Outcome
	Injections  int
	DetectionNS int64
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

// ReadShard parses the shard artefact file at path; see ReadShardAt.
func ReadShard(path string) (*ShardFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return ReadShardAt(f, st.Size(), path)
}

// ReadShardAt parses one shard artefact held in the first size bytes
// of ra: manifest first line, run records folded into a
// CampaignResult, optional summary footer. It validates record indices
// against the manifest's window and rejects duplicates; a missing or
// inconsistent footer yields Complete=false rather than an error,
// because that is the normal state of a crashed shard awaiting rerun.
// The verdict depends on the bytes alone; path only names the artefact
// in errors (and, for a file too short to carry gzip magic, its .gz
// suffix marks it torn).
func ReadShardAt(ra io.ReaderAt, size int64, path string) (*ShardFile, error) {
	r, compressed, err := openShardReader(io.NewSectionReader(ra, 0, size), path)
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxLineBytes)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			if compressed && tornGzip(err) {
				return nil, fmt.Errorf("dist: %s: %v: %w", path, err, ErrTorn)
			}
			return nil, fmt.Errorf("dist: %s: %w", path, err)
		}
		if compressed {
			return nil, fmt.Errorf("dist: %s holds no manifest line: %w", path, ErrTorn)
		}
		return nil, fmt.Errorf("dist: %s is empty (no manifest line)", path)
	}
	var m Manifest
	if err := json.Unmarshal(sc.Bytes(), &m); err != nil || m.Type != recordManifest {
		// A plain file whose only content is one unterminated line is a
		// write cut off mid-manifest — the same crash-remnant shape as a
		// torn gzip header, so classify it the same way. (Every complete
		// artefact's lines are newline-terminated; the scanner hands back
		// a final unterminated token verbatim, so "token == whole file"
		// detects the missing newline.)
		if !compressed && int64(len(sc.Bytes())) == size {
			return nil, fmt.Errorf("dist: %s cut off inside its first line: %w", path, ErrTorn)
		}
		return nil, fmt.Errorf("dist: %s does not start with a manifest line", path)
	}
	if err := validateManifest(path, m); err != nil {
		return nil, err
	}

	sf := &ShardFile{
		Path:        path,
		Manifest:    m,
		Result:      &core.CampaignResult{Plan: m.Plan},
		TraceHashes: make(map[int]uint64, m.End-m.Start),
	}
	if m.Stop != nil {
		sf.Samples = make(map[int]Sample, m.End-m.Start)
	}
	var summary *Summary
	seen := make(map[int]bool, m.End-m.Start)
	line := 1
	for sc.Scan() {
		line++
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			// Either the index footer (its magic can never parse as JSON —
			// the indexed-artefact format appends it after the summary so
			// sequential readers stop exactly here) or a torn trailing
			// line from a killed process. In both cases everything before
			// this point counts and nothing after it is line data.
			if corruptLine(sc) {
				return nil, fmt.Errorf("dist: %s line %d: %w", path, line, errCorruptLine)
			}
			break
		}
		switch probe.Type {
		case recordRun:
			var rec RunRecord
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				return nil, fmt.Errorf("dist: %s line %d: %w", path, line, err)
			}
			if rec.Index < m.Start || rec.Index >= m.End {
				return nil, fmt.Errorf("dist: %s line %d: run index %d outside shard window [%d,%d)",
					path, line, rec.Index, m.Start, m.End)
			}
			if seen[rec.Index] {
				return nil, fmt.Errorf("dist: %s line %d: duplicate run index %d", path, line, rec.Index)
			}
			seen[rec.Index] = true
			o, err := parseOutcome(rec.Outcome)
			if err != nil {
				return nil, fmt.Errorf("dist: %s line %d: %w", path, line, err)
			}
			hash, err := parseHex(rec.TraceHash)
			if err != nil {
				return nil, fmt.Errorf("dist: %s line %d: bad trace hash %q", path, line, rec.TraceHash)
			}
			sf.Result.AddSample(o, rec.Injections, sim.Time(rec.DetectionNS))
			sf.TraceHashes[rec.Index] = hash
			if sf.Samples != nil {
				sf.Samples[rec.Index] = Sample{Outcome: o, Injections: rec.Injections, DetectionNS: rec.DetectionNS}
			}
			sf.Records++
		case recordSummary:
			var s Summary
			if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
				return nil, fmt.Errorf("dist: %s line %d: %w", path, line, err)
			}
			summary = &s
		default:
			return nil, fmt.Errorf("dist: %s line %d: unknown record type %q", path, line, probe.Type)
		}
	}
	if err := sc.Err(); err != nil {
		if !(compressed && tornGzip(err)) {
			return nil, fmt.Errorf("dist: %s: %w", path, err)
		}
		// A killed writer truncates the gzip stream mid-block; the lines
		// decoded before the cut are intact evidence and the shard simply
		// parses as incomplete, same as a torn trailing line in plain text.
	}

	sf.HasSummary = summary != nil
	if m.Stop != nil {
		// Adaptive shard: the summary footer is still the completion
		// marker, but the record count may legitimately stop short of the
		// window — the stop policy certified a shorter prefix. Any
		// non-empty prefix whose footer stamp agrees with the records is
		// a finished shard; whether it stopped at the RIGHT index is the
		// merge replay's check, which has the global outcome sequence
		// this single file does not.
		sf.Complete = summary != nil && summaryConfirms(summary, sf) &&
			sf.Records > 0 && sf.Records <= m.End-m.Start
		if sf.Complete {
			sf.Result.Stop = &core.StopDecision{DecidedAt: summary.DecidedAt, Fired: summary.StopFired}
		}
	} else {
		sf.Complete = summary != nil && summaryConfirms(summary, sf) &&
			sf.Records == m.End-m.Start
	}
	return sf, nil
}

// summaryConfirms cross-checks the footer against the folded records,
// including the adaptive stop stamp: a footer claiming a decision index
// other than the one its own record count implies (stampStop) is
// inconsistent.
func summaryConfirms(s *Summary, sf *ShardFile) bool {
	if s.Runs != sf.Result.Total() || s.Injections != sf.Result.InjectionsTotal() {
		return false
	}
	for _, o := range core.AllOutcomes() {
		if s.Distribution[o.String()] != sf.Result.Count(o) {
			return false
		}
	}
	var want Summary
	stampStop(&want, sf.Manifest, sf.Records)
	return s.DecidedAt == want.DecidedAt && s.StopFired == want.StopFired
}

// Merge reads every shard artefact, verifies the set is one complete,
// consistent campaign — same plan hash, master seed, total runs, shard
// count and mode; all K shards present exactly once; windows covering
// [0, Runs) without gap or overlap; every shard complete — and folds
// the shard aggregates into one CampaignResult. The per-shard parses
// are returned alongside for reporting.
func Merge(paths []string) (*core.CampaignResult, []*ShardFile, error) {
	if len(paths) == 0 {
		return nil, nil, fmt.Errorf("dist: no shard files to merge")
	}
	shards := make([]*ShardFile, 0, len(paths))
	for _, p := range paths {
		sf, err := ReadShard(p)
		if err != nil {
			return nil, nil, err
		}
		shards = append(shards, sf)
	}

	ref := shards[0].Manifest
	byIndex := make(map[int]*ShardFile, len(shards))
	for _, sf := range shards {
		if !sf.Manifest.sameCampaign(ref) {
			return nil, shards, fmt.Errorf(
				"dist: %s belongs to a different campaign than %s (%s): %w",
				sf.Path, shards[0].Path, sf.Manifest.campaignDiff(ref), ErrCampaignMismatch)
		}
		if dup := byIndex[sf.Manifest.Shard]; dup != nil {
			return nil, shards, fmt.Errorf("dist: shard %d appears twice (%s and %s): %w",
				sf.Manifest.Shard, dup.Path, sf.Path, ErrCampaignMismatch)
		}
		byIndex[sf.Manifest.Shard] = sf
		if !sf.Complete {
			state := "missing"
			if sf.HasSummary {
				state = "present but inconsistent with the records"
			}
			return nil, shards, fmt.Errorf(
				"dist: %s is incomplete (%d of %d records, summary %s) — rerun shard %d before merging",
				sf.Path, sf.Records, sf.Manifest.End-sf.Manifest.Start,
				state, sf.Manifest.Shard)
		}
	}
	if len(shards) != ref.Shards {
		missing := make([]int, 0, ref.Shards)
		for i := 0; i < ref.Shards; i++ {
			if byIndex[i] == nil {
				missing = append(missing, i)
			}
		}
		return nil, shards, fmt.Errorf("dist: campaign declares %d shards, got %d files (missing shard indices %v)",
			ref.Shards, len(shards), missing)
	}

	// Windows must tile [0, Runs) exactly.
	sort.Slice(shards, func(i, j int) bool { return shards[i].Manifest.Start < shards[j].Manifest.Start })
	next := 0
	for _, sf := range shards {
		if sf.Manifest.Start != next {
			return nil, shards, fmt.Errorf("dist: shard windows do not tile the campaign: expected start %d, %s covers [%d,%d)",
				next, sf.Path, sf.Manifest.Start, sf.Manifest.End)
		}
		next = sf.Manifest.End
	}
	if next != ref.Runs {
		return nil, shards, fmt.Errorf("dist: shard windows end at %d, campaign has %d runs", next, ref.Runs)
	}

	if ref.Stop != nil {
		return mergeAdaptive(ref, shards)
	}

	merged := &core.CampaignResult{Plan: ref.Plan}
	for _, sf := range shards {
		merged.MergeFrom(sf.Result)
	}
	return merged, shards, nil
}

// mergeAdaptive assembles an adaptive campaign: it replays the stop
// policy over the shards' samples in strict global-index order — the
// exact observation sequence the live campaign's ordered commit fed it
// — and folds only the certified prefix [0, K) into the merged result.
// Purity of the policy guarantees the replay lands on the same K the
// live decision did; the replay also audits the artefacts, refusing a
// shard that stopped anywhere other than the replayed decision index.
// shards are sorted by window start and verified to tile [0, ref.Runs).
func mergeAdaptive(ref Manifest, shards []*ShardFile) (*core.CampaignResult, []*ShardFile, error) {
	merged := &core.CampaignResult{Plan: ref.Plan}
	si := 0
	decided, fired, err := replayStop(ref, func(i int) (core.Outcome, error) {
		for shards[si].Manifest.End <= i {
			si++
		}
		sf := shards[si]
		s, ok := sf.Samples[i]
		if !ok {
			return 0, errStopGap(sf.Path, i, ref)
		}
		merged.AddSample(s.Outcome, s.Injections, sim.Time(s.DetectionNS))
		return s.Outcome, nil
	})
	if err != nil {
		return nil, shards, err
	}
	for _, sf := range shards {
		if err := checkShardStop(sf.Path, sf.Manifest, sf.Records, decided, fired); err != nil {
			return nil, shards, err
		}
	}
	merged.Stop = &core.StopDecision{DecidedAt: decided, Fired: fired}
	return merged, shards, nil
}

// replayStop feeds run outcomes to a fresh instance of the campaign's
// stop policy in strict global-index order and returns the certified
// prefix length K, and whether the policy fired before the max-N guard.
// outcome(i) supplies run i; it is called for i = 0, 1, ... K-1 only.
func replayStop(ref Manifest, outcome func(i int) (core.Outcome, error)) (decided int, fired bool, err error) {
	policy, err := analytics.NewStopPolicy(ref.Stop)
	if err != nil {
		return 0, false, err
	}
	policy.Reset()
	for i := 0; i < ref.Runs; i++ {
		o, err := outcome(i)
		if err != nil {
			return 0, false, err
		}
		if policy.Observe(i, o) {
			return i + 1, true, nil
		}
	}
	return ref.Runs, false, nil
}

// errStopGap refuses an adaptive shard set that lacks run i although
// the replayed stop policy still needs it.
func errStopGap(path string, i int, ref Manifest) error {
	return fmt.Errorf(
		"dist: %s holds no record for run %d, but the stop policy (%s) has not fired by then — shard stopped early or artefact tampered: %w",
		path, i, ref.Stop.Identity(), ErrCampaignMismatch)
}

// checkShardStop audits one adaptive shard against the replayed
// decision: a shard that recorded fewer runs than its window claims the
// policy stopped it, which is only consistent if it stopped exactly at
// the decision index.
func checkShardStop(path string, m Manifest, records, decided int, fired bool) error {
	if records == m.End-m.Start || (fired && m.Start+records == decided) {
		return nil
	}
	return fmt.Errorf(
		"dist: %s stopped after %d of %d runs but the stop policy (%s) decides at index %d: %w",
		path, records, m.End-m.Start, m.Stop.Identity(), decided, ErrCampaignMismatch)
}
