package dist

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strings"
)

// GrepMatch is one run whose record matched a Grep pattern, plus the
// decoded evidence and transcript lines that matched — what an operator
// wants printed, without re-reading the record.
type GrepMatch struct {
	Index   int
	Outcome string
	// Lines are the record's decoded lines the pattern matched, each
	// prefixed with its source ("evidence:", "root:", "cell:"). Empty
	// when the match sits in metadata only (seed, outcome, hashes).
	Lines []string
}

// Grep scans the artefact for records matching re and returns them in
// run-index order. The pattern is applied to each record's raw JSONL
// bytes — the same bytes `grep` would see on the artefact line, where
// transcripts are embedded with JSON escaping (a newline is the two
// characters `\n`) — so patterns cannot span transcript lines and
// JSON-escaped characters must be written escaped. Matching records are
// then decoded once to extract the matching evidence/transcript lines.
//
// Cost follows the dossier's access path. Plain artefacts are read span
// by span through the offset table. Indexed gzip artefacts stream one
// restart member at a time through a fixed-size window — each member is
// decompressed exactly once and only regex-matching lines are
// JSON-decoded, so a campaign-scale archive greps in bounded memory
// instead of materialising every record the way the degraded path's
// raw cache does. Degraded gzip dossiers grep their raw cache.
func (d *Dossier) Grep(re *regexp.Regexp) ([]GrepMatch, error) {
	var out []GrepMatch
	visit := func(tok []byte) error {
		if !re.Match(tok) {
			return nil
		}
		var probe struct {
			Type string `json:"type"`
		}
		if json.Unmarshal(tok, &probe) != nil || probe.Type != recordRun {
			return nil // manifest, summary or footer bytes: not greppable runs
		}
		var rec RunRecord
		if err := json.Unmarshal(tok, &rec); err != nil {
			return fmt.Errorf("dist: %s: matched record does not decode: %w", d.path, err)
		}
		out = append(out, matchFromRecord(&rec, re))
		return nil
	}

	switch {
	case !d.gz:
		// Plain artefact, indexed or degraded: the offset table locates
		// every record; read each span positioned.
		for _, e := range d.entries {
			line, err := d.readPlainSpanLenient(e)
			if err != nil {
				return nil, fmt.Errorf("dist: %s run %d: %w", d.path, e.Index, err)
			}
			if err := visit(line); err != nil {
				return nil, err
			}
		}
	case d.indexed:
		// Indexed gzip: the footer's restart table marks each member's
		// compressed start, and Multistream(false) stops the reader at
		// the member boundary, so the line layer holds one member
		// window in memory at a time.
		for _, rs := range d.footerRestarts {
			zr, err := gzip.NewReader(bufio.NewReaderSize(io.NewSectionReader(d, rs.comp, d.size-rs.comp), 64<<10))
			if err != nil {
				return nil, fmt.Errorf("dist: %s: restart member at %d: %w", d.path, rs.comp, err)
			}
			zr.Multistream(false)
			l := newLineReader(zr, true, d.path, 64<<10)
			var verr error
			for verr == nil && l.scan() {
				verr = visit(l.bytes())
			}
			zr.Close()
			if verr != nil {
				return nil, verr
			}
			if l.err != nil {
				return nil, fmt.Errorf("dist: %s: restart member at %d: %w", d.path, rs.comp, l.err)
			}
		}
	default:
		// Degraded gzip: the sequential decode already cached the lines.
		for _, e := range d.entries {
			if err := visit(d.raw[e.Index]); err != nil {
				return nil, err
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out, nil
}

// matchFromRecord extracts the decoded lines of rec that re matches.
func matchFromRecord(rec *RunRecord, re *regexp.Regexp) GrepMatch {
	m := GrepMatch{Index: rec.Index, Outcome: rec.Outcome}
	add := func(source, text string) {
		for _, line := range strings.Split(text, "\n") {
			if line != "" && re.MatchString(line) {
				m.Lines = append(m.Lines, source+" "+line)
			}
		}
	}
	for _, e := range rec.Evidence {
		add("evidence:", e)
	}
	add("root:", rec.Root)
	add("cell:", rec.Cell)
	return m
}

// Grep scans every shard of the campaign and returns the matching runs
// in run-index order. Each shard greps through its own access path.
func (cd *CampaignDossier) Grep(re *regexp.Regexp) ([]GrepMatch, error) {
	var out []GrepMatch
	for _, d := range cd.shards {
		ms, err := d.Grep(re)
		if err != nil {
			return nil, err
		}
		for _, m := range ms {
			if m.Index < cd.runs {
				out = append(out, m)
			}
		}
	}
	// Shards are window-ordered and each shard's matches are index-
	// ordered, so the concatenation already is — but don't rely on it.
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out, nil
}
