package dist

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// writeJSONLine appends v as one newline-terminated JSON line, the
// exact bytes JSONLWriter.writeLine would emit.
func writeJSONLine(w io.Writer, v any) error {
	return json.NewEncoder(w).Encode(v)
}

// WriteCanonical renders a complete shard artefact as its canonical
// byte stream: the manifest line, every run record in ascending global
// run-index order, then the summary footer — no index footer. Campaigns
// commit runs in index order, but artefacts from older builds were
// written in completion order (workers raced), so two executions of the
// same campaign may still sit on disk as permuted files; the canonical
// stream is the order-free quotient. Because every run's record content
// is deterministic (seed chain → trace → classification → fixed JSON
// field order) and the summary is rebuilt from the records with
// sorted-key map encoding, two artefacts of the same campaign always
// canonicalise to identical bytes — the byte-identity contract the
// campaign server's result cache is audited against.
func WriteCanonical(w io.Writer, d *Dossier) error {
	if !d.Complete() {
		return fmt.Errorf("dist: %s is incomplete — canonical form is defined only for finished shards", d.Path())
	}
	bw := bufio.NewWriter(w)
	if err := writeJSONLine(bw, d.Manifest()); err != nil {
		return err
	}
	res, err := foldEntries(d.Manifest(), d.Entries())
	if err != nil {
		return err
	}
	for _, e := range d.Entries() {
		line, err := d.RawRun(e.Index)
		if err != nil {
			return err
		}
		if _, err := bw.Write(line); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	s := summaryFor(res)
	stampStop(&s, d.Manifest(), len(d.Entries()))
	if err := writeJSONLine(bw, s); err != nil {
		return err
	}
	return bw.Flush()
}
