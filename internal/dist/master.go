package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"github.com/dessertlab/certify/internal/core"
)

// MasterIndexFileName is the campaign-level index document a merge (or
// the fan-out supervisor) writes next to the shard artefacts.
const MasterIndexFileName = "master-index.json"

// MasterShard is one shard artefact's row in the master index: where
// the dossier lives, which window it covers, and its aggregate shape.
// The per-run offset table stays in the shard's own footer — the
// master index references footers instead of duplicating them, so it
// stays kilobytes at millions of runs.
type MasterShard struct {
	// Path of the shard artefact, relative to the master index file's
	// directory when written by WriteMasterIndexFile.
	Path    string `json:"path"`
	Shard   int    `json:"shard"`
	Start   int    `json:"start"`
	End     int    `json:"end"`
	Records int    `json:"records"`
	// Indexed reports whether the shard carried a verified footer when
	// the master index was built (false = its reads fall back to scans).
	Indexed    bool           `json:"indexed"`
	Outcomes   map[string]int `json:"outcomes"`
	Injections int            `json:"injections"`
}

// MasterIndex is the campaign-level composition of the shard footers:
// the campaign identity (the same fields every shard manifest agrees
// on), the per-shard dossier table, and campaign-wide outcome counts.
// It is JSON, human-inspectable, and the entry point `certify inspect`
// uses to open a whole campaign as one random-access dossier.
type MasterIndex struct {
	Schema     int    `json:"schema"`
	Plan       string `json:"plan"`
	PlanHash   string `json:"plan_hash"`
	MasterSeed string `json:"master_seed"`
	Runs       int    `json:"runs"`
	// CertifiedRuns is an adaptive campaign's certified prefix K, the
	// merge's decision index; Outcomes, Injections and every shard row
	// count runs [0, K) only. Absent for fixed-N campaigns.
	CertifiedRuns int            `json:"certified_runs,omitempty"`
	ShardCount    int            `json:"shard_count"`
	Mode          string         `json:"mode"`
	Outcomes      map[string]int `json:"outcomes"`
	Injections    int            `json:"injections"`
	Shards        []MasterShard  `json:"shards"`
}

// CampaignDossier serves random access over a whole campaign: the
// shard dossiers opened together, queries routed by run index. It
// accepts exactly the shard sets Merge accepts — one campaign, all
// shards present and complete, windows tiling [0, Runs). For an
// adaptive campaign it serves the certified prefix [0, K) Merge
// certifies: records a shard wrote past the decision index are not
// campaign evidence, so routing and counts never reach them.
type CampaignDossier struct {
	shards []*Dossier // sorted by window start
	runs   int        // Runs, or the certified prefix K when adaptive
}

// OpenCampaignDossier opens every shard artefact and verifies the set
// forms one complete campaign — the check Merge applies
// (checkCampaignSet).
func OpenCampaignDossier(paths []string) (*CampaignDossier, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("dist: no shard artefacts to open")
	}
	cd := &CampaignDossier{}
	ok := false
	defer func() {
		if !ok {
			cd.Close()
		}
	}()
	for _, p := range paths {
		d, err := OpenDossier(p)
		if err != nil {
			return nil, err
		}
		cd.shards = append(cd.shards, d)
	}
	runs, _, err := checkCampaignSet(cd.shards)
	if err != nil {
		return nil, err
	}
	cd.runs = runs
	ok = true
	return cd, nil
}

func (d *Dossier) artefact() (string, Manifest, int) { return d.path, d.man, len(d.entries) }

func (d *Dossier) finished() (bool, bool) { return d.Complete(), d.summary != nil }

// outcome reads run i's outcome from the index. Once Complete holds,
// every row has passed the record scanner's outcome check.
func (d *Dossier) outcome(i int) (core.Outcome, bool) {
	e, ok := d.Entry(i)
	if !ok {
		return 0, false
	}
	o, err := parseOutcome(e.Outcome)
	return o, err == nil
}

// certified returns the shard's index rows inside the campaign's
// certified prefix (all of them for a fixed-N campaign).
func (cd *CampaignDossier) certified(d *Dossier) []IndexEntry {
	n := sort.Search(len(d.entries), func(i int) bool { return d.entries[i].Index >= cd.runs })
	return d.entries[:n]
}

// OpenCampaignFromMaster opens the campaign a master index file
// describes, resolving relative shard paths against the file's
// directory. The index is advisory — shard identity, completeness and
// tiling are re-verified from the artefacts themselves.
func OpenCampaignFromMaster(masterPath string) (*CampaignDossier, error) {
	mi, err := ReadMasterIndex(masterPath)
	if err != nil {
		return nil, err
	}
	dir := filepath.Dir(masterPath)
	paths := make([]string, 0, len(mi.Shards))
	for _, s := range mi.Shards {
		p := s.Path
		if !filepath.IsAbs(p) {
			p = filepath.Join(dir, p)
		}
		paths = append(paths, p)
	}
	return OpenCampaignDossier(paths)
}

// Close releases every shard dossier.
func (cd *CampaignDossier) Close() error {
	var first error
	for _, d := range cd.shards {
		if err := d.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// NumRuns returns the campaign's run count: Runs, or the certified
// prefix K of an adaptive campaign.
func (cd *CampaignDossier) NumRuns() int { return cd.runs }

// Window returns the campaign's run-index window [0, NumRuns()).
func (cd *CampaignDossier) Window() (start, end int) { return 0, cd.runs }

// Shards returns the shard dossiers in window order (read-only).
func (cd *CampaignDossier) Shards() []*Dossier { return cd.shards }

// route returns the shard dossier whose window holds run k.
func (cd *CampaignDossier) route(k int) (*Dossier, error) {
	i := sort.Search(len(cd.shards), func(i int) bool { return cd.shards[i].man.End > k })
	if k < 0 || k >= cd.runs || i >= len(cd.shards) {
		return nil, fmt.Errorf("dist: run %d outside campaign [0,%d)", k, cd.runs)
	}
	return cd.shards[i], nil
}

// Run returns run k's decoded record, wherever its shard put it.
func (cd *CampaignDossier) Run(k int) (*RunRecord, error) {
	d, err := cd.route(k)
	if err != nil {
		return nil, err
	}
	return d.Run(k)
}

// RawRun returns run k's record line bytes.
func (cd *CampaignDossier) RawRun(k int) ([]byte, error) {
	d, err := cd.route(k)
	if err != nil {
		return nil, err
	}
	return d.RawRun(k)
}

// Entry returns run k's index row.
func (cd *CampaignDossier) Entry(k int) (IndexEntry, bool) {
	d, err := cd.route(k)
	if err != nil {
		return IndexEntry{}, false
	}
	return d.Entry(k)
}

// Entries returns the campaign-wide offset table in run-index order.
// Offsets are relative to each entry's own shard artefact.
func (cd *CampaignDossier) Entries() []IndexEntry {
	out := make([]IndexEntry, 0, cd.runs)
	for _, d := range cd.shards {
		out = append(out, cd.certified(d)...)
	}
	return out
}

// RunRange returns the decoded records with indices in [from, to).
func (cd *CampaignDossier) RunRange(from, to int) ([]*RunRecord, error) {
	to = min(to, cd.runs)
	var out []*RunRecord
	for _, d := range cd.shards {
		recs, err := d.Runs(from, to)
		if err != nil {
			return nil, err
		}
		out = append(out, recs...)
	}
	return out, nil
}

// ByOutcome returns the campaign's records with the given outcome, in
// run-index order.
func (cd *CampaignDossier) ByOutcome(outcome string) ([]*RunRecord, error) {
	var out []*RunRecord
	for _, d := range cd.shards {
		for _, e := range cd.certified(d) {
			if e.Outcome != outcome {
				continue
			}
			rec, err := d.Run(e.Index)
			if err != nil {
				return nil, err
			}
			out = append(out, rec)
		}
	}
	return out, nil
}

// OutcomeCounts tallies the campaign per outcome name.
func (cd *CampaignDossier) OutcomeCounts() map[string]int {
	out := make(map[string]int, 8)
	for _, d := range cd.shards {
		tallyOutcomes(out, cd.certified(d))
	}
	return out
}

// InjectionsTotal sums performed injections across the campaign.
func (cd *CampaignDossier) InjectionsTotal() int {
	n := 0
	for _, d := range cd.shards {
		n += sumInjections(cd.certified(d))
	}
	return n
}

// MasterIndex composes the open shard dossiers' footers into the
// campaign-level index document.
func (cd *CampaignDossier) MasterIndex() *MasterIndex {
	ref := cd.shards[0].man
	mi := &MasterIndex{
		Schema:     SchemaVersion,
		Plan:       ref.Plan,
		PlanHash:   ref.PlanHash,
		MasterSeed: ref.MasterSeed,
		Runs:       ref.Runs,
		ShardCount: ref.Shards,
		Mode:       ref.Mode,
		Outcomes:   cd.OutcomeCounts(),
		Injections: cd.InjectionsTotal(),
	}
	if ref.Stop != nil {
		mi.CertifiedRuns = cd.runs
	}
	for _, d := range cd.shards {
		entries := cd.certified(d)
		mi.Shards = append(mi.Shards, MasterShard{
			Path:       d.path,
			Shard:      d.man.Shard,
			Start:      d.man.Start,
			End:        d.man.End,
			Records:    len(entries),
			Indexed:    d.Indexed(),
			Outcomes:   tallyOutcomes(make(map[string]int, 8), entries),
			Injections: sumInjections(entries),
		})
	}
	return mi
}

// BuildMasterIndex opens the shard artefacts, verifies they form one
// complete campaign, and composes their footers into a MasterIndex.
func BuildMasterIndex(paths []string) (*MasterIndex, error) {
	cd, err := OpenCampaignDossier(paths)
	if err != nil {
		return nil, err
	}
	defer cd.Close()
	return cd.MasterIndex(), nil
}

// WriteMasterIndexFile builds the master index over the shard
// artefacts and writes it (atomically) to path, with shard paths made
// relative to path's directory when possible so the campaign directory
// stays relocatable.
func WriteMasterIndexFile(path string, artefacts []string) (*MasterIndex, error) {
	mi, err := BuildMasterIndex(artefacts)
	if err != nil {
		return nil, err
	}
	dir := filepath.Dir(path)
	for i := range mi.Shards {
		if rel, err := filepath.Rel(dir, mi.Shards[i].Path); err == nil && !filepath.IsAbs(rel) {
			mi.Shards[i].Path = rel
		}
	}
	data, err := encodeMasterIndex(mi)
	if err != nil {
		return nil, err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return nil, err
	}
	if err := os.Rename(tmp, path); err != nil {
		return nil, err
	}
	return mi, nil
}

// ErrMalformedMasterIndex marks a master index document that does not
// decode into a campaign description: bad JSON, a newer schema, or no
// runs or shards.
var ErrMalformedMasterIndex = errors.New("malformed master index")

// encodeMasterIndex renders the master index document as written to
// disk.
func encodeMasterIndex(mi *MasterIndex) ([]byte, error) {
	data, err := json.MarshalIndent(mi, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// ReadMasterIndex loads a master index document.
func ReadMasterIndex(path string) (*MasterIndex, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	mi, err := decodeMasterIndex(data)
	if err != nil {
		return nil, fmt.Errorf("dist: %s: %w", path, err)
	}
	return mi, nil
}

// decodeMasterIndex parses a master index document. Every refusal wraps
// ErrMalformedMasterIndex.
func decodeMasterIndex(data []byte) (*MasterIndex, error) {
	var mi MasterIndex
	if err := json.Unmarshal(data, &mi); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrMalformedMasterIndex, err)
	}
	if mi.Schema > SchemaVersion {
		return nil, fmt.Errorf("%w: schema %d, this build reads up to %d", ErrMalformedMasterIndex, mi.Schema, SchemaVersion)
	}
	if mi.Runs <= 0 || len(mi.Shards) == 0 {
		return nil, fmt.Errorf("%w: describes no campaign", ErrMalformedMasterIndex)
	}
	return &mi, nil
}
