package dist

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"

	"github.com/dessertlab/certify/internal/analytics"
	"github.com/dessertlab/certify/internal/core"
	"github.com/dessertlab/certify/internal/sim"
)

// ErrCampaignMismatch marks every campaign-identity refusal: an artefact
// or spec that names a different plan hash, seed, window, mode or fault
// model than the campaign being assembled. Callers (the certify CLI's
// exit-code policy, the serve daemon's error classes) branch on
// errors.Is(err, ErrCampaignMismatch) to distinguish "you pointed two
// campaigns at each other" from plain I/O failure.
var ErrCampaignMismatch = errors.New("campaign identity mismatch")

// ShardFile is one parsed shard artefact: its manifest, completion
// state, and the aggregate rebuilt from its run records.
type ShardFile struct {
	Path     string
	Manifest Manifest
	// Complete is the completion predicate every reader shares
	// (shardComplete): a summary footer that confirms the folded run
	// records, which fill the window — the shard finished cleanly.
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
// of ra through the record scanner (scanRecords): manifest first line,
// run records folded into a CampaignResult, optional summary footer.
// It validates record indices against the manifest's window and
// rejects duplicates; a missing or
// inconsistent footer yields Complete=false rather than an error,
// because that is the normal state of a crashed shard awaiting rerun.
// The verdict depends on the bytes alone; path only names the artefact
// in errors (and, for a file too short to carry gzip magic, its .gz
// suffix marks it torn).
func ReadShardAt(ra io.ReaderAt, size int64, path string) (*ShardFile, error) {
	l, m, err := openArtefact(ra, size, path, 64<<10)
	if err != nil {
		return nil, err
	}
	sf := &ShardFile{
		Path:        path,
		Manifest:    m,
		Result:      &core.CampaignResult{Plan: m.Plan},
		TraceHashes: make(map[int]uint64, runCapacity(m, size)),
	}
	if m.Stop != nil {
		sf.Samples = make(map[int]Sample, runCapacity(m, size))
	}
	summary, err := scanRecords(l, m, func(e IndexEntry, o core.Outcome, _ []byte) {
		sf.Result.AddSample(o, e.Injections, sim.Time(e.DetectionNS))
		sf.TraceHashes[e.Index] = e.TraceHash
		if sf.Samples != nil {
			sf.Samples[e.Index] = Sample{Outcome: o, Injections: e.Injections, DetectionNS: e.DetectionNS}
		}
		sf.Records++
	})
	if err != nil {
		return nil, err
	}
	sf.HasSummary = summary != nil
	sf.Complete = shardComplete(m, summary, sf.Result)
	if sf.Complete && m.Stop != nil {
		sf.Result.Stop = &core.StopDecision{DecidedAt: summary.DecidedAt, Fired: summary.StopFired}
	}
	return sf, nil
}

// Merge reads every shard artefact, verifies the set is one complete,
// consistent campaign (checkCampaignSet) and folds the shard
// aggregates into one CampaignResult. The per-shard parses are
// returned alongside, sorted by window start, for reporting.
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
	decided, fired, err := checkCampaignSet(shards)
	if err != nil {
		return nil, shards, err
	}
	merged := &core.CampaignResult{Plan: ref.Plan}
	if ref.Stop == nil {
		for _, sf := range shards {
			merged.MergeFrom(sf.Result)
		}
		return merged, shards, nil
	}
	// Adaptive: fold only the certified prefix [0, K), in global index
	// order — the exact observation sequence the live campaign's ordered
	// commit fed the policy. Records past K are not campaign evidence.
	for _, sf := range shards {
		for i := sf.Manifest.Start; i < min(sf.Manifest.End, decided); i++ {
			s := sf.Samples[i]
			merged.AddSample(s.Outcome, s.Injections, sim.Time(s.DetectionNS))
		}
	}
	merged.Stop = &core.StopDecision{DecidedAt: decided, Fired: fired}
	return merged, shards, nil
}

// campaignMember is what the campaign-set check reads of one shard
// artefact: a ReadShard parse (Merge) or a dossier (OpenCampaignDossier).
type campaignMember interface {
	artefact() (path string, m Manifest, records int)
	finished() (complete, hasSummary bool)
	outcome(i int) (core.Outcome, bool) // false: no record of run i
}

func (sf *ShardFile) artefact() (string, Manifest, int) { return sf.Path, sf.Manifest, sf.Records }

func (sf *ShardFile) finished() (bool, bool) { return sf.Complete, sf.HasSummary }

func (sf *ShardFile) outcome(i int) (core.Outcome, bool) {
	s, ok := sf.Samples[i]
	return s.Outcome, ok
}

// checkCampaignSet is the one check that shard artefacts form one
// complete, consistent campaign, shared by Merge and
// OpenCampaignDossier: same plan hash, master seed, total runs, shard
// count and mode; all K shards present exactly once; every shard
// complete; windows covering [0, Runs) without gap or overlap. It sorts
// shards by window start. Under a stop policy it replays the policy over
// the shards' outcomes in strict global-index order and audits where
// each shard stopped. It returns the certified prefix length (Runs for
// a fixed-N campaign) and whether the policy fired.
func checkCampaignSet[S campaignMember](shards []S) (decided int, fired bool, err error) {
	refPath, ref, _ := shards[0].artefact()
	byIndex := make(map[int]string, len(shards))
	for _, sh := range shards {
		path, m, _ := sh.artefact()
		if !m.sameCampaign(ref) {
			return 0, false, fmt.Errorf("dist: %s belongs to a different campaign than %s (%s): %w",
				path, refPath, m.campaignDiff(ref), ErrCampaignMismatch)
		}
		if dup, ok := byIndex[m.Shard]; ok {
			return 0, false, fmt.Errorf("dist: shard %d appears twice (%s and %s): %w",
				m.Shard, dup, path, ErrCampaignMismatch)
		}
		byIndex[m.Shard] = path
		if complete, hasSummary := sh.finished(); !complete {
			_, _, records := sh.artefact()
			state := "missing"
			if hasSummary {
				state = "present but inconsistent with the records"
			}
			return 0, false, fmt.Errorf("dist: %s is incomplete (%d of %d records, summary %s) — rerun shard %d first",
				path, records, m.End-m.Start, state, m.Shard)
		}
	}
	if len(shards) != ref.Shards {
		missing := make([]int, 0, ref.Shards)
		for i := 0; i < ref.Shards; i++ {
			if _, ok := byIndex[i]; !ok {
				missing = append(missing, i)
			}
		}
		return 0, false, fmt.Errorf("dist: campaign declares %d shards, got %d files (missing shard indices %v)",
			ref.Shards, len(shards), missing)
	}

	window := func(sh S) Manifest { _, m, _ := sh.artefact(); return m }
	sort.Slice(shards, func(i, j int) bool { return window(shards[i]).Start < window(shards[j]).Start })
	next := 0
	for _, sh := range shards {
		path, m, _ := sh.artefact()
		if m.Start != next {
			return 0, false, fmt.Errorf("dist: shard windows do not tile the campaign: expected start %d, %s covers [%d,%d)",
				next, path, m.Start, m.End)
		}
		next = m.End
	}
	if next != ref.Runs {
		return 0, false, fmt.Errorf("dist: shard windows end at %d, campaign has %d runs", next, ref.Runs)
	}
	if ref.Stop == nil {
		return ref.Runs, false, nil
	}

	// Purity of the policy guarantees the replay lands on the same K the
	// live decision did; a shard that stopped anywhere else is refused.
	si := 0
	decided, fired, err = replayStop(ref, func(i int) (core.Outcome, error) {
		for window(shards[si]).End <= i {
			si++
		}
		o, ok := shards[si].outcome(i)
		if !ok {
			path, _, _ := shards[si].artefact()
			return 0, errStopGap(path, i, ref)
		}
		return o, nil
	})
	if err != nil {
		return 0, false, err
	}
	for _, sh := range shards {
		path, m, records := sh.artefact()
		if err := checkShardStop(path, m, records, decided, fired); err != nil {
			return 0, false, err
		}
	}
	return decided, fired, nil
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
