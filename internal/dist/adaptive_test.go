package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"regexp"
	"sync"
	"testing"

	"github.com/dessertlab/certify/internal/core"
	"github.com/dessertlab/certify/internal/sim"
)

// adaptPlan shortens a paper plan for the differential suite and
// optionally swaps its fault model by registry name.
func adaptPlan(base func() *core.TestPlan, fault string) *core.TestPlan {
	p := *base()
	p.Duration = 8 * sim.Second
	p.Name = p.Name + "-adapt"
	p.FaultName = fault
	return &p
}

// canonicalBytes renders the artefact at path in canonical form.
func canonicalBytes(t *testing.T, path string) []byte {
	t.Helper()
	d, err := OpenDossier(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var buf bytes.Buffer
	if err := WriteCanonical(&buf, d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCertifiedPrefixDifferential is the tentpole's headline suite: for
// seeds × experiments × fault models, the adaptively-stopped artefact
// is byte-identical to a truncation of the full-N artefact — same
// record lines, same trace hashes, same index entries for every
// certified index, a manifest differing only by its stop identity
// block, and a canonical stream whose record section is the exact
// prefix of the full campaign's. A second adaptive execution
// canonicalises to the same bytes, so the stop decision itself is part
// of the deterministic replay.
func TestCertifiedPrefixDifferential(t *testing.T) {
	const n, widthBP = 18, 6000
	plans := []func() *core.TestPlan{core.PlanE1HVC, core.PlanE2Core1, core.PlanE3Fig3}
	fired := 0
	for _, base := range plans {
		for _, fault := range []string{"", "burst"} {
			for _, seed := range []uint64{2022, 7, 99} {
				plan := adaptPlan(base, fault)
				name := fmt.Sprintf("%s/%s/seed-%d", plan.Name, plan.EffectiveFaultName(), seed)
				t.Run(name, func(t *testing.T) {
					dir := t.TempDir()
					fullSpec := &Spec{Plan: plan, Runs: n, MasterSeed: seed, Shards: 1, Mode: core.ModeDistribution}
					fullPath := filepath.Join(dir, "full.jsonl")
					if _, _, err := ExecuteShard(context.Background(), fullSpec, 0, 0, fullPath); err != nil {
						t.Fatal(err)
					}
					adSpec := &Spec{Plan: plan, Runs: n, MasterSeed: seed, Shards: 1, Mode: core.ModeDistribution,
						Stop: &core.StopSpec{Policy: core.StopPolicyCIWidth, WidthBP: widthBP}}
					adPath := filepath.Join(dir, "adaptive.jsonl")
					res, _, err := ExecuteShard(context.Background(), adSpec, 0, 0, adPath)
					if err != nil {
						t.Fatal(err)
					}
					if res.Stop == nil {
						t.Fatal("adaptive execution returned no stop decision")
					}
					k := n
					if res.Stop.Fired {
						k = res.Stop.DecidedAt
						fired++
					}
					if res.Total() != k {
						t.Fatalf("adaptive aggregate holds %d runs, decision says %d", res.Total(), k)
					}

					dFull, err := OpenDossier(fullPath)
					if err != nil {
						t.Fatal(err)
					}
					defer dFull.Close()
					dAd, err := OpenDossier(adPath)
					if err != nil {
						t.Fatal(err)
					}
					defer dAd.Close()

					// Manifest: identical modulo the stop identity block.
					ma, mf := dAd.Manifest(), dFull.Manifest()
					if ma.Stop == nil || ma.Stop.Identity() != adSpec.Stop.Identity() {
						t.Fatalf("adaptive manifest stop block = %+v, want identity %s", ma.Stop, adSpec.Stop.Identity())
					}
					ma.Stop = nil
					if ma != mf {
						t.Fatalf("manifests differ beyond the stop block:\n  adaptive %+v\n  full     %+v", ma, mf)
					}

					// Every certified record and its index entry, byte for byte.
					if got := len(dAd.Entries()); got != k {
						t.Fatalf("adaptive artefact holds %d records, want the %d-run prefix", got, k)
					}
					for i := 0; i < k; i++ {
						// The stop block lengthens the manifest line, so raw
						// file offsets shift; everything else in the entry is
						// evidence identity and must match exactly.
						ea, ef := dAd.Entries()[i], dFull.Entries()[i]
						ea.Offset, ef.Offset = 0, 0
						if ea != ef {
							t.Fatalf("run %d: index entry %+v adaptive, %+v full", i, ea, ef)
						}
						ra, err := dAd.RawRun(i)
						if err != nil {
							t.Fatal(err)
						}
						rf, err := dFull.RawRun(i)
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(ra, rf) {
							t.Fatalf("run %d record differs:\n  adaptive %s\n  full     %s", i, ra, rf)
						}
					}

					// Canonical streams: the adaptive record section is the
					// exact byte prefix of the full campaign's.
					canAd := canonicalBytes(t, adPath)
					canFull := canonicalBytes(t, fullPath)
					adLines := bytes.SplitAfter(canAd, []byte("\n"))
					fullLines := bytes.SplitAfter(canFull, []byte("\n"))
					if len(adLines) < k+2 || len(fullLines) < n+2 {
						t.Fatalf("canonical shapes: adaptive %d lines, full %d lines", len(adLines), len(fullLines))
					}
					for i := 1; i <= k; i++ {
						if !bytes.Equal(adLines[i], fullLines[i]) {
							t.Fatalf("canonical record line %d differs", i)
						}
					}

					// Replay determinism: a fresh adaptive execution stops at
					// the same index and canonicalises to the same bytes.
					againPath := filepath.Join(dir, "adaptive-again.jsonl")
					res2, _, err := ExecuteShard(context.Background(), adSpec, 0, 0, againPath)
					if err != nil {
						t.Fatal(err)
					}
					if res2.Stop == nil || *res2.Stop != *res.Stop {
						t.Fatalf("replay stop decision %+v, first execution %+v", res2.Stop, res.Stop)
					}
					if !bytes.Equal(canonicalBytes(t, againPath), canAd) {
						t.Fatal("replayed adaptive artefact canonicalises to different bytes")
					}
				})
			}
		}
	}
	// The suite must actually exercise early stopping, not just the
	// max-N guard: the 60pp target is loose enough that most cells fire.
	if fired < len(plans)*2*3/2 {
		t.Fatalf("stop fired in only %d of %d cells — width target too strict for the suite", fired, len(plans)*2*3)
	}
}

// TestAdaptiveMergeShardInvariance: the certified prefix is shard-count
// independent. Only the shard owning index 0 observes the policy live;
// the merge replays the decision over the globally ordered union and
// truncates every other shard's surplus — landing on the same decided
// index, the same distribution and the same per-run hashes as the
// single-process adaptive campaign, for K ∈ {1, 3, 8}.
func TestAdaptiveMergeShardInvariance(t *testing.T) {
	const runs, seed = 18, uint64(2022)
	plan := shortE3()
	stop := &core.StopSpec{Policy: core.StopPolicyCIWidth, WidthBP: 6000}

	ref, _, err := ExecuteShard(context.Background(),
		&Spec{Plan: plan, Runs: runs, MasterSeed: seed, Shards: 1, Mode: core.ModeDistribution, Stop: stop},
		0, 0, filepath.Join(t.TempDir(), "ref.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if ref.Stop == nil || !ref.Stop.Fired || ref.Stop.DecidedAt >= runs {
		t.Fatalf("reference decision %+v — want an early stop to make the test meaningful", ref.Stop)
	}

	for _, k := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("shards-%d", k), func(t *testing.T) {
			spec := &Spec{Plan: plan, Runs: runs, MasterSeed: seed, Shards: k, Mode: core.ModeDistribution, Stop: stop}
			merged, _ := runSharded(t, spec, t.TempDir())
			if merged.Stop == nil || *merged.Stop != *ref.Stop {
				t.Fatalf("merged decision %+v, reference %+v", merged.Stop, ref.Stop)
			}
			if merged.Total() != ref.Total() {
				t.Fatalf("merged aggregate %d runs, reference %d", merged.Total(), ref.Total())
			}
			for _, o := range core.AllOutcomes() {
				if merged.Count(o) != ref.Count(o) {
					t.Fatalf("count(%v) = %d merged, %d reference", o, merged.Count(o), ref.Count(o))
				}
			}
		})
	}
}

// TestAdaptiveMasterIndexCoversCertifiedPrefix: shards other than the
// first run their whole window, so an adaptive campaign's artefacts
// hold records past the decision index. The master index and the
// campaign dossier must count and serve only the certified prefix the
// merge certifies, never the surplus on disk.
func TestAdaptiveMasterIndexCoversCertifiedPrefix(t *testing.T) {
	const runs, seed = 18, uint64(2022)
	stop := &core.StopSpec{Policy: core.StopPolicyCIWidth, WidthBP: 6000}
	spec := &Spec{Plan: shortE3(), Runs: runs, MasterSeed: seed, Shards: 3, Mode: core.ModeDistribution, Stop: stop}
	dir := t.TempDir()
	merged, shards := runSharded(t, spec, dir)
	k := merged.Stop.DecidedAt
	onDisk := 0
	paths := make([]string, len(shards))
	for i, sf := range shards {
		onDisk += sf.Records
		paths[i] = sf.Path
	}
	if !merged.Stop.Fired || onDisk <= k {
		t.Fatalf("decision %+v with %d records on disk — want surplus records past an early stop", merged.Stop, onDisk)
	}

	mi, err := WriteMasterIndexFile(filepath.Join(dir, MasterIndexFileName), paths)
	if err != nil {
		t.Fatal(err)
	}
	if mi.Runs != runs || mi.CertifiedRuns != k {
		t.Fatalf("master index runs %d, certified %d; want %d and %d", mi.Runs, mi.CertifiedRuns, runs, k)
	}
	records, injections, shardOutcomes := 0, 0, map[string]int{}
	for _, s := range mi.Shards {
		records += s.Records
		injections += s.Injections
		for o, n := range s.Outcomes {
			shardOutcomes[o] += n
		}
	}
	if records != k || injections != merged.InjectionsTotal() || mi.Injections != merged.InjectionsTotal() {
		t.Fatalf("master index: %d records, %d/%d injections; merge certifies %d runs, %d injections",
			records, injections, mi.Injections, k, merged.InjectionsTotal())
	}
	for _, o := range core.AllOutcomes() {
		if mi.Outcomes[o.String()] != merged.Count(o) || shardOutcomes[o.String()] != merged.Count(o) {
			t.Fatalf("outcome %v: master %d, shard rows %d, merge %d",
				o, mi.Outcomes[o.String()], shardOutcomes[o.String()], merged.Count(o))
		}
	}

	cd, err := OpenCampaignFromMaster(filepath.Join(dir, MasterIndexFileName))
	if err != nil {
		t.Fatal(err)
	}
	defer cd.Close()
	if cd.NumRuns() != k || len(cd.Entries()) != k {
		t.Fatalf("campaign dossier serves %d runs (%d entries), want %d", cd.NumRuns(), len(cd.Entries()), k)
	}
	if _, err := cd.Run(k - 1); err != nil {
		t.Fatalf("last certified run: %v", err)
	}
	if _, err := cd.Run(k); err == nil {
		t.Fatalf("run %d past the certified prefix was served", k)
	}
	all, err := cd.RunRange(0, runs)
	if err != nil || len(all) != k {
		t.Fatalf("RunRange(0,%d) = %d records (%v), want %d", runs, len(all), err, k)
	}
	byOutcome := 0
	for _, o := range core.AllOutcomes() {
		recs, err := cd.ByOutcome(o.String())
		if err != nil {
			t.Fatal(err)
		}
		byOutcome += len(recs)
	}
	matches, err := cd.Grep(regexp.MustCompile("."))
	if err != nil {
		t.Fatal(err)
	}
	if byOutcome != k || len(matches) != k {
		t.Fatalf("ByOutcome serves %d records, Grep %d; want %d", byOutcome, len(matches), k)
	}
}

// TestAdaptiveMergeRejectsTamperedStop: a shard artefact claiming the
// policy certified a different prefix than the replay derives is
// corrupt evidence, not a mergeable file.
func TestAdaptiveMergeRejectsTamperedStop(t *testing.T) {
	const runs, seed = 18, uint64(2022)
	plan := shortE3()
	stop := &core.StopSpec{Policy: core.StopPolicyCIWidth, WidthBP: 6000}
	spec := &Spec{Plan: plan, Runs: runs, MasterSeed: seed, Shards: 1, Mode: core.ModeDistribution, Stop: stop}

	honest, _, err := ExecuteShard(context.Background(), spec, 0, 0, filepath.Join(t.TempDir(), "honest.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if honest.Stop == nil || !honest.Stop.Fired || honest.Stop.DecidedAt < 2 {
		t.Fatalf("need an early stop past index 1 to truncate, got %+v", honest.Stop)
	}

	// Fabricate a self-consistent artefact that stops one run short of
	// the true decision: records, summary counts and the stop stamp all
	// agree with each other — only the policy replay can catch it.
	short := honest.Stop.DecidedAt - 1
	sh, err := spec.Shard(0)
	if err != nil {
		t.Fatal(err)
	}
	tamperPath := filepath.Join(t.TempDir(), "tampered.jsonl")
	w, err := CreateJSONL(tamperPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteManifest(sh.Manifest()); err != nil {
		t.Fatal(err)
	}
	partial := &core.CampaignResult{Plan: plan.Name}
	var mu sync.Mutex // OnRun is called from concurrent workers
	c := &core.Campaign{Plan: plan, Runs: short, MasterSeed: seed, Mode: core.ModeDistribution,
		OnRun: func(index int, r *core.RunResult) {
			w.OnRun(index, r)
			mu.Lock()
			partial.AddSample(r.Outcome(), len(r.Injections), r.DetectionLatency)
			mu.Unlock()
		}}
	if _, err := c.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteSummary(partial); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	sf, err := ReadShard(tamperPath)
	if err != nil {
		t.Fatalf("tampered artefact must read as a complete shard (self-consistent): %v", err)
	}
	if !sf.Complete || sf.Result.Stop == nil || sf.Result.Stop.DecidedAt != short {
		t.Fatalf("fabrication failed: complete=%v stop=%+v", sf.Complete, sf.Result.Stop)
	}
	if _, _, err := Merge([]string{tamperPath}); !errors.Is(err, ErrCampaignMismatch) {
		t.Fatalf("merge of tampered stop = %v, want ErrCampaignMismatch", err)
	}
}

// TestSpecRoundTripAdaptive: the stop and stratify identity survive the
// spec wire format, and SameCampaign separates campaigns by them.
func TestSpecRoundTripAdaptive(t *testing.T) {
	spec := &Spec{
		Plan: shortE3(), Runs: 18, MasterSeed: 2022, Shards: 3, Mode: core.ModeDistribution,
		Stop:     &core.StopSpec{Policy: core.StopPolicyCIWidth, WidthBP: 500, MinRuns: 4},
		Stratify: true,
	}
	var buf bytes.Buffer
	if err := EncodeSpec(&buf, spec); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeSpec(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !spec.SameCampaign(back) {
		t.Fatal("round-tripped spec is a different campaign")
	}
	if back.Stop == nil || back.Stop.Identity() != spec.Stop.Identity() || !back.Stratify {
		t.Fatalf("stop/stratify lost in transit: %+v stratify=%v", back.Stop, back.Stratify)
	}
	widened := *spec
	widened.Stop = &core.StopSpec{Policy: core.StopPolicyCIWidth, WidthBP: 1000, MinRuns: 4}
	if spec.SameCampaign(&widened) {
		t.Fatal("different CI width treated as the same campaign")
	}
	uniform := *spec
	uniform.Stratify = false
	if spec.SameCampaign(&uniform) {
		t.Fatal("stratified and uniform campaigns treated as the same")
	}
	fixed := *spec
	fixed.Stop = nil
	if spec.SameCampaign(&fixed) {
		t.Fatal("adaptive and fixed-N campaigns treated as the same")
	}
}

// TestAdaptiveGoldenSeed2022Unchanged is the regression pin: a CI
// target the pinned Figure-3 campaign cannot meet (1pp at N=40) leaves
// the golden campaign untouched — all 40 runs execute, the decision
// records the max-N guard (not a fire), and the distribution is the
// seed-2022 golden split 23 correct / 1 inconsistent / 16 panic-park
// with 56 injections.
func TestAdaptiveGoldenSeed2022Unchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("full-duration campaign")
	}
	spec := &Spec{
		Plan: core.PlanE3Fig3(), Runs: 40, MasterSeed: 2022, Shards: 1, Mode: core.ModeDistribution,
		Stop: &core.StopSpec{Policy: core.StopPolicyCIWidth, WidthBP: 100},
	}
	path := filepath.Join(t.TempDir(), "golden.jsonl")
	res, _, err := ExecuteShard(context.Background(), spec, 0, 0, path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stop == nil || res.Stop.Fired || res.Stop.DecidedAt != 40 {
		t.Fatalf("decision %+v, want max-N guard at 40", res.Stop)
	}
	want := map[core.Outcome]int{
		core.OutcomeCorrect:      23,
		core.OutcomeInconsistent: 1,
		core.OutcomePanicPark:    16,
	}
	for _, o := range core.AllOutcomes() {
		if res.Count(o) != want[o] {
			t.Fatalf("count(%v) = %d, want %d", o, res.Count(o), want[o])
		}
	}
	if res.Total() != 40 || res.InjectionsTotal() != 56 {
		t.Fatalf("total=%d injections=%d, want 40/56", res.Total(), res.InjectionsTotal())
	}
	sf, err := ReadShard(path)
	if err != nil {
		t.Fatal(err)
	}
	if !sf.Complete || sf.Records != 40 {
		t.Fatalf("artefact complete=%v records=%d, want a full 40-run file", sf.Complete, sf.Records)
	}
	if sf.Result.Stop == nil || sf.Result.Stop.Fired || sf.Result.Stop.DecidedAt != 40 {
		t.Fatalf("artefact stop stamp %+v, want not-fired at 40", sf.Result.Stop)
	}
}
