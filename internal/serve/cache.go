package serve

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"github.com/dessertlab/certify/internal/dist"
)

// cache is the server's content-addressed result store. One campaign
// identity — plan hash, master seed, run count, retention mode — maps
// to one directory holding the single-shard artefact (runs.jsonl) and
// the published spec (spec.json). The artefact itself is the cache
// entry: there is no separate metadata to drift out of sync, and a hit
// is only ever declared after the same verification a merge applies
// (manifest matches the requested shard, records complete and
// consistent with the summary footer). A corrupted, truncated or
// foreign entry therefore can never be served — lookup misses and the
// campaign re-executes, overwriting the bad entry with fresh evidence.
//
// Verification is a pure function of the artefact's bytes, so memo
// remembers each verdict under the SHA-256 of the bytes it was reached
// on: a read whose streamed digest matches answers from the verdict
// without re-parsing, and any other byte content — tampered, truncated,
// swapped, rewritten — has a digest of its own and is verified in full.
type cache struct {
	dir  string
	memo verifiedMemo
}

func newCache(dir string) (*cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &cache{dir: dir, memo: verifiedMemo{byDigest: make(map[digest]*list.Element)}}, nil
}

// cacheKey is the content address of a campaign: every field of the
// identity in fixed-width hex/decimal, so distinct campaigns get
// distinct directories. (The plan hash covers the plan text including
// its fault-model selection.) Collisions cannot misattribute results
// even in theory: a hit additionally requires the stored manifest to
// match the requested shard's.
// Adaptive campaigns append their stop-policy identity (and stratify
// marker) as extra suffix segments: a request that adds, removes or
// retargets a stop policy certifies a different prefix, so it must
// address a different entry. Fixed-N keys are unchanged — existing
// cache stores keep answering.
func cacheKey(spec *dist.Spec) string {
	key := fmt.Sprintf("%016x-%016x-%d-%s", spec.Plan.Hash(), spec.MasterSeed, spec.Runs, spec.Mode)
	if spec.Stop != nil {
		key += "-" + spec.Stop.Identity()
	}
	if spec.Stratify {
		key += "-stratified"
	}
	return key
}

func (c *cache) entryDir(key string) string     { return filepath.Join(c.dir, key) }
func (c *cache) artefactPath(key string) string { return filepath.Join(c.entryDir(key), "runs.jsonl") }

// lookup returns the verified tally of spec's entry, or ok=false on any
// miss: absent file, unreadable file, incomplete shard, or a manifest
// that does not match the requested campaign byte for byte.
func (c *cache) lookup(spec *dist.Spec) (*tally, bool) {
	sh, err := spec.Shard(0)
	if err != nil {
		return nil, false
	}
	e, ok := c.verified(c.artefactPath(cacheKey(spec)))
	if !ok || !e.manifest.MatchesShard(sh) {
		metCacheMisses.Inc()
		return nil, false
	}
	metCacheHits.Inc()
	return e.result, true
}

// verified returns the verdict on the artefact at path when it is a
// complete shard. A streamed digest the memo holds answers at once;
// otherwise the file is read once, and that one buffer is hashed,
// verified and memoised — there is no window in which the verified
// bytes and the digested bytes can differ.
func (c *cache) verified(path string) (memoEntry, bool) {
	sum, err := digestFile(path)
	if err != nil {
		return memoEntry{}, false
	}
	if e, ok := c.memo.get(sum); ok {
		metMemoHits.Inc()
		return e, true
	}
	metMemoMisses.Inc()
	data, err := os.ReadFile(path)
	if err != nil {
		return memoEntry{}, false
	}
	return c.verify(path, data)
}

// verify applies the merge-grade check (dist.ReadShardAt: manifest,
// window, duplicates, summary footer confirmed by the folded records)
// to data, the bytes just read from path, and memoises a complete
// verdict under data's own digest.
func (c *cache) verify(path string, data []byte) (memoEntry, bool) {
	sum := digest(sha256.Sum256(data))
	if e, ok := c.memo.get(sum); ok {
		return e, true
	}
	sf, err := dist.ReadShardAt(bytes.NewReader(data), int64(len(data)), path)
	if err != nil || !sf.Complete {
		return memoEntry{}, false
	}
	return c.memo.put(&memoEntry{sum: sum, manifest: sf.Manifest, result: newTally(sf.Result)}), true
}

// canonical returns the canonical byte stream (dist.WriteCanonical) of
// the artefact at path. A streamed digest whose canonical bytes the
// memo holds answers at once; otherwise the file is read once, and that
// one buffer is rendered through the dossier's verified record reads
// and, when it also verifies as a complete shard, its canonical bytes
// are memoised beside the verdict.
func (c *cache) canonical(path string) ([]byte, error) {
	sum, err := digestFile(path)
	if err != nil {
		return nil, err
	}
	if e, ok := c.memo.get(sum); ok && e.canonical != nil {
		metMemoHits.Inc()
		return e.canonical, nil
	}
	metMemoMisses.Inc()
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	d, err := dist.OpenDossierAt(bytes.NewReader(data), int64(len(data)), path)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	out.Grow(len(data))
	if err := dist.WriteCanonical(&out, d); err != nil {
		return nil, err
	}
	if e, ok := c.verify(path, data); ok {
		c.memo.setCanonical(e.sum, out.Bytes())
	}
	return out.Bytes(), nil
}

// prepare readies spec's entry for execution: the directory exists, the
// spec is published beside the artefact, and any poisoned artefact —
// unreadable, or readable but naming a different campaign — is removed
// so ExecuteShard reruns instead of refusing. A same-campaign
// incomplete artefact is deliberately left in place: it is a resumable
// remnant (of a cancelled or crashed job) and ExecuteShard's own
// idempotence handles it. Returns the artefact path to execute into.
func (c *cache) prepare(spec *dist.Spec) (string, error) {
	sh, err := spec.Shard(0)
	if err != nil {
		return "", err
	}
	key := cacheKey(spec)
	if err := os.MkdirAll(c.entryDir(key), 0o755); err != nil {
		return "", err
	}
	if err := dist.WriteSpecFile(filepath.Join(c.entryDir(key), "spec.json"), spec); err != nil {
		return "", err
	}
	path := c.artefactPath(key)
	sf, rerr := dist.ReadShard(path)
	switch {
	case rerr == nil && !sf.Manifest.SameCampaignAs(sh):
		// The entry's bytes answer to a different campaign than its
		// address — poisoned or tampered. Never serve it, never resume
		// into it: remove and re-execute.
		if err := os.Remove(path); err != nil {
			return "", err
		}
		metCachePoisoned.Inc()
	case rerr != nil && !os.IsNotExist(rerr) && !errors.Is(rerr, dist.ErrTorn):
		// Unreadable non-torn file (corrupted records, flipped bytes):
		// ExecuteShard would refuse to overwrite it, so clear it here —
		// inside the content-addressed store, an unreadable entry is by
		// definition worthless. (Torn crash remnants are already rerun
		// in place by ExecuteShard itself.)
		if err := os.Remove(path); err != nil {
			return "", err
		}
		metCachePoisoned.Inc()
	}
	return path, nil
}

// entries counts the cache's entry directories, for /healthz.
func (c *cache) entries() int {
	des, err := os.ReadDir(c.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, de := range des {
		if de.IsDir() {
			n++
		}
	}
	return n
}

// digest is the SHA-256 of an artefact's exact bytes: the memo's only
// key. Path, size, mtime and inode play no part, so no metadata trick
// can make changed bytes look verified.
type digest [sha256.Size]byte

// digestBufs recycles the read buffers of streamed digests, so a memo
// hit costs one pass over the file and no per-request copy of it.
var digestBufs = sync.Pool{New: func() any {
	b := make([]byte, 64<<10)
	return &b
}}

// digestFile streams the file at path through SHA-256.
func digestFile(path string) (digest, error) {
	f, err := os.Open(path)
	if err != nil {
		return digest{}, err
	}
	defer f.Close()
	buf := digestBufs.Get().(*[]byte)
	defer digestBufs.Put(buf)
	h := sha256.New()
	// The wrapper hides *os.File's WriteTo, which would copy through a
	// freshly allocated buffer instead of the pooled one.
	if _, err := io.CopyBuffer(h, struct{ io.Reader }{f}, *buf); err != nil {
		return digest{}, err
	}
	var sum digest
	h.Sum(sum[:0])
	return sum, nil
}

// Bounds of the verified-content memo. They are constants: the memo is
// a cache of verdicts the store can always recompute, so its size is
// a memory budget, not a deployment choice.
const (
	// memoMaxEntries caps the memoised verdicts.
	memoMaxEntries = 256
	// memoMaxBytes caps what the memo holds: canonical artefact bytes
	// plus memoEntryOverhead per entry.
	memoMaxBytes = 32 << 20
	// memoEntryOverhead is the charge for one entry's manifest and
	// aggregate.
	memoEntryOverhead = 1 << 10
)

// memoEntry is the verdict on one byte content: a complete shard with
// this manifest and aggregate. Published entries are never mutated,
// except that canonical is set at most once, under the memo's lock.
type memoEntry struct {
	sum      digest
	manifest dist.Manifest
	// result is the verified aggregate, shared by every job it answers.
	result *tally
	// canonical is the artefact's canonical byte stream, nil until a
	// download fills it.
	canonical []byte
}

func (e *memoEntry) size() int64 { return memoEntryOverhead + int64(len(e.canonical)) }

// verifiedMemo maps content digests to verdicts, evicting the least
// recently used entry once either bound is exceeded.
type verifiedMemo struct {
	mu       sync.Mutex
	byDigest map[digest]*list.Element // values are *memoEntry
	lru      list.List                // front: most recently used
	held     int64                    // sum of entry sizes
}

// get returns a copy of sum's entry.
func (m *verifiedMemo) get(sum digest) (memoEntry, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.byDigest[sum]
	if !ok {
		return memoEntry{}, false
	}
	m.lru.MoveToFront(el)
	return *el.Value.(*memoEntry), true
}

// put memoises e unless its digest is already held, and returns a copy
// of the entry held for that digest.
func (m *verifiedMemo) put(e *memoEntry) memoEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.byDigest[e.sum]; ok {
		m.lru.MoveToFront(el)
		return *el.Value.(*memoEntry)
	}
	m.byDigest[e.sum] = m.lru.PushFront(e)
	m.grow(1, e.size())
	return *e
}

// setCanonical attaches canonical bytes to sum's entry if the memo
// still holds it, has none yet, and they fit the byte bound at all.
func (m *verifiedMemo) setCanonical(sum digest, b []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.byDigest[sum]
	if !ok {
		return
	}
	e := el.Value.(*memoEntry)
	if e.canonical != nil || memoEntryOverhead+int64(len(b)) > memoMaxBytes {
		return
	}
	e.canonical = b
	m.lru.MoveToFront(el)
	m.grow(0, int64(len(b)))
}

// grow accounts for added entries and bytes, then evicts from the
// least recently used end until both bounds hold. The front entry,
// which fits the byte bound alone, is never evicted by its own growth.
func (m *verifiedMemo) grow(entries, size int64) {
	m.held += size
	metMemoEntries.Add(entries)
	metMemoHeldBytes.Add(size)
	for m.lru.Len() > memoMaxEntries || m.held > memoMaxBytes {
		e := m.lru.Remove(m.lru.Back()).(*memoEntry)
		delete(m.byDigest, e.sum)
		m.held -= e.size()
		metMemoEntries.Dec()
		metMemoHeldBytes.Add(-e.size())
		metMemoEvictions.Inc()
	}
}
