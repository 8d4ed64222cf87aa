package sim

import (
	"hash/fnv"
	"strconv"
)

// Stable 64-bit digests (FNV-1a, the same function Trace.Hash uses).
// Campaign manifests fingerprint their test plan with these so that a
// merge of shard artefacts can refuse inputs produced by a different
// plan: the digest of a canonical rendering must stay identical across
// processes, architectures and Go releases.

// HashBytes returns the FNV-1a 64-bit digest of b.
func HashBytes(b []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(b)
	return h.Sum64()
}

// HashString returns the FNV-1a 64-bit digest of s.
func HashString(s string) uint64 {
	return HashBytes([]byte(s))
}

// fnvFold continues the FNV-1a state h over b, one byte at a time —
// the reference fold every faster path must equal.
func fnvFold(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// decimalCache holds the decimal rendering of one int64 — a trace's
// last whole-millisecond timestamp head — and advances it in place when
// the value grows by one, the usual step between consecutive heads. Any
// other jump renders the value again.
type decimalCache struct {
	v int64
	d [20]byte // d[:n] renders v
	n int      // 0 until the first render
}

// digits returns the decimal rendering of v, as strconv.AppendInt
// writes it. The slice is valid until the next call.
func (c *decimalCache) digits(v int64) []byte {
	if c.n == 0 || v != c.v {
		if c.n == 0 || v != c.v+1 || v <= 0 || !c.inc() {
			c.n = len(strconv.AppendInt(c.d[:0], v, 10))
		}
		c.v = v
	}
	return c.d[:c.n]
}

// inc adds one to the rendering in place; false when the carry runs out
// of digits (999 → 1000), which leaves the digits to be rendered again.
func (c *decimalCache) inc() bool {
	for i := c.n - 1; i >= 0; i-- {
		if c.d[i] != '9' {
			c.d[i]++
			return true
		}
		c.d[i] = '0'
	}
	return false
}

// suffixTable folds one fixed byte string S in constant time.
//
// FNV-1a's low byte evolves on its own: the prime's low byte is 0xb3,
// so low8((h^b)·p) = ((low8(h)^b)·0xb3) & 0xff, and the XOR moves h by
// (h^b) − h = (low8(h)^b) − low8(h), a value fixed by low8(h) alone.
// Induction over S gives, modulo 2⁶⁴,
//
//	fold(h, S) = h·pⁿ + C_S[low8(h)]
//
// with n = len(S) and C_S a 256-entry table that depends only on S.
// Each entry is learned lazily by running the byte loop once for the
// first state with that low byte (C = fold(h, S) − h·pⁿ), so a first
// sighting costs exactly what the byte loop costs; every later fold
// with the same low byte is one multiply-add. The result is
// bit-identical to fnvFold by the identity above, whatever h is.
type suffixTable struct {
	pn    uint64    // pⁿ mod 2⁶⁴
	known [4]uint64 // bit s set once c[s] has been learned
	c     [256]uint64
}

// reset prepares the table for a new suffix of n bytes, forgetting
// every learned entry.
func (t *suffixTable) reset(n int) {
	pn, base := uint64(1), fnvPrime64
	for ; n > 0; n >>= 1 {
		if n&1 != 0 {
			pn *= base
		}
		base *= base
	}
	t.pn = pn
	t.known = [4]uint64{}
}

// fold returns fold(h, S) when the entry for h's low byte is learned.
func (t *suffixTable) fold(h uint64) (uint64, bool) {
	lo := uint8(h)
	if t.known[lo>>6]&(1<<(lo&63)) == 0 {
		return 0, false
	}
	return h*t.pn + t.c[lo], true
}

// learn folds s (which must be the table's S) byte by byte from h and
// records the entry for h's low byte.
func (t *suffixTable) learn(h uint64, s []byte) uint64 {
	out := fnvFold(h, s)
	lo := uint8(h)
	t.c[lo] = out - h*t.pn
	t.known[lo>>6] |= 1 << (lo & 63)
	return out
}

// learnAll sets the table up for S = s with all 256 entries learned:
// the form a published fold plan uses and never writes again.
func (t *suffixTable) learnAll(s []byte) {
	t.reset(len(s))
	for lo := range t.c {
		h := uint64(lo)
		t.c[lo] = fnvFold(h, s) - h*t.pn
	}
	t.known = [4]uint64{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
}

// suffixKey names the constant tail of a trace record's hash line by
// content: the six sub-millisecond timestamp digits (sub, or none when
// sub is -1), then "|kind|cpu|text\n". text is compared by string
// equality, so two equal messages share a table whatever their backing
// arrays.
type suffixKey struct {
	text string
	sub  int32
	kind Kind
	cpu  int16
}

// appendTo appends the suffix bytes k names.
func (k suffixKey) appendTo(buf []byte) []byte {
	if k.sub >= 0 {
		for d := int32(100000); d > 0; d /= 10 {
			buf = append(buf, byte('0'+k.sub/d%10))
		}
	}
	buf = appendKindCPU(buf, k.kind, k.cpu)
	buf = append(buf, k.text...)
	return append(buf, '\n')
}

// appendKindCPU appends the "|kind|cpu|" fields of a hash line.
func appendKindCPU(buf []byte, kind Kind, cpu int16) []byte {
	buf = append(buf, '|')
	buf = strconv.AppendUint(buf, uint64(kind), 10)
	buf = append(buf, '|')
	buf = strconv.AppendInt(buf, int64(cpu), 10)
	return append(buf, '|')
}

// Memo bounds. A Figure-3 minute repeats a handful of suffixes tens of
// thousands of times (the per-cell vIRQ messages on each CPU), so a few
// tables cover the hot set; the rest of a trace's lines are one-offs.
const (
	suffixSlots = 16 // tables held at once (≈2 KiB each, inline)
	suffixSeen  = 16 // suffixes remembered after one sighting
)

// suffixMemo is a trace's bounded, content-keyed set of suffix tables.
// A suffix gets a table only on its second sighting, so one-off lines
// (UART transcripts, console notes) never claim one; the first
// sighting only enters a small ring of candidates. The tables live
// inline, allocated with the trace: when every slot is taken, the
// least-used table is recycled in place, so the memo's size is fixed
// and hashing never allocates. Tables depend only on bytes, so the memo
// outlives snapshot restore.
type suffixMemo struct {
	keys [suffixSlots]suffixKey
	tabs [suffixSlots]suffixTable
	hits [suffixSlots]uint64
	n    int // slots in use
	last int // slot of the most recent hit, checked first

	seen     [suffixSeen]suffixKey
	seenNext int // ring cursor
}

// lookup returns k's table, or nil when k has none.
func (m *suffixMemo) lookup(k suffixKey) *suffixTable {
	if m.n == 0 {
		return nil
	}
	if m.keys[m.last] == k {
		m.hits[m.last]++
		return &m.tabs[m.last]
	}
	for i := 0; i < m.n; i++ {
		if m.keys[i] == k {
			m.hits[i]++
			m.last = i
			return &m.tabs[i]
		}
	}
	return nil
}

// admit records a sighting of a suffix lookup missed, n bytes long. On
// the first sighting it remembers k and returns nil; on a repeat it
// hands out a table for k, ready to learn.
func (m *suffixMemo) admit(k suffixKey, n int) *suffixTable {
	sighted := false
	for i := range m.seen {
		if m.seen[i] == k {
			m.seen[i] = suffixKey{}
			sighted = true
			break
		}
	}
	if !sighted {
		m.seen[m.seenNext] = k
		m.seenNext = (m.seenNext + 1) % suffixSeen
		return nil
	}
	slot := m.n
	if slot < suffixSlots {
		m.n++
	} else {
		slot = 0
		for i := 1; i < suffixSlots; i++ {
			if m.hits[i] < m.hits[slot] {
				slot = i
			}
		}
	}
	m.keys[slot], m.hits[slot], m.last = k, 0, slot
	m.tabs[slot].reset(n)
	return &m.tabs[slot]
}
