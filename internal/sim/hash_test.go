package sim

import (
	"math"
	"strconv"
	"testing"
)

// refFold is FNV-1a continued from state h, written out here with its
// own constant so the table algebra is checked against an independent
// byte loop.
func refFold(h uint64, s []byte) uint64 {
	for _, c := range s {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// FuzzFoldSuffix pins the suffix-table identity fold(h, S) =
// h·pⁿ + C_S[low8(h)]: for an arbitrary state and byte string, a
// table learned from one state per low byte must fold every other
// state with that low byte exactly as the byte loop does.
func FuzzFoldSuffix(f *testing.F) {
	f.Add(uint64(fnvOffset64), []byte{})
	f.Add(uint64(0), []byte("→"))
	f.Add(uint64(0xdeadbeefcafef00d), []byte(`100000|3|1|vIRQ 27 → cell "freertos-cell"`+"\n"))
	f.Add(^uint64(0), []byte{0x00, 0xff, 0x80})
	f.Fuzz(func(t *testing.T, h uint64, s []byte) {
		var tab suffixTable
		tab.reset(len(s))
		if _, ok := tab.fold(h); ok {
			t.Fatal("fresh table claims a learned entry")
		}
		for b := 0; b < 256; b++ {
			learnFrom := h&^0xff | uint64(b)
			if got, want := tab.learn(learnFrom, s), refFold(learnFrom, s); got != want {
				t.Fatalf("learn(%#x): %#x, byte loop %#x", learnFrom, got, want)
			}
			// Another state sharing the low byte, differing everywhere above it.
			other := learnFrom ^ (h*0x9e3779b97f4a7c15)&^0xff ^ 0xa5a5a5a5a5a5a500
			got, ok := tab.fold(other)
			if !ok {
				t.Fatalf("low byte %#x not learned", b)
			}
			if want := refFold(other, s); got != want {
				t.Fatalf("fold(%#x, %q) = %#x, byte loop %#x", other, s, got, want)
			}
		}
	})
}

// TestDecimalCacheMatchesStrconv walks the cache through the steps a
// trace's timestamp heads take — runs of +1 across every carry into a
// new digit, repeats, and jumps forward, back, to zero and below — and
// requires every rendering to equal strconv's.
func TestDecimalCacheMatchesStrconv(t *testing.T) {
	var c decimalCache
	check := func(v int64) {
		t.Helper()
		if got, want := string(c.digits(v)), strconv.FormatInt(v, 10); got != want {
			t.Fatalf("digits(%d) = %q, want %q", v, got, want)
		}
	}
	for _, start := range []int64{0, 7, 95, 998, 99_990, 123_456_789, math.MaxInt64 - 3, -12, math.MinInt64} {
		for v := start; v < start+25 && v >= start; v++ {
			check(v)
			check(v) // a repeated head
		}
	}
	for _, v := range []int64{5, 4, 0, -1, 0, 1, 1_000_000, 999_999, 1_000_000, 1_000_001, math.MaxInt64} {
		check(v)
	}
}
