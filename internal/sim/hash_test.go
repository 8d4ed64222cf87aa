package sim

import "testing"

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
