package memmap

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestRegionContainsTranslate(t *testing.T) {
	r := Region{Phys: 0x4000_0000, Virt: 0x0, Size: 0x1000, Flags: FlagRead | FlagWrite}
	if !r.Contains(0) || !r.Contains(0xFFF) {
		t.Fatal("Contains failed inside region")
	}
	if r.Contains(0x1000) {
		t.Fatal("Contains true at end (exclusive bound)")
	}
	if got := r.Translate(0x10); got != 0x4000_0010 {
		t.Fatalf("Translate = %#x", got)
	}
}

func TestRegionOverlap(t *testing.T) {
	a := Region{Phys: 0x1000, Virt: 0x1000, Size: 0x1000}
	tests := []struct {
		name string
		b    Region
		want bool
	}{
		{"disjoint-below", Region{Phys: 0x0, Virt: 0x0, Size: 0x1000}, false},
		{"disjoint-above", Region{Phys: 0x2000, Virt: 0x2000, Size: 0x1000}, false},
		{"identical", a, true},
		{"tail-overlap", Region{Phys: 0x1800, Virt: 0x1800, Size: 0x1000}, true},
		{"contained", Region{Phys: 0x1400, Virt: 0x1400, Size: 0x100}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := a.OverlapsVirt(tt.b); got != tt.want {
				t.Fatalf("OverlapsVirt = %v, want %v", got, tt.want)
			}
			if got := a.OverlapsPhys(tt.b); got != tt.want {
				t.Fatalf("OverlapsPhys = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestFlagsString(t *testing.T) {
	f := FlagRead | FlagWrite | FlagIO
	s := f.String()
	for _, want := range []string{"r", "w", "io"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Flags.String() = %q missing %q", s, want)
		}
	}
	if Flags(0).String() != "-" {
		t.Fatalf("empty flags = %q", Flags(0).String())
	}
}

func TestStage2MapAndResolve(t *testing.T) {
	s := NewStage2()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.Map(Region{Phys: 0x4000_0000, Virt: 0x0, Size: 0x10000, Flags: FlagRead | FlagWrite | FlagExecute}))
	must(s.Map(Region{Phys: 0x01C2_8000, Virt: 0x01C2_8000, Size: 0x400, Flags: FlagRead | FlagWrite | FlagIO}))

	hpa, reg, f := s.Resolve(0x100, AccessRead)
	if f != FaultNone || hpa != 0x4000_0100 || reg.Flags&FlagExecute == 0 {
		t.Fatalf("Resolve = %#x %v fault %v", hpa, reg, f)
	}

	// Permission fault: executing from the device window.
	if _, _, f := s.Resolve(0x01C2_8000, AccessExec); f != FaultPermission {
		t.Fatalf("want permission fault, got %v", f)
	}

	// Translation fault: hole between regions.
	if _, _, f := s.Resolve(0x2000_0000, AccessWrite); f != FaultTranslation {
		t.Fatalf("want translation fault, got %v", f)
	}
}

func TestStage2RejectsOverlap(t *testing.T) {
	s := NewStage2()
	if err := s.Map(Region{Phys: 0, Virt: 0x1000, Size: 0x1000, Flags: FlagRead}); err != nil {
		t.Fatal(err)
	}
	err := s.Map(Region{Phys: 0x9000, Virt: 0x1800, Size: 0x1000, Flags: FlagRead})
	if !errors.Is(err, ErrOverlap) {
		t.Fatalf("want ErrOverlap, got %v", err)
	}
}

func TestStage2RejectsDegenerateRegions(t *testing.T) {
	s := NewStage2()
	if err := s.Map(Region{Virt: 0, Size: 0}); err == nil {
		t.Fatal("zero-size region accepted")
	}
	if err := s.Map(Region{Virt: ^uint64(0) - 10, Phys: 0, Size: 0x100}); err == nil {
		t.Fatal("wrapping region accepted")
	}
}

func TestStage2AccountingHelpers(t *testing.T) {
	s := NewStage2()
	_ = s.Map(Region{Phys: 0, Virt: 0, Size: 0x1000, Flags: FlagRead})
	_ = s.Map(Region{Phys: 0x1000, Virt: 0x8000, Size: 0x3000, Flags: FlagRead})
	regs := s.Regions()
	if len(regs) != 2 || regs[0].Virt != 0 || regs[1].Virt != 0x8000 {
		t.Fatalf("Regions = %v", regs)
	}
	// Mutating the copy must not affect the stage-2.
	regs[0].Virt = 0xFFFF
	if got, _ := s.Lookup(0); got.Virt != 0 {
		t.Fatal("Regions() exposed internal state")
	}
}

// Property: for any set of non-overlapping regions accepted by Map, every
// in-region address resolves to the translation the region defines and
// every out-of-region address faults.
func TestStage2PropertyResolveMatchesRegions(t *testing.T) {
	prop := func(bases [4]uint16, sizes [4]uint8) bool {
		s := NewStage2()
		var accepted []Region
		for i := range bases {
			r := Region{
				Phys:  uint64(bases[i]) * 0x1000,
				Virt:  uint64(bases[i]) * 0x1000,
				Size:  (uint64(sizes[i]%8) + 1) * 0x1000,
				Flags: FlagRead,
			}
			if err := s.Map(r); err == nil {
				accepted = append(accepted, r)
			}
		}
		for _, r := range accepted {
			mid := r.Virt + r.Size/2
			hpa, _, f := s.Resolve(mid, AccessRead)
			if f != FaultNone || hpa != r.Translate(mid) {
				return false
			}
			if _, _, f := s.Resolve(mid, AccessWrite); f == FaultNone {
				return false // read-only region allowed a write
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRAMReadWriteRoundTrip(t *testing.T) {
	m := NewRAM(0x4000_0000, 1<<30)
	data := []byte("jailhouse cell config blob")
	if err := m.Write(0x4000_1000, data); err != nil {
		t.Fatal(err)
	}
	got, err := read(m, 0x4000_1000, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Fatalf("roundtrip = %q", got)
	}
}

func TestRAMCrossPageAccess(t *testing.T) {
	m := NewRAM(0, 1<<20)
	data := make([]byte, 3*pageSize)
	for i := range data {
		data[i] = byte(i)
	}
	start := uint64(pageSize - 7) // straddles three pages
	if err := m.Write(start, data); err != nil {
		t.Fatal(err)
	}
	got, err := read(m, start, len(data))
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d = %#x, want %#x", i, got[i], data[i])
		}
	}
}

func TestRAMUntouchedReadsZero(t *testing.T) {
	m := NewRAM(0, 1<<20)
	got, err := read(m, 0x5000, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("untouched RAM returned nonzero")
		}
	}
	if len(m.pages) != 0 {
		t.Fatal("read allocated pages")
	}
}

func TestRAMOutOfBounds(t *testing.T) {
	m := NewRAM(0x1000, 0x1000)
	if err := m.Write(0x0, []byte{1}); err == nil {
		t.Fatal("below-base write accepted")
	}
	if err := m.Write(0x1FFF, []byte{1, 2}); err == nil {
		t.Fatal("straddling-end write accepted")
	}
	if _, err := read(m, 0x2000, 1); err == nil {
		t.Fatal("past-end read accepted")
	}
	if !m.InRange(0x1000, 0x1000) || m.InRange(0x1000, 0x1001) {
		t.Fatal("InRange boundary wrong")
	}
}

func TestRAMWords(t *testing.T) {
	m := NewRAM(0, 0x1000)
	if err := m.WriteWord(0x10, 0xDEADBEEF); err != nil {
		t.Fatal(err)
	}
	v, err := m.ReadWord(0x10)
	if err != nil || v != 0xDEADBEEF {
		t.Fatalf("ReadWord = %#x, %v", v, err)
	}
	b, _ := read(m, 0x10, 4)
	if b[0] != 0xEF {
		t.Fatal("WriteWord is not little-endian")
	}
}

// Property: RAM write-then-read returns exactly the written bytes for any
// offset/length inside bounds.
func TestRAMPropertyRoundTrip(t *testing.T) {
	m := NewRAM(0x4000_0000, 1<<22)
	prop := func(off uint16, payload []byte) bool {
		if len(payload) == 0 {
			return true
		}
		addr := 0x4000_0000 + uint64(off)
		if err := m.Write(addr, payload); err != nil {
			return false
		}
		got, err := read(m, addr, len(payload))
		if err != nil {
			return false
		}
		for i := range payload {
			if got[i] != payload[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: after carving a window out of an identity-mapped space,
// addresses inside the window fault and addresses outside still resolve
// to their identity translation.
func TestPropertyCarveSplitsCorrectly(t *testing.T) {
	prop := func(baseRaw, sizeRaw, carveOffRaw, carveSizeRaw uint8) bool {
		base := uint64(baseRaw) * 0x1000
		size := (uint64(sizeRaw%32) + 8) * 0x1000
		s := NewStage2()
		if err := s.Map(Region{Phys: base, Virt: base, Size: size, Flags: FlagRead}); err != nil {
			return false
		}
		carveOff := (uint64(carveOffRaw) % 6) * 0x1000
		carveSize := (uint64(carveSizeRaw%4) + 1) * 0x1000
		if carveOff+carveSize > size {
			return true // degenerate draw, skip
		}
		s.Carve(base+carveOff, carveSize)

		// Probe every page.
		for off := uint64(0); off < size; off += 0x1000 {
			addr := base + off
			inCarve := off >= carveOff && off < carveOff+carveSize
			hpa, _, f := s.Resolve(addr, AccessRead)
			if inCarve {
				if f == FaultNone {
					return false // carved page still resolves
				}
			} else {
				if f != FaultNone || hpa != addr {
					return false // surviving page lost its identity map
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCarveEdgeCases(t *testing.T) {
	s := NewStage2()
	_ = s.Map(Region{Phys: 0x1000, Virt: 0x1000, Size: 0x3000, Flags: FlagRead})
	// Carving nothing that overlaps leaves the map intact.
	if n := s.Carve(0x10000, 0x1000); n != 0 {
		t.Fatalf("disjoint carve affected %d", n)
	}
	// Carving the whole region removes it entirely.
	if n := s.Carve(0x1000, 0x3000); n != 1 {
		t.Fatalf("full carve affected %d", n)
	}
	if len(s.regions) != 0 {
		t.Fatalf("regions left = %d", len(s.regions))
	}
}

// TestRAMMatchesComparesPagesTheImagesDisagreeOn: a RAM restored to an
// early image and left untouched must not match a later image of the
// same lineage that differs in a page the RAM never wrote — the check
// has to visit pages whose images differ, not only dirtied pages.
func TestRAMMatchesComparesPagesTheImagesDisagreeOn(t *testing.T) {
	m := NewRAM(0x4000_0000, 1<<20)
	_ = m.WriteWord(0x4000_0000, 1)
	early := m.CaptureSnapshot()
	_ = m.WriteWord(0x4000_2000, 7) // a page only the later image has
	_ = m.WriteWord(0x4000_0000, 2) // a page both images hold, changed
	later := m.CaptureSnapshot()

	m.RestoreSnapshot(early)
	if !m.Matches(early) {
		t.Fatal("restored RAM does not match its own image")
	}
	if m.Matches(later) {
		t.Fatal("RAM at the early image matches the later image")
	}
	_ = m.WriteWord(0x4000_0000, 2)
	if m.Matches(later) {
		t.Fatal("RAM missing a page of the later image matches it")
	}
	_ = m.WriteWord(0x4000_2000, 7)
	if !m.Matches(later) {
		t.Fatal("RAM rewritten to the later content does not match it")
	}

	// Splice moves a RAM matching one image to a later one.
	m.RestoreSnapshot(early)
	m.Splice(early, later)
	if !m.Matches(later) || m.Digest() != digestOf(later) {
		t.Fatal("splice did not reach the later image")
	}
	m.RestoreSnapshot(early)
	if !m.Matches(early) {
		t.Fatal("restore after a splice missed a spliced page")
	}
}

// digestOf digests a snapshot image through a scratch RAM.
func digestOf(s *RAMSnapshot) uint64 {
	r := NewRAM(0x4000_0000, 1<<20)
	r.RestoreSnapshot(s)
	return r.Digest()
}

func TestRAMReadIntoOverwritesReusedBuffer(t *testing.T) {
	m := NewRAM(0, 1<<20)
	data := make([]byte, pageSize)
	for i := range data {
		data[i] = byte(i) | 1
	}
	// One written page between two untouched ones; the read starts and
	// ends mid-page so every chunk is partial or crosses a boundary.
	if err := m.Write(pageSize, data); err != nil {
		t.Fatal(err)
	}
	start := uint64(pageSize - 9)
	dst := make([]byte, pageSize+30)
	for i := range dst {
		dst[i] = 0xAA // stale bytes from an earlier read
	}
	if err := m.ReadInto(start, dst); err != nil {
		t.Fatal(err)
	}
	for i, b := range dst {
		off := start + uint64(i)
		inWritten := off >= pageSize && off < 2*pageSize
		if inWritten && b != data[off-pageSize] || !inWritten && b != 0 {
			t.Fatalf("byte at %#x = %#x", off, b)
		}
	}
	if len(m.pages) != 1 {
		t.Fatalf("ReadInto allocated pages: %d", len(m.pages))
	}

	// A read that leaves RAM fails and leaves dst as it was.
	dst = []byte{7, 7, 7, 7}
	if err := m.ReadInto(1<<20-2, dst); err == nil {
		t.Fatal("straddling-end ReadInto accepted")
	}
	if string(dst) != "\x07\x07\x07\x07" {
		t.Fatalf("failed ReadInto wrote %v", dst)
	}
}

// read returns n bytes at physical address addr through ReadInto.
func read(m *RAM, addr uint64, n int) ([]byte, error) {
	out := make([]byte, n)
	return out, m.ReadInto(addr, out)
}
