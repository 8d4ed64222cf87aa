// Package memmap models guest-physical memory: typed regions with
// Jailhouse-style permission flags, per-cell stage-2 maps, and a sparse
// byte-addressable RAM. Cell isolation in a partitioning hypervisor is
// exactly the statement "every access resolves only through the accessing
// cell's region list", so this package is where the paper's isolation
// claims become checkable invariants.
package memmap

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Flags are Jailhouse memory-region permission bits (jailhouse/cell-config.h).
type Flags uint32

// Region permission and semantic flags, numerically identical to
// Jailhouse v0.12's JAILHOUSE_MEM_* constants.
const (
	FlagRead       Flags = 1 << 0
	FlagWrite      Flags = 1 << 1
	FlagExecute    Flags = 1 << 2
	FlagDMA        Flags = 1 << 3
	FlagIO         Flags = 1 << 4
	FlagCommRegion Flags = 1 << 5
	FlagLoadable   Flags = 1 << 6
	FlagRootShared Flags = 1 << 7
)

// String renders flags as the conventional "rwx|io|..." summary.
func (f Flags) String() string {
	var parts []string
	add := func(bit Flags, name string) {
		if f&bit != 0 {
			parts = append(parts, name)
		}
	}
	add(FlagRead, "r")
	add(FlagWrite, "w")
	add(FlagExecute, "x")
	add(FlagDMA, "dma")
	add(FlagIO, "io")
	add(FlagCommRegion, "comm")
	add(FlagLoadable, "loadable")
	add(FlagRootShared, "rootshared")
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, "|")
}

// Region describes one guest-physical memory window with access rights,
// mirroring struct jailhouse_memory.
type Region struct {
	Phys  uint64 // host-physical base (what the bus sees)
	Virt  uint64 // guest-physical base (what the cell sees)
	Size  uint64
	Flags Flags
}

// Contains reports whether guest-physical address gpa falls inside the
// region's virtual window.
func (r Region) Contains(gpa uint64) bool {
	return gpa >= r.Virt && gpa-r.Virt < r.Size
}

// Translate converts a guest-physical address inside the region to the
// backing host-physical address.
func (r Region) Translate(gpa uint64) uint64 {
	return r.Phys + (gpa - r.Virt)
}

// OverlapsPhys reports whether two regions' physical windows intersect.
func (r Region) OverlapsPhys(o Region) bool {
	return r.Phys < o.Phys+o.Size && o.Phys < r.Phys+r.Size
}

// OverlapsVirt reports whether two regions' guest-physical windows intersect.
func (r Region) OverlapsVirt(o Region) bool {
	return r.Virt < o.Virt+o.Size && o.Virt < r.Virt+r.Size
}

// String renders the region like Jailhouse's config dumps.
func (r Region) String() string {
	return fmt.Sprintf("phys %#010x → virt %#010x size %#x [%s]", r.Phys, r.Virt, r.Size, r.Flags)
}

// AccessKind distinguishes the three access types permission checks see.
type AccessKind int

// Access kinds.
const (
	AccessRead AccessKind = iota + 1
	AccessWrite
	AccessExec
)

// String returns "read", "write" or "exec".
func (k AccessKind) String() string {
	switch k {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	case AccessExec:
		return "exec"
	default:
		return fmt.Sprintf("access(%d)", int(k))
	}
}

// FaultKind classifies a stage-2 resolution, mirroring the fault
// taxonomy the hypervisor's data-abort handler distinguishes.
type FaultKind int

// Stage-2 fault kinds.
const (
	FaultNone        FaultKind = iota // the access resolves
	FaultTranslation                  // no region maps the address
	FaultPermission                   // region exists but forbids the access
)

// ErrOverlap is wrapped by Map when a new region's guest-physical window
// collides with an existing mapping.
var ErrOverlap = errors.New("memmap: region overlaps existing mapping")

// Stage2 is one cell's guest-physical address space: an ordered list of
// regions. Lookups are binary-search on Virt.
type Stage2 struct {
	regions []Region // sorted by Virt
}

// NewStage2 returns an empty address space.
func NewStage2() *Stage2 { return &Stage2{} }

// Map inserts a region. Overlapping guest-physical windows are rejected —
// the same check Jailhouse's config validation performs.
func (s *Stage2) Map(r Region) error {
	if r.Size == 0 {
		return fmt.Errorf("memmap: zero-size region %v", r)
	}
	if r.Virt+r.Size < r.Virt || r.Phys+r.Size < r.Phys {
		return fmt.Errorf("memmap: region wraps address space: %v", r)
	}
	for _, ex := range s.regions {
		if ex.OverlapsVirt(r) {
			return fmt.Errorf("%w: new %v vs existing %v", ErrOverlap, r, ex)
		}
	}
	s.regions = append(s.regions, r)
	slices.SortFunc(s.regions, func(a, b Region) int { return cmp.Compare(a.Virt, b.Virt) })
	return nil
}

// Lookup returns the region containing gpa.
func (s *Stage2) Lookup(gpa uint64) (Region, bool) {
	i := sort.Search(len(s.regions), func(i int) bool {
		return s.regions[i].Virt+s.regions[i].Size > gpa
	})
	if i < len(s.regions) && s.regions[i].Contains(gpa) {
		return s.regions[i], true
	}
	return Region{}, false
}

// Resolve translates gpa for the given access kind, enforcing
// permissions. fault is FaultNone when the access resolves; otherwise it
// names the stage-2 fault and hpa and region are zero. A fault is a
// value, not an error, so the trap paths that probe every guest access
// allocate nothing.
func (s *Stage2) Resolve(gpa uint64, kind AccessKind) (hpa uint64, region Region, fault FaultKind) {
	r, ok := s.Lookup(gpa)
	if !ok {
		return 0, Region{}, FaultTranslation
	}
	allowed := false
	switch kind {
	case AccessRead:
		allowed = r.Flags&FlagRead != 0
	case AccessWrite:
		allowed = r.Flags&FlagWrite != 0
	case AccessExec:
		allowed = r.Flags&FlagExecute != 0
	}
	if !allowed {
		return 0, Region{}, FaultPermission
	}
	return r.Translate(gpa), r, FaultNone
}

// Carve removes the window [start, start+size) from the address space,
// splitting any regions that straddle the boundaries. It models the
// hypervisor unmapping donated memory from the root cell at cell-create
// time. Returns the number of regions affected.
func (s *Stage2) Carve(start, size uint64) int {
	end := start + size
	affected := 0
	var next []Region
	for _, r := range s.regions {
		rEnd := r.Virt + r.Size
		if rEnd <= start || r.Virt >= end {
			next = append(next, r)
			continue
		}
		affected++
		// Left remainder.
		if r.Virt < start {
			next = append(next, Region{
				Phys: r.Phys, Virt: r.Virt, Size: start - r.Virt, Flags: r.Flags,
			})
		}
		// Right remainder.
		if rEnd > end {
			next = append(next, Region{
				Phys:  r.Phys + (end - r.Virt),
				Virt:  end,
				Size:  rEnd - end,
				Flags: r.Flags,
			})
		}
	}
	sort.Slice(next, func(i, j int) bool { return next[i].Virt < next[j].Virt })
	s.regions = next
	return affected
}

// CaptureSnapshot returns a deep copy of the region list, suitable for
// rewinding the address space later with RestoreSnapshot.
func (s *Stage2) CaptureSnapshot() []Region {
	return append([]Region(nil), s.regions...)
}

// RestoreSnapshot replaces the region list with a copy of regions (as
// returned by CaptureSnapshot — already sorted by Virt), reusing the
// live backing array.
func (s *Stage2) RestoreSnapshot(regions []Region) {
	s.regions = append(s.regions[:0], regions...)
}

// Matches reports whether the region list equals regions (as returned
// by CaptureSnapshot).
func (s *Stage2) Matches(regions []Region) bool { return slices.Equal(s.regions, regions) }

// Regions returns a copy of the mapped regions in ascending Virt order.
func (s *Stage2) Regions() []Region {
	out := make([]Region, len(s.regions))
	copy(out, s.regions)
	return out
}
