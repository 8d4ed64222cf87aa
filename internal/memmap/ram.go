package memmap

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
)

// pageSize is the allocation granule of the sparse RAM. 4 KiB matches the
// MMU granule, though nothing here depends on that.
const pageSize = 4096

// RAM is a sparse byte-addressable physical memory. Pages materialise on
// first write; reads of untouched memory return zeroes, like freshly
// powered DRAM after the boot loader cleared it.
type RAM struct {
	base  uint64
	size  uint64
	pages map[uint64][]byte // page index → page content

	// Dirty-page tracking, enabled by the first CaptureSnapshot. Every
	// Write marks the pages it touches; RestoreSnapshot then copies
	// back only the dirtied pages instead of rebuilding the whole image.
	tracking bool
	dirty    map[uint64]struct{}
	lastSnap *RAMSnapshot // snapshot the dirty set is relative to
}

// NewRAM returns size bytes of physical memory starting at base.
func NewRAM(base, size uint64) *RAM {
	return &RAM{base: base, size: size, pages: make(map[uint64][]byte)}
}

// InRange reports whether [addr, addr+n) lies entirely inside the RAM.
func (m *RAM) InRange(addr uint64, n int) bool {
	return addr >= m.base && addr-m.base+uint64(n) <= m.size && n >= 0
}

// errOOB builds the out-of-bounds access error.
func (m *RAM) errOOB(addr uint64, n int) error {
	return fmt.Errorf("memmap: physical access [%#x,+%d) outside RAM [%#x,+%#x)", addr, n, m.base, m.size)
}

// ReadInto fills dst with the bytes at physical address addr.
func (m *RAM) ReadInto(addr uint64, dst []byte) error {
	n := len(dst)
	if !m.InRange(addr, n) {
		return m.errOOB(addr, n)
	}
	off := addr - m.base
	for i := 0; i < n; {
		page, pgOff := off/pageSize, off%pageSize
		chunk := pageSize - pgOff
		if rem := uint64(n - i); chunk > rem {
			chunk = rem
		}
		if p, ok := m.pages[page]; ok {
			copy(dst[i:], p[pgOff:pgOff+chunk])
		} else {
			clear(dst[i : i+int(chunk)])
		}
		i += int(chunk)
		off += chunk
	}
	return nil
}

// Write stores data at physical address addr.
func (m *RAM) Write(addr uint64, data []byte) error {
	if !m.InRange(addr, len(data)) {
		return m.errOOB(addr, len(data))
	}
	off := addr - m.base
	for i := 0; i < len(data); {
		page, pgOff := off/pageSize, off%pageSize
		p, ok := m.pages[page]
		if !ok {
			p = make([]byte, pageSize)
			m.pages[page] = p
		}
		if m.tracking {
			m.dirty[page] = struct{}{}
		}
		chunk := int(pageSize - pgOff)
		if rem := len(data) - i; chunk > rem {
			chunk = rem
		}
		copy(p[pgOff:], data[i:i+chunk])
		i += chunk
		off += uint64(chunk)
	}
	return nil
}

// ReadWord reads a little-endian 32-bit word.
func (m *RAM) ReadWord(addr uint64) (uint32, error) {
	var b [4]byte
	if err := m.ReadInto(addr, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

// WriteWord stores a little-endian 32-bit word.
func (m *RAM) WriteWord(addr uint64, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return m.Write(addr, b[:])
}

// RAMSnapshot is an immutable image of the materialised page set at
// capture time. Pages a capture finds unchanged since the previous
// snapshot of the same RAM are shared with it by reference, so a
// timeline of checkpoints stores each page version once. It doubles as
// the identity token for delta restores: a RAM remembers which snapshot
// its dirty set is relative to, and only a restore of that same snapshot
// may take the dirty-pages-only path.
type RAMSnapshot struct {
	pages map[uint64][]byte
}

// CaptureSnapshot images the current content and switches the RAM into
// dirty-page tracking mode: from here on, Write marks the pages it
// touches so a later RestoreSnapshot of this image copies back only what
// changed. A page not dirtied since the previous capture or restore
// is shared with that snapshot instead of copied.
func (m *RAM) CaptureSnapshot() *RAMSnapshot {
	s := &RAMSnapshot{pages: make(map[uint64][]byte, len(m.pages))}
	prev := m.lastSnap
	for page, p := range m.pages {
		if prev != nil {
			if img, ok := prev.pages[page]; ok {
				if _, dirty := m.dirty[page]; !dirty {
					s.pages[page] = img
					continue
				}
			}
		}
		cp := make([]byte, pageSize)
		copy(cp, p)
		s.pages[page] = cp
	}
	m.tracking = true
	if m.dirty == nil {
		m.dirty = make(map[uint64]struct{})
	} else {
		clear(m.dirty)
	}
	m.lastSnap = s
	return s
}

// RestoreSnapshot rewrites the RAM to exactly the snapshot's content and
// returns (dirtied, restored): how many pages the preceding run touched
// and how many pages the restore had to copy. When the dirty set is
// relative to this very snapshot the restore is a delta — each dirtied
// page is recopied from the image (or dropped, if the image never had
// it); otherwise (a different image) every page is rewritten from the
// image, reusing live page buffers.
// Live pages are always the RAM's own buffers, never a snapshot's.
func (m *RAM) RestoreSnapshot(s *RAMSnapshot) (dirtied, restored int) {
	if m.lastSnap == s {
		dirtied = len(m.dirty)
		for page := range m.dirty {
			img, ok := s.pages[page]
			if !ok {
				delete(m.pages, page)
				continue
			}
			p, live := m.pages[page]
			if !live {
				p = make([]byte, pageSize)
				m.pages[page] = p
			}
			copy(p, img)
			restored++
		}
	} else {
		dirtied = len(m.pages)
		for page := range m.pages {
			if _, ok := s.pages[page]; !ok {
				delete(m.pages, page)
			}
		}
		for page, img := range s.pages {
			p, live := m.pages[page]
			if !live {
				p = make([]byte, pageSize)
				m.pages[page] = p
			}
			copy(p, img)
			restored++
		}
	}
	if m.dirty == nil {
		m.dirty = make(map[uint64]struct{})
	} else {
		clear(m.dirty)
	}
	m.tracking = true
	m.lastSnap = s
	return dirtied, restored
}

// Matches reports whether the RAM's content equals image s, reading
// absent pages as zero. When the RAM tracks writes relative to its last
// snapshot, only pages that can differ are compared: pages written
// since that snapshot, and pages whose image in s differs by reference
// from the snapshot's. Images of one RAM share every page not written
// between their captures, so a shared page holds equal content.
func (m *RAM) Matches(s *RAMSnapshot) bool {
	base := m.lastSnap
	if base == nil {
		for page := range m.pages {
			if !m.pageMatches(page, s) {
				return false
			}
		}
		base = &RAMSnapshot{}
	} else {
		for page := range m.dirty {
			if !m.pageMatches(page, s) {
				return false
			}
		}
	}
	for page, img := range s.pages {
		if prev, ok := base.pages[page]; ok && samePage(prev, img) {
			continue
		}
		if !m.pageMatches(page, s) {
			return false
		}
	}
	for page := range base.pages {
		if _, ok := s.pages[page]; !ok && !m.pageMatches(page, s) {
			return false
		}
	}
	return true
}

// samePage reports whether two image pages share their storage.
func samePage(a, b []byte) bool { return &a[0] == &b[0] }

// pageMatches compares one live page with its image in s.
func (m *RAM) pageMatches(page uint64, s *RAMSnapshot) bool {
	live, img := m.pages[page], s.pages[page]
	switch {
	case live == nil && img == nil:
		return true
	case live == nil:
		return isZero(img)
	case img == nil:
		return isZero(live)
	}
	return bytes.Equal(live, img)
}

func isZero(p []byte) bool {
	for _, b := range p {
		if b != 0 {
			return false
		}
	}
	return true
}

// Splice moves a RAM whose content matches image from to the later
// image to, both captured on this RAM: only pages whose image differs by
// reference are rewritten, and they join the dirty set, so the next
// restore of the RAM's last snapshot copies them back.
func (m *RAM) Splice(from, to *RAMSnapshot) {
	set := func(page uint64, img []byte) {
		if img == nil {
			delete(m.pages, page)
		} else {
			p, live := m.pages[page]
			if !live {
				p = make([]byte, pageSize)
				m.pages[page] = p
			}
			copy(p, img)
		}
		if m.tracking {
			m.dirty[page] = struct{}{}
		}
	}
	for page, img := range to.pages {
		if prev, ok := from.pages[page]; !ok || !samePage(prev, img) {
			set(page, img)
		}
	}
	for page := range from.pages {
		if _, ok := to.pages[page]; !ok {
			set(page, nil)
		}
	}
}

// Digest folds the materialised content into a 64-bit FNV-1a hash,
// visiting pages in ascending index order so the value is deterministic.
// All-zero pages hash identically whether materialised or not, making
// the digest a content fingerprint rather than an allocation fingerprint.
func (m *RAM) Digest() uint64 {
	idx := make([]uint64, 0, len(m.pages))
	for page, p := range m.pages {
		zero := true
		for _, b := range p {
			if b != 0 {
				zero = false
				break
			}
		}
		if !zero {
			idx = append(idx, page)
		}
	}
	sort.Slice(idx, func(i, j int) bool { return idx[i] < idx[j] })
	h := fnv.New64a()
	var buf [8]byte
	for _, page := range idx {
		binary.LittleEndian.PutUint64(buf[:], page)
		h.Write(buf[:])
		h.Write(m.pages[page])
	}
	return h.Sum64()
}
