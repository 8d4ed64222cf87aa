package jailhouse

import (
	"bytes"
	"slices"

	"github.com/dessertlab/certify/internal/memmap"
	"github.com/dessertlab/certify/internal/sim"
)

// This file implements the hypervisor's part of the machine checkpoint
// mechanism (see DESIGN.md, "Golden timeline"): a copy of every mutable
// control block at one instant of the fault-free trajectory — after boot,
// or at a later checkpoint — restored in place so neither the boot path
// nor the golden prefix of a run is replayed. Cell and guest objects are
// captured by pointer plus content — the snapshot belongs to one
// machine, whose guests and cell configurations reference exactly these
// objects, so restoring content into the same objects keeps them valid.
// The console is append-only and is held as a length; its content lives
// once in the golden console log.

// cellSnapshot is the captured content of one Cell.
type cellSnapshot struct {
	cell *Cell // the live object the content belongs to
	cellState
	stage2   []memmap.Region // deep copy of the address space
	irqLines []int           // Config.IRQLines (ivshmem can append)
}

// linkSnapshot is the captured content of one ivshmem link. The peers'
// doorbell IRQ assignments live in their cell configs, which the cell
// snapshots already cover.
type linkSnapshot struct {
	link           *IvshmemLink
	ringsA, ringsB uint64
}

// Snapshot is a copy of the hypervisor's mutable state at one instant:
// its scalar state, the cell list with per-cell content, per-CPU
// blocks, console length, the putc buffer and the ivshmem links. The
// injection hook is not state: each run installs its own.
type Snapshot struct {
	hvState
	cells     []cellSnapshot
	percpu    []PerCPU
	console   int
	putcAccum []byte
	ivshmem   []linkSnapshot
}

// CaptureSnapshot copies the hypervisor state. The board is captured
// separately (board.Board.CaptureSnapshot); core.Machine composes the
// two.
func (h *Hypervisor) CaptureSnapshot() *Snapshot {
	s := &Snapshot{
		hvState:   h.hvState,
		console:   len(h.ConsoleLines),
		putcAccum: append([]byte(nil), h.putcAccum...),
	}
	for _, c := range h.cells {
		s.cells = append(s.cells, cellSnapshot{c, c.cellState, c.Stage2.CaptureSnapshot(), slices.Clone(c.Config.IRQLines)})
	}
	for _, p := range h.percpu {
		s.percpu = append(s.percpu, *p)
	}
	for _, l := range h.ivshmem {
		s.ivshmem = append(s.ivshmem, linkSnapshot{link: l, ringsA: l.ringsA, ringsB: l.ringsB})
	}
	return s
}

// PublishConsole returns the golden console log l extended with this
// hypervisor's console lines past l's end. The hypervisor must be a
// later state of the golden run l was published from.
func (h *Hypervisor) PublishConsole(l *sim.Prefix[string]) *sim.Prefix[string] {
	return l.Extend(h.ConsoleLines, len(h.ConsoleLines))
}

// RestoreSnapshot rewinds the hypervisor to a captured state in place.
// Cells the run created after the capture are dropped from the cell
// list; cells present at capture get their content written back into
// the same objects, so guest models holding those pointers keep
// working. The console is rewritten from the golden log. The injection
// hook is cleared: a run installs its own after the restore.
func (h *Hypervisor) RestoreSnapshot(s *Snapshot, console *sim.Prefix[string]) {
	h.restoreState(s)
	h.Hook = nil
	h.ConsoleLines = sim.Rewind(h.ConsoleLines, console, s.console)
}

// Splice moves a hypervisor whose state matches golden snapshot from to
// the later golden snapshot to: the state becomes to's, the console
// keeps this run's lines and gains the golden lines between the two
// snapshots from the golden console log, and the run's injection hook
// stays installed.
func (h *Hypervisor) Splice(from, to *Snapshot, console *sim.Prefix[string]) {
	h.restoreState(to)
	h.ConsoleLines = append(h.ConsoleLines, console.Items()[from.console:to.console]...)
}

// Matches reports whether the hypervisor state equals the snapshot's:
// everything RestoreSnapshot restores except the console, a log. Cells
// are compared by identity (ID and creation configuration) and
// content, not by object: a cell the run created after the capture is
// a different object from the golden run's, and a restore rebinds the
// golden one.
func (h *Hypervisor) Matches(s *Snapshot) bool {
	if h.hvState != s.hvState || len(h.cells) != len(s.cells) || len(h.ivshmem) != len(s.ivshmem) ||
		!bytes.Equal(h.putcAccum, s.putcAccum) {
		return false
	}
	for i, p := range h.percpu {
		sp := s.percpu[i]
		if !sameCell(p.cell, sp.cell) {
			return false
		}
		sp.cell = p.cell
		if *p != sp {
			return false
		}
	}
	for i := range s.cells {
		cs, c := &s.cells[i], h.cells[i]
		if !sameCell(c, cs.cell) || c.cellState != cs.cellState ||
			!slices.Equal(c.Config.IRQLines, cs.irqLines) || !c.Stage2.Matches(cs.stage2) {
			return false
		}
	}
	for i := range s.ivshmem {
		ls, l := &s.ivshmem[i], h.ivshmem[i]
		if l != ls.link || l.ringsA != ls.ringsA || l.ringsB != ls.ringsB {
			return false
		}
	}
	return true
}

// sameCell reports whether two cell objects are the same cell: the same
// ID created from the same configuration, or both nil. Every create
// decodes its configuration afresh from guest memory, so configurations
// compare by the content fixed at creation (IRQ lines can grow later
// and are compared as cell content).
func sameCell(a, b *Cell) bool {
	if a == nil || b == nil {
		return a == b
	}
	ca, cb := a.Config, b.Config
	return a.ID == b.ID && (ca == cb || ca.Name == cb.Name && ca.CPUSet == cb.CPUSet &&
		ca.ConsoleBase == cb.ConsoleBase && slices.Equal(ca.MemRegions, cb.MemRegions))
}

// restoreState rewinds everything but the console and the injection
// hook to s.
func (h *Hypervisor) restoreState(s *Snapshot) {
	h.hvState = s.hvState
	for i := range h.cells {
		h.cells[i] = nil
	}
	h.cells = h.cells[:0]
	for i := range s.cells {
		cs := &s.cells[i]
		c := cs.cell
		c.cellState = cs.cellState
		c.Stage2.RestoreSnapshot(cs.stage2)
		c.Config.IRQLines = append(c.Config.IRQLines[:0], cs.irqLines...)
		h.cells = append(h.cells, c)
	}
	for i, p := range h.percpu {
		*p = s.percpu[i]
	}
	h.putcAccum = append(h.putcAccum[:0], s.putcAccum...)
	for i := range h.ivshmem {
		h.ivshmem[i] = nil
	}
	h.ivshmem = h.ivshmem[:0]
	for i := range s.ivshmem {
		ls := &s.ivshmem[i]
		ls.link.ringsA, ls.link.ringsB = ls.ringsA, ls.ringsB
		h.ivshmem = append(h.ivshmem, ls.link)
	}
}
