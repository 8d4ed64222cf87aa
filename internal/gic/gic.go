// Package gic models a GIC-400-class (GICv2) interrupt controller: a
// shared distributor plus one CPU interface per core. The model covers
// the behaviour a partitioning hypervisor and its guests exercise —
// enable/disable, priority masking, SGI/PPI/SPI routing, acknowledge and
// end-of-interrupt — and exposes the distributor's register file so the
// hypervisor can emulate guest MMIO accesses to it, which is the main
// source of the trap stream the paper injects into.
package gic

import (
	"fmt"
	"math/bits"
)

// Interrupt ID ranges (GICv2).
const (
	NumSGI = 16 // software-generated, IDs 0-15, per-CPU
	NumPPI = 16 // private peripheral, IDs 16-31, per-CPU
	NumSPI = 96 // shared peripheral, IDs 32-127 in this model
	MaxIRQ = NumSGI + NumPPI + NumSPI

	// SpuriousIRQ is returned by Acknowledge when nothing is pending,
	// the architectural 0x3FF value.
	SpuriousIRQ = 1023
)

// Well-known interrupt IDs on the modelled SoC.
const (
	IRQVirtualTimer = 27 // PPI: per-core virtual timer (guest tick source)
	IRQHypTimer     = 26 // PPI: hypervisor timer
)

// IsSGI reports whether id is a software-generated interrupt.
func IsSGI(id int) bool { return id >= 0 && id < NumSGI }

// IsPPI reports whether id is a private peripheral interrupt.
func IsPPI(id int) bool { return id >= NumSGI && id < NumSGI+NumPPI }

// IsSPI reports whether id is a shared peripheral interrupt.
func IsSPI(id int) bool { return id >= NumSGI+NumPPI && id < MaxIRQ }

// irqSet is a fixed-size interrupt-ID bitmap (MaxIRQ bits, two words in
// this model). It replaces the per-CPU pending/active maps: membership
// is a mask test, clearing a core is a word fill, and iteration walks
// set bits in ascending ID order — which is exactly Acknowledge's
// deterministic lowest-ID tie-break, now by construction instead of by
// sorting a scratch slice. Everything is O(words) and allocation-free.
type irqSet [(MaxIRQ + 63) / 64]uint64

func (s *irqSet) set(id int)      { s[id>>6] |= 1 << uint(id&63) }
func (s *irqSet) clear(id int)    { s[id>>6] &^= 1 << uint(id&63) }
func (s *irqSet) has(id int) bool { return s[id>>6]&(1<<uint(id&63)) != 0 }

// perCPU holds banked per-core interrupt state (SGIs+PPIs pending/active,
// the CPU interface registers).
type perCPU struct {
	pending irqSet
	active  irqSet
	sgiSrc  [NumSGI]int8 // pending SGI id → source CPU
	priMask uint8        // GICC_PMR: only priorities < mask are delivered
	enabled bool         // GICC_CTLR enable bit
}

// maxCPUs is the number of CPU interfaces a GICv2 distributor can
// serve (GICD_ITARGETSR holds an 8-bit CPU mask).
const maxCPUs = 8

// Distributor is the shared GICD state plus the per-CPU interfaces.
type Distributor struct {
	numCPUs int

	// state is the register file: a restore assigns it, and a rejoin
	// check compares it with ==.
	state

	// DeliverHook, when set, is called whenever a new interrupt becomes
	// deliverable to a CPU. The hypervisor wires it once, to its IRQ
	// entry path, when it is built.
	DeliverHook func(cpu, irq int)
}

// state is the distributor's register file and every CPU interface, one
// comparable value. Interfaces past the distributor's CPU count stay at
// their reset value.
type state struct {
	ctlr bool // GICD_CTLR group-0 enable

	enabled  [MaxIRQ]bool  // GICD_ISENABLER
	priority [MaxIRQ]uint8 // GICD_IPRIORITYR
	targets  [MaxIRQ]uint8 // GICD_ITARGETSR: CPU bitmask (SPIs only)

	cpus [maxCPUs]perCPU
}

// powerOn is the register file after reset: all interrupts disabled at
// reset-default priority, no targets, nothing pending or active, every
// priority let through once an interface is enabled.
var powerOn = func() (s state) {
	for i := range s.priority {
		s.priority[i] = 0xA0 // reset default mid priority
	}
	for i := range s.cpus {
		s.cpus[i].priMask = 0xFF
	}
	return s
}()

// New returns a distributor for numCPUs cores (at most maxCPUs),
// everything disabled, as after reset.
func New(numCPUs int) *Distributor {
	return &Distributor{numCPUs: min(numCPUs, maxCPUs), state: powerOn}
}

// Snapshot is the distributor's register file at one instant. The
// delivery hook is wiring, not state: it is neither captured nor
// compared.
type Snapshot struct{ state }

// CaptureSnapshot copies the distributor state.
func (d *Distributor) CaptureSnapshot() Snapshot { return Snapshot{d.state} }

// RestoreSnapshot rewinds the distributor to a captured state.
func (d *Distributor) RestoreSnapshot(s Snapshot) { d.state = s.state }

// Matches reports whether the register file equals the snapshot's.
func (d *Distributor) Matches(s Snapshot) bool { return d.state == s.state }

// EnableDistributor sets GICD_CTLR.EnableGrp0.
func (d *Distributor) EnableDistributor(on bool) { d.ctlr = on }

// DistributorEnabled reports GICD_CTLR.EnableGrp0.
func (d *Distributor) DistributorEnabled() bool { return d.ctlr }

// EnableCPUInterface sets GICC_CTLR.Enable for one core.
func (d *Distributor) EnableCPUInterface(cpu int, on bool) {
	if p := d.cpu(cpu); p != nil {
		p.enabled = on
	}
}

// CPUInterfaceEnabled reports GICC_CTLR.Enable for one core.
func (d *Distributor) CPUInterfaceEnabled(cpu int) bool {
	p := d.cpu(cpu)
	return p != nil && p.enabled
}

// PriorityMask reads GICC_PMR for one core (0 when out of range).
func (d *Distributor) PriorityMask(cpu int) uint8 {
	if p := d.cpu(cpu); p != nil {
		return p.priMask
	}
	return 0
}

// SGISource returns the recorded source CPU of a pending SGI — state a
// power-on-equivalence check must see, since Acknowledge reads it.
func (d *Distributor) SGISource(cpu, id int) int {
	p := d.cpu(cpu)
	if p == nil || !IsSGI(id) {
		return 0
	}
	return int(p.sgiSrc[id])
}

// SetPriorityMask writes GICC_PMR for one core.
func (d *Distributor) SetPriorityMask(cpu int, mask uint8) {
	if p := d.cpu(cpu); p != nil {
		p.priMask = mask
	}
}

func (d *Distributor) cpu(i int) *perCPU {
	if i < 0 || i >= d.numCPUs {
		return nil
	}
	return &d.cpus[i]
}

// EnableIRQ sets the distributor enable bit for an interrupt.
func (d *Distributor) EnableIRQ(id int) {
	if id >= 0 && id < MaxIRQ {
		d.enabled[id] = true
	}
}

// DisableIRQ clears the distributor enable bit.
func (d *Distributor) DisableIRQ(id int) {
	if id >= 0 && id < MaxIRQ {
		d.enabled[id] = false
	}
}

// IRQEnabled reports the distributor enable bit.
func (d *Distributor) IRQEnabled(id int) bool {
	return id >= 0 && id < MaxIRQ && d.enabled[id]
}

// SetPriority writes an interrupt's priority (0 = highest).
func (d *Distributor) SetPriority(id int, pri uint8) {
	if id >= 0 && id < MaxIRQ {
		d.priority[id] = pri
	}
}

// Priority reads an interrupt's priority.
func (d *Distributor) Priority(id int) uint8 {
	if id < 0 || id >= MaxIRQ {
		return 0
	}
	return d.priority[id]
}

// SetTargets writes GICD_ITARGETSR for an SPI: a bitmask of CPU interfaces.
func (d *Distributor) SetTargets(id int, mask uint8) {
	if IsSPI(id) {
		d.targets[id] = mask
	}
}

// Targets reads the routing mask of an SPI.
func (d *Distributor) Targets(id int) uint8 {
	if id < 0 || id >= MaxIRQ {
		return 0
	}
	return d.targets[id]
}

// RaiseSPI marks a shared peripheral interrupt pending and delivers it to
// every targeted, enabled CPU interface.
func (d *Distributor) RaiseSPI(id int) error {
	if !IsSPI(id) {
		return fmt.Errorf("gic: %d is not an SPI", id)
	}
	delivered := false
	for cpu := 0; cpu < d.numCPUs; cpu++ {
		if d.targets[id]&(1<<uint(cpu)) == 0 {
			continue
		}
		d.cpus[cpu].pending.set(id)
		delivered = true
		d.maybeDeliver(cpu, id)
	}
	if !delivered {
		// Untargeted SPIs stay latched in no-one's queue; hardware drops
		// them at the distributor. Model the drop.
		return nil
	}
	return nil
}

// RaisePPI marks a private interrupt pending on one core.
func (d *Distributor) RaisePPI(cpu, id int) error {
	if !IsPPI(id) {
		return fmt.Errorf("gic: %d is not a PPI", id)
	}
	p := d.cpu(cpu)
	if p == nil {
		return fmt.Errorf("gic: no cpu %d", cpu)
	}
	p.pending.set(id)
	d.maybeDeliver(cpu, id)
	return nil
}

// SendSGI raises a software-generated interrupt from srcCPU on each CPU in
// targetMask — the hypervisor's cross-CPU kick mechanism (cell stop,
// park, resume).
func (d *Distributor) SendSGI(srcCPU int, targetMask uint8, id int) error {
	if !IsSGI(id) {
		return fmt.Errorf("gic: %d is not an SGI", id)
	}
	for cpu := 0; cpu < d.numCPUs; cpu++ {
		if targetMask&(1<<uint(cpu)) == 0 {
			continue
		}
		p := &d.cpus[cpu]
		p.pending.set(id)
		p.sgiSrc[id] = int8(srcCPU)
		d.maybeDeliver(cpu, id)
	}
	return nil
}

// deliverable reports whether irq can be signalled to cpu right now.
func (d *Distributor) deliverable(cpu, irq int) bool {
	p := d.cpu(cpu)
	if p == nil || !d.ctlr || !p.enabled {
		return false
	}
	if !d.enabled[irq] {
		return false
	}
	if d.priority[irq] >= p.priMask {
		return false
	}
	return !p.active.has(irq)
}

func (d *Distributor) maybeDeliver(cpu, irq int) {
	if d.deliverable(cpu, irq) && d.DeliverHook != nil {
		d.DeliverHook(cpu, irq)
	}
}

// Acknowledge implements a GICC_IAR read: returns the highest-priority
// pending deliverable interrupt, marks it active, and clears pending.
// Returns SpuriousIRQ when nothing qualifies. For SGIs the source CPU is
// also returned (IAR bits [12:10] architecturally).
func (d *Distributor) Acknowledge(cpu int) (irq int, srcCPU int) {
	p := d.cpu(cpu)
	if p == nil {
		return SpuriousIRQ, 0
	}
	if p.pending == (irqSet{}) {
		// Nothing pending at all — the common second IAR read of every
		// delivery loop.
		return SpuriousIRQ, 0
	}
	if !d.ctlr || !p.enabled {
		// Distributor or CPU interface off: no candidate can qualify, the
		// same answer the per-candidate deliverable scan would reach.
		return SpuriousIRQ, 0
	}
	best, bestPri := SpuriousIRQ, uint16(0x100)
	for w, word := range p.pending {
		for word != 0 {
			id := w*64 + bits.TrailingZeros64(word)
			word &= word - 1 // clear lowest set bit
			// Inline deliverable() with the global gates hoisted above and
			// p already in hand.
			pri := d.priority[id]
			if !d.enabled[id] || pri >= p.priMask || p.active.has(id) {
				continue
			}
			// Strict < keeps the lowest-ID tie-break: bits are visited in
			// ascending ID order, so the first of an equal-priority pair
			// wins, exactly as the sorted-slice implementation did.
			if uint16(pri) < bestPri {
				best, bestPri = id, uint16(pri)
			}
		}
	}
	if best == SpuriousIRQ {
		return SpuriousIRQ, 0
	}
	p.pending.clear(best)
	p.active.set(best)
	var src int
	if IsSGI(best) {
		src = int(p.sgiSrc[best])
		p.sgiSrc[best] = 0
	}
	return best, src
}

// EOI implements a GICC_EOIR write: deactivates the interrupt on the core.
// Out-of-range IDs (including SpuriousIRQ) are ignored, as before.
func (d *Distributor) EOI(cpu, irq int) {
	if p := d.cpu(cpu); p != nil && irq >= 0 && irq < MaxIRQ {
		p.active.clear(irq)
		// A still-pending level interrupt would re-deliver here; our
		// sources re-raise explicitly, so nothing further to do.
	}
}

// Pending reports whether irq is pending (not yet acknowledged) on cpu.
func (d *Distributor) Pending(cpu, irq int) bool {
	p := d.cpu(cpu)
	return p != nil && irq >= 0 && irq < MaxIRQ && p.pending.has(irq)
}

// Active reports whether irq is active (ack'd, not EOI'd) on cpu.
func (d *Distributor) Active(cpu, irq int) bool {
	p := d.cpu(cpu)
	return p != nil && irq >= 0 && irq < MaxIRQ && p.active.has(irq)
}

// ClearCPU drops all pending/active state for a core — what happens when
// the hypervisor resets a core while reassigning it between cells.
func (d *Distributor) ClearCPU(cpu int) {
	p := d.cpu(cpu)
	if p == nil {
		return
	}
	p.pending = irqSet{}
	p.active = irqSet{}
	p.sgiSrc = [NumSGI]int8{}
}
