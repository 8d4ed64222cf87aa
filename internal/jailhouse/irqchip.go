package jailhouse

import (
	"fmt"

	"github.com/dessertlab/certify/internal/armv7"
	"github.com/dessertlab/certify/internal/board"
	"github.com/dessertlab/certify/internal/gic"
	"github.com/dessertlab/certify/internal/sim"
)

// IRQChipHandleIRQ is the physical-interrupt entry — Jailhouse's
// irqchip_handle_irq(). Interrupts are routed to HYP mode; the hypervisor
// acknowledges them at the GIC, handles its own management SGIs, and
// injects everything else into the owning cell as a virtual IRQ.
//
// The paper profiled this function as an injection candidate but excluded
// it: the only live datum is the IRQ number, and corrupting it produces a
// predictable "IRQ error". The A3 ablation benchmark verifies that claim
// against this implementation.
func (h *Hypervisor) IRQChipHandleIRQ(cpu int) {
	for {
		irq, src := h.brd.GIC.Acknowledge(cpu)
		if irq == gic.SpuriousIRQ {
			return
		}

		// The injectable frame for this entry point: r0 holds the IRQ
		// number (the handler's only parameter), r1 the source CPU of
		// an SGI. The frame comes from a per-CPU scratch pool; it is
		// released before dispatch, so re-entrant deliveries triggered
		// by guest code see a free scratch (or fall back to a fresh
		// allocation while this one is busy).
		ctx := h.irqFrames.acquire(cpu, armv7.TrapContext{CPUID: uint32(cpu)})
		ctx.Regs[0] = uint32(irq)
		ctx.Regs[1] = uint32(src)
		res, proceed := h.enterHandler(PointIRQChip, cpu, ExitIRQ, ctx)
		effectiveIRQ := int(ctx.Regs[0])
		h.irqFrames.release(cpu, ctx)
		if !proceed {
			return
		}

		h.dispatchIRQ(cpu, effectiveIRQ, irq)
		h.brd.GIC.EOI(cpu, irq)
		_ = res
	}
}

// dispatchIRQ routes one acknowledged interrupt. effectiveIRQ is what the
// (possibly corrupted) handler believes arrived; rawIRQ is what the GIC
// actually delivered and is used only for EOI bookkeeping by the caller.
func (h *Hypervisor) dispatchIRQ(cpu, effectiveIRQ, rawIRQ int) {
	p := h.PerCPU(cpu)
	cell := p.cell

	switch {
	case effectiveIRQ == sgiEventStart && gic.IsSGI(effectiveIRQ):
		// Cell bring-up: transition this CPU into guest execution. If
		// an injection re-wrote the event, the CPU silently stays
		// offline — the cell is RUNNING with a dead CPU: E2's
		// inconsistent state.
		if cell == nil || cell.State != CellRunning || p.Parked {
			return
		}
		if p.OnlineInCell {
			return
		}
		p.OnlineInCell = true
		h.brd.CPUs[cpu].Online = true
		h.trace(sim.KindCellEvent, cpu, "cpu online in cell %q", sim.Str(cell.Name()))
		if cell.Guest != nil {
			h.brd.Engine.After(100*sim.Microsecond, board.EvCellCPUBoot, int32(cpu), uint64(cell.ID))
		}
	case effectiveIRQ == sgiEventPark && gic.IsSGI(effectiveIRQ):
		h.cpuPark(cpu, "park request SGI")
	case gic.IsSGI(effectiveIRQ):
		// Unknown management SGI — dropped with an error log, the
		// predictable outcome the paper anticipated.
		h.consolef("IRQ error: unexpected SGI %d on CPU %d", effectiveIRQ, cpu)
	case effectiveIRQ >= gic.MaxIRQ || effectiveIRQ < 0:
		// A corrupted IRQ number outside the implemented range.
		h.consolef("IRQ error: spurious IRQ %d on CPU %d", effectiveIRQ, cpu)
	case gic.IsPPI(effectiveIRQ):
		// Private interrupt (timer): belongs to whoever runs on the CPU.
		h.injectToCell(cpu, cell, effectiveIRQ)
	default:
		// SPI: only the owning cell receives it.
		if cell != nil && cell.Config.OwnsIRQ(effectiveIRQ) {
			h.injectToCell(cpu, cell, effectiveIRQ)
			return
		}
		h.consolef("IRQ error: IRQ %d not for cell %q", effectiveIRQ, h.cellNameOf(cpu))
	}
}

// injectToCell delivers a virtual IRQ to the cell's guest on cpu.
func (h *Hypervisor) injectToCell(cpu int, cell *Cell, irq int) {
	if cell == nil || cell.Guest == nil {
		return
	}
	p := h.PerCPU(cpu)
	if p.Parked || !p.OnlineInCell || cell.State != CellRunning {
		return // parked or offline CPUs execute no guest code
	}
	if irq >= len(cell.virqMsg) {
		grown := make([]string, irq+1)
		copy(grown, cell.virqMsg)
		cell.virqMsg = grown
	}
	msg := cell.virqMsg[irq]
	if msg == "" {
		// Rendered exactly as the deferred-format record would have been,
		// so the trace hash is byte-identical.
		msg = fmt.Sprintf("vIRQ %d → cell %q", irq, cell.Name())
		cell.virqMsg[irq] = msg
	}
	h.brd.Trace().Add(h.brd.Now(), sim.KindIRQ, cpu, msg)
	cell.Guest.OnIRQ(cpu, irq)
}
