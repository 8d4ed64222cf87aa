package jailhouse

import (
	"fmt"

	"github.com/dessertlab/certify/internal/armv7"
	"github.com/dessertlab/certify/internal/board"
	"github.com/dessertlab/certify/internal/gic"
	"github.com/dessertlab/certify/internal/sim"
)

// ArchHandleTrap is the hypervisor's central synchronous-exception
// handler — Jailhouse's arch_handle_trap(). Every guest HVC, SMC,
// emulated MMIO access and trapped system-register access funnels through
// here, dispatched on the HSR exception class. It is the paper's primary
// injection point for the Figure 3 experiment.
//
// The context is returned (possibly modified) so callers — the GuestPort
// entry paths — can restore it to the CPU, corrupted or not.
func (h *Hypervisor) ArchHandleTrap(cpu int, ctx *armv7.TrapContext) {
	res, proceed := h.enterHandler(PointTrap, cpu, exitReasonFor(ctx.HSR), ctx)
	if !proceed {
		return
	}

	ec := armv7.HSRClass(ctx.HSR)
	h.trace(sim.KindTrap, cpu, "trap %s from cell %q", sim.Str(ec.String()), sim.Str(h.cellNameOf(cpu)))

	switch ec {
	case armv7.ECHVC:
		// Nested dispatch mirrors Jailhouse: arch_handle_trap calls
		// arch_handle_hvc for hypercall-class exits. A plan targeting
		// only arch_handle_hvc hooks there; one targeting
		// arch_handle_trap corrupts the frame before this dispatch.
		h.ArchHandleHVC(cpu, ctx)
	case armv7.ECSMC:
		h.handlePSCI(cpu, ctx)
	case armv7.ECDABTLow:
		h.handleDataAbort(cpu, ctx)
	case armv7.ECWFx:
		// WFI/WFE: benign, resume the guest past the instruction.
		ctx.ELR += 4
	case armv7.ECCP15_32:
		// Trapped MCR/MRC: emulate the identification registers with
		// their architectural values; everything else reads as zero and
		// ignores writes — Jailhouse's hardening default for the
		// registers it filters.
		reg, rt, read := armv7.DecodeCP15(armv7.HSRISS(ctx.HSR))
		if read {
			v, _ := armv7.CP15Value(h.brd.CPUs[cpu], reg)
			ctx.WriteReg(rt, v)
		}
		h.trace(sim.KindTrap, cpu, "cp15 %s %s", sim.Str(cp15Op(read)), sim.Str(reg.String()))
		ctx.ELR += 4
	case armv7.ECCP15_64, armv7.ECCP14_32:
		// 64-bit and CP14 transfers: write-ignore / read-as-zero.
		da := armv7.HSRISS(ctx.HSR)
		reg := int((da >> 5) & 0xF)
		ctx.WriteReg(reg, 0)
		ctx.ELR += 4
	case armv7.ECIABTLow:
		// Prefetch abort from the guest: it jumped somewhere its cell
		// has no executable mapping — the typical aftermath of a
		// corrupted return address. Not emulatable.
		h.unhandledTrap(cpu, ctx, fmt.Sprintf("prefetch abort at %#x outside cell mapping", ctx.ELR))
		return
	default:
		// Unknown or unexpected exception class — with a corrupted HSR
		// this is where flips in the EC field land.
		h.unhandledTrap(cpu, ctx, fmt.Sprintf("unhandled trap exception, error code %#02x", uint32(ec)))
		return
	}

	h.notifyCorruptedResume(cpu, ctx, res)
}

// exitReasonFor maps a syndrome to the per-CPU statistics bucket.
func exitReasonFor(hsr uint32) VMExit {
	switch armv7.HSRClass(hsr) {
	case armv7.ECHVC:
		return ExitHVC
	case armv7.ECSMC:
		return ExitPSCI
	case armv7.ECDABTLow:
		return ExitMMIO
	case armv7.ECWFx:
		return ExitWFx
	case armv7.ECCP15_32, armv7.ECCP15_64, armv7.ECCP14_32:
		return ExitCP15
	default:
		return ExitUnhandled
	}
}

// unhandledTrap implements Jailhouse's dump-and-die path for traps no
// handler claims: the register frame is dumped to the hypervisor console
// and the CPU is parked — or, for the root cell, the whole system stops,
// since the root cell's health is the hypervisor's own.
func (h *Hypervisor) unhandledTrap(cpu int, ctx *armv7.TrapContext, why string) {
	h.consolef("%s", why)
	h.consolef("pc=%#08x cpsr=%#08x hsr=%#08x", ctx.ELR, ctx.SPSR, ctx.HSR)
	cell := h.cellOf(cpu)
	if cell != nil && cell.ID == 0 {
		h.panicStop(cpu, why)
		return
	}
	h.cpuPark(cpu, why)
}

// handleDataAbort emulates trapped MMIO. Only the interrupt distributor
// is trap-and-emulate in this configuration (direct-assigned device
// windows never fault); anything else is an access violation.
func (h *Hypervisor) handleDataAbort(cpu int, ctx *armv7.TrapContext) {
	cell := h.cellOf(cpu)
	if cell == nil {
		return
	}
	da := armv7.DecodeDataAbort(armv7.HSRISS(ctx.HSR))
	addr := uint64(ctx.HDFAR)

	if !da.Valid {
		// No valid syndrome — the abort cannot be emulated. Jailhouse
		// dumps and parks. This is the canonical "error code 0x24"
		// outcome the paper reports.
		h.unhandledTrap(cpu, ctx, fmt.Sprintf("unhandled trap exception, error code %#02x", uint32(armv7.ECDABTLow)))
		return
	}

	// GIC distributor: always emulated, with cell-ownership filtering.
	if addr >= board.GICDBase && addr < board.GICDBase+gic.RegionSize {
		h.emulateGICD(cpu, cell, addr-board.GICDBase, da, ctx)
		ctx.ELR += 4
		return
	}

	// Inside the cell's own mappings? Then forward to the bus (this only
	// happens when a corrupted fault address re-targets an access that
	// originally trapped elsewhere — the hardware would have satisfied
	// it directly).
	if cell.OwnsMMIO(addr) {
		if da.Write {
			_ = h.brd.Write32(cpu, addr, ctx.Regs[da.Reg])
		} else if v, err := h.brd.Read32(cpu, addr); err == nil {
			ctx.WriteReg(da.Reg, v)
		}
		ctx.ELR += 4
		return
	}

	// Access violation: the cell touched something it does not own.
	op := "read"
	if da.Write {
		op = "write"
	}
	h.unhandledTrap(cpu, ctx, fmt.Sprintf("Unhandled data %s at %#x(%d)", op, addr, da.Size))
}

// emulateGICD applies a cell's distributor access with ownership
// enforcement: a cell may only operate on its own SPIs, its SGI/PPI
// banks, and may only send SGIs to its own CPUs. Writes touching foreign
// interrupts are silently filtered — isolation by construction.
func (h *Hypervisor) emulateGICD(cpu int, cell *Cell, off uint64, da armv7.DataAbort, ctx *armv7.TrapContext) {
	if !da.Write {
		v, err := h.brd.GIC.ReadReg(off)
		if err != nil {
			v = 0 // reads of unimplemented registers return zero
		}
		ctx.WriteReg(da.Reg, v)
		return
	}
	value := ctx.Regs[da.Reg]

	switch {
	case off >= gic.GICDISEnabler && off < gic.GICDISEnabler+uint64(gic.MaxIRQ/8),
		off >= gic.GICDICEnabler && off < gic.GICDICEnabler+uint64(gic.MaxIRQ/8):
		var base uint64 = gic.GICDISEnabler
		if off >= gic.GICDICEnabler {
			base = gic.GICDICEnabler
		}
		word := int(off-base) / 4
		value &= h.ownedIRQMask(cell, word)
		off = base + uint64(word*4)
	case off == gic.GICDSgir:
		// Restrict SGI targets to the cell's own CPUs.
		var own uint32
		for _, c := range cell.CPUList() {
			own |= 1 << uint(c)
		}
		tl := (value >> 16) & 0xFF & own
		value = value&^uint32(0xFF<<16) | tl<<16
	case off == gic.GICDCtlr:
		// Only the root cell may switch the distributor off.
		if cell.ID != 0 && value&1 == 0 {
			return
		}
	}
	if err := h.brd.GIC.WriteReg(off, value, cpu); err != nil {
		// Write to an unimplemented register: ignored, as hardware
		// RAZ/WI behaviour.
		h.trace(sim.KindNote, cpu, "gicd: ignored write at %#x", sim.Uint(off))
	}
}

// ownedIRQMask builds the 32-bit enable-register mask of interrupts the
// cell may operate on in the given register word: its banked SGIs/PPIs
// (word 0) and its configured SPI lines.
func (h *Hypervisor) ownedIRQMask(cell *Cell, word int) uint32 {
	if word == 0 {
		return 0xFFFFFFFF // SGIs+PPIs are banked per CPU: always owned
	}
	var mask uint32
	for _, irq := range cell.Config.IRQLines {
		if irq/32 == word {
			mask |= 1 << uint(irq%32)
		}
	}
	// The virtual timer PPI lives in word 0; SPIs from the config cover
	// the rest.
	return mask
}

// handlePSCI emulates the PSCI SMC interface — the CPU hotplug "swap"
// mechanism: the root cell offlines a core with CPU_OFF before donating
// it, and brings returned cores back with CPU_ON.
func (h *Hypervisor) handlePSCI(cpu int, ctx *armv7.TrapContext) {
	fn := ctx.Regs[0]
	cell := h.cellOf(cpu)
	ret := int32(armv7.PSCIRetNotSupported)

	if armv7.IsPSCICall(fn) {
		switch fn {
		case armv7.PSCIVersion:
			ret = int32(armv7.PSCIVersionValue)
		case armv7.PSCIFeatures:
			ret = armv7.PSCIRetSuccess
		case armv7.PSCICPUOff:
			// The calling CPU goes offline. For the root cell this is
			// the pre-donation hotplug step.
			p := h.PerCPU(cpu)
			p.OnlineInCell = false
			h.brd.CPUs[cpu].Online = false
			if cell != nil && cell.ID == 0 {
				h.rootOfflined.add(cpu)
			}
			h.trace(sim.KindCellEvent, cpu, "psci: CPU_OFF in cell %q", sim.Str(h.cellNameOf(cpu)))
			ret = armv7.PSCIRetSuccess
		case armv7.PSCICPUOn:
			target := int(ctx.Regs[1] & 0xFF) // MPIDR Aff0
			ret = h.psciCPUOn(cell, target)
		case armv7.PSCIAffinityInfo:
			target := int(ctx.Regs[1] & 0xFF)
			if p := h.PerCPU(target); p != nil && p.OnlineInCell {
				ret = 0 // ON
			} else {
				ret = 1 // OFF
			}
		}
	}
	ctx.WriteReg(0, uint32(ret))
	ctx.ELR += 4
	h.trace(sim.KindTrap, cpu, "psci %s → %d", sim.Str(armv7.PSCIName(fn)), sim.Int(int64(ret)))
}

// psciCPUOn validates and performs CPU_ON within the calling cell.
func (h *Hypervisor) psciCPUOn(cell *Cell, target int) int32 {
	p := h.PerCPU(target)
	if p == nil || cell == nil {
		return armv7.PSCIRetInvalidParams
	}
	if !cell.HasCPU(target) {
		return armv7.PSCIRetDenied // isolation: not your CPU
	}
	if p.OnlineInCell {
		return armv7.PSCIRetAlreadyOn
	}
	p.Parked = false
	p.repair()
	h.brd.CPUs[target].Parked = false
	h.brd.CPUs[target].Online = true
	p.OnlineInCell = true
	h.rootOfflined.remove(target)
	if cell.Guest != nil {
		h.brd.Engine.After(50*sim.Microsecond, board.EvPSCIBoot, int32(target), uint64(cell.ID))
	}
	h.trace(sim.KindCellEvent, target, "psci: CPU_ON into cell %q", sim.Str(cell.Name()))
	return armv7.PSCIRetSuccess
}

// cp15Op names the access direction for traces.
func cp15Op(read bool) string {
	if read {
		return "mrc"
	}
	return "mcr"
}
