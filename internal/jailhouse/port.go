package jailhouse

import (
	"github.com/dessertlab/certify/internal/armv7"
	"github.com/dessertlab/certify/internal/board"
	"github.com/dessertlab/certify/internal/memmap"
)

// GuestPort is the surface guests use to interact with the machine while
// the hypervisor is armed. Each method models the architectural operation
// a real guest would perform — executing HVC/SMC, or issuing a load/store
// that either passes straight through stage-2 or traps for emulation.
//
// Guests first materialise their register image onto the virtual CPU (see
// the guest packages), because trap contexts are captured from it and
// corrupted frames are restored into it.

// HVC executes a hypervisor call from the guest running on cpu with the
// Jailhouse immediate. Returns the hypercall result from r0.
func (h *Hypervisor) HVC(cpu int, code, arg1, arg2 uint32) Errno {
	c := h.brd.CPUs[cpu]
	c.SetReg(armv7.RegR0, code)
	c.SetReg(armv7.RegR1, arg1)
	c.SetReg(armv7.RegR2, arg2)
	hsr := armv7.BuildHSR(armv7.ECHVC, true, armv7.BuildHVCISS(armv7.JailhouseHVCImm))
	ctx := h.guestTrap(cpu, hsr, 0)
	return Errno(ctx.Regs[armv7.RegR0])
}

// SMC executes a secure-monitor call (the PSCI path) from the guest on
// cpu. Returns the PSCI result from r0.
func (h *Hypervisor) SMC(cpu int, fn uint32, args ...uint32) int32 {
	c := h.brd.CPUs[cpu]
	c.SetReg(armv7.RegR0, fn)
	for i, a := range args {
		if 1+i < armv7.NumRegs {
			c.SetReg(1+i, a)
		}
	}
	hsr := armv7.BuildHSR(armv7.ECSMC, true, 0)
	ctx := h.guestTrap(cpu, hsr, 0)
	return int32(ctx.Regs[armv7.RegR0])
}

// GuestRead32 performs a 32-bit guest load at guest-physical gpa.
// Direct-assigned windows and RAM go straight to the bus; everything else
// takes the trap-and-emulate path through ArchHandleTrap.
func (h *Hypervisor) GuestRead32(cpu int, gpa uint64) (uint32, error) {
	cell := h.cellOf(cpu)
	if cell == nil {
		return 0, ErrNotEnabled
	}
	if hpa, _, f := cell.Stage2.Resolve(gpa, memmap.AccessRead); f == memmap.FaultNone {
		return h.brd.Read32(cpu, hpa)
	}
	// Stage-2 fault → synchronous data abort into HYP.
	iss := armv7.BuildDataAbortISS(4, armv7.RegR0, false, armv7.FSCTranslationL2)
	hsr := armv7.BuildHSR(armv7.ECDABTLow, true, iss)
	ctx := h.guestTrap(cpu, hsr, uint32(gpa))
	return ctx.Regs[armv7.RegR0], nil
}

// GuestWrite32 performs a 32-bit guest store at guest-physical gpa.
func (h *Hypervisor) GuestWrite32(cpu int, gpa uint64, value uint32) error {
	cell := h.cellOf(cpu)
	if cell == nil {
		return ErrNotEnabled
	}
	if hpa, _, f := cell.Stage2.Resolve(gpa, memmap.AccessWrite); f == memmap.FaultNone {
		return h.brd.Write32(cpu, hpa, value)
	}
	c := h.brd.CPUs[cpu]
	c.SetReg(armv7.RegR0, value)
	iss := armv7.BuildDataAbortISS(4, armv7.RegR0, true, armv7.FSCTranslationL2)
	hsr := armv7.BuildHSR(armv7.ECDABTLow, true, iss)
	h.guestTrap(cpu, hsr, uint32(gpa))
	return nil
}

// GuestMRC models a trapped MRC (CP15 read) from the guest on cpu: the
// access takes the full trap round-trip through ArchHandleTrap's
// system-register emulation and returns the value the guest receives.
func (h *Hypervisor) GuestMRC(cpu int, reg armv7.CP15Reg) uint32 {
	iss := armv7.BuildCP15ISS(reg, armv7.RegR0, true)
	hsr := armv7.BuildHSR(armv7.ECCP15_32, true, iss)
	ctx := h.guestTrap(cpu, hsr, 0)
	return ctx.Regs[armv7.RegR0]
}

// GuestFetch models an instruction fetch at guest-physical gpa — the
// path a corrupted return address takes. Fetching outside the cell's
// executable mappings raises a prefetch abort into the hypervisor, which
// cannot handle it and parks the CPU.
func (h *Hypervisor) GuestFetch(cpu int, gpa uint64) error {
	cell := h.cellOf(cpu)
	if cell == nil {
		return ErrNotEnabled
	}
	if _, _, f := cell.Stage2.Resolve(gpa, memmap.AccessExec); f == memmap.FaultNone {
		return nil
	}
	hsr := armv7.BuildHSR(armv7.ECIABTLow, true, armv7.FSCTranslationL1)
	h.guestTrap(cpu, hsr, uint32(gpa))
	return nil
}

// guestTrap performs a full trap round-trip: capture the guest frame,
// enter HYP, dispatch, and restore. Only the slots the handler
// legitimately wrote are merged back into the pristine frame — injected
// corruption of the handler's live registers never reaches the guest's
// saved state directly (see armv7.TrapContext.Written).
func (h *Hypervisor) guestTrap(cpu int, hsr, hdfar uint32) armv7.TrapContext {
	c := h.brd.CPUs[cpu]
	c.HDFAR = hdfar
	c.EnterHyp(hsr, c.Reg(armv7.RegPC)+4)
	pre := armv7.CaptureContext(c)
	ctx := h.trapFrames.acquire(cpu, pre)
	h.ArchHandleTrap(cpu, ctx)
	merged := ctx.MergeWritten(pre)
	merged.Restore(c)
	c.ExitHyp()
	// Return the handler's view so callers read results (r0, MMIO data).
	out := *ctx
	h.trapFrames.release(cpu, ctx)
	return out
}

// scratchFrames is one entry path's per-CPU reusable trap frames, so a
// trap's frame does not escape to the heap. A frame is busy while its
// entry runs; a re-entrant entry on the same CPU gets a heap frame.
// Every acquire overwrites the frame, so the frames carry no state from
// one entry to the next and stay out of hvState and its rejoin check.
type scratchFrames struct {
	ctx  [board.NumCPUs]armv7.TrapContext
	busy [board.NumCPUs]bool
}

// acquire returns a frame holding init.
func (s *scratchFrames) acquire(cpu int, init armv7.TrapContext) *armv7.TrapContext {
	if cpu >= 0 && cpu < len(s.ctx) && !s.busy[cpu] {
		s.busy[cpu] = true
		s.ctx[cpu] = init
		return &s.ctx[cpu]
	}
	ctx := new(armv7.TrapContext)
	*ctx = init
	return ctx
}

// release returns a frame acquire handed out.
func (s *scratchFrames) release(cpu int, ctx *armv7.TrapContext) {
	if cpu >= 0 && cpu < len(s.ctx) && ctx == &s.ctx[cpu] {
		s.busy[cpu] = false
	}
}

// LoadInmate attaches guest software to a created cell — the modelling
// counterpart of "jailhouse cell load". The cell must exist and be in
// the loadable/shut-down state.
func (h *Hypervisor) LoadInmate(id uint32, guest Inmate) Errno {
	cell, ok := h.CellByID(id)
	if !ok || cell.ID == 0 {
		return ENOENT
	}
	if cell.State == CellRunning {
		return EBUSY
	}
	cell.Guest = guest
	h.consolef("Cell \"%s\" can be loaded", cell.Name())
	return EOK
}

// AssignRootInmate attaches the root cell's OS (done at Enable time by
// the boot flow, before any hypercalls run).
func (h *Hypervisor) AssignRootInmate(guest Inmate) Errno {
	root := h.RootCell()
	if root == nil {
		return EINVAL
	}
	root.Guest = guest
	return EOK
}
