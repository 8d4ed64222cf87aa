package armv7

import "fmt"

// TrapContext is the register frame a hypervisor saves on entry from a
// guest — the exact structure the paper's injector corrupts. It mirrors
// Jailhouse's per-CPU saved state on ARM: the 16 guest GPRs (the banked
// user-mode view), the syndrome register, the saved guest PSR, the
// preferred return address and the data fault address register.
//
// Everything the three instrumented handlers (ArchHandleTrap,
// ArchHandleHVC, IRQChipHandleIRQ) know about the interrupted guest flows
// through this structure, which is why register bit-flips at handler entry
// reproduce the paper's failure modes.
type TrapContext struct {
	Regs  [NumRegs]uint32 // guest r0-r12, sp, lr, pc at trap time
	HSR   uint32          // syndrome: why we trapped
	SPSR  uint32          // guest CPSR at trap time
	ELR   uint32          // preferred return address
	HDFAR uint32          // faulting virtual address (data aborts)

	// CPUID is the hypervisor's cached linear CPU number for this frame.
	// Jailhouse derives its per-CPU data pointer from the HYP stack
	// pointer; corrupting the frame's notion of "which CPU am I" is the
	// mechanism behind cross-CPU state corruption (panic park).
	CPUID uint32

	// Written is a bitmask of GPR slots the handler legitimately wrote
	// (hypercall results, MMIO read data, emulated system registers).
	// Exception return merges exactly these slots into the guest frame:
	// an injector corrupting the handler's *live* registers therefore
	// cannot reach the guest's saved state except through a written
	// slot — which is why the paper's E1 sees clean EINVAL failures and
	// never a corrupted root kernel.
	Written uint32
}

// WriteReg records a legitimate handler write to GPR slot i.
func (tc *TrapContext) WriteReg(i int, v uint32) {
	if i < 0 || i >= NumRegs {
		return
	}
	tc.Regs[i] = v
	tc.Written |= 1 << uint(i)
}

// MergeWritten folds the handler's legitimate writes (and the advanced
// return state) into the pristine pre-trap frame, returning the frame to
// restore to the guest.
func (tc *TrapContext) MergeWritten(pre TrapContext) TrapContext {
	out := pre
	for i := 0; i < NumRegs; i++ {
		if tc.Written&(1<<uint(i)) != 0 {
			out.Regs[i] = tc.Regs[i]
		}
	}
	out.ELR = tc.ELR // the handler owns the resume address
	return out
}

// CaptureContext builds a TrapContext from the live CPU state at HYP entry.
func CaptureContext(c *CPU) TrapContext {
	return TrapContext{
		Regs:  c.Regs(),
		HSR:   c.HSR,
		SPSR:  c.SPSRHyp,
		ELR:   c.ELRHyp,
		HDFAR: c.HDFAR,
		CPUID: uint32(c.Index),
	}
}

// Restore writes the (possibly modified) context back to the CPU prior to
// exception return, mirroring the hypervisor's register-restore path. The
// guest resumes with whatever is in the frame — corrupted or not.
func (tc *TrapContext) Restore(c *CPU) {
	c.SetRegs(tc.Regs)
	c.SPSRHyp = tc.SPSR
	c.ELRHyp = tc.ELR
}

// Field identifies one 32-bit slot of the trap context addressable by the
// fault injector. Slots 0..15 are the GPRs; the named constants address
// the control fields.
type Field int

// Injectable context fields beyond the 16 GPRs.
const (
	FieldHSR Field = NumRegs + iota
	FieldSPSR
	FieldELR
	FieldHDFAR
	FieldCPUID
	NumFields // total addressable 32-bit slots
)

// FieldName returns a human-readable name for an injectable slot.
func FieldName(f Field) string {
	switch {
	case int(f) < NumRegs:
		return RegName(int(f))
	case f == FieldHSR:
		return "hsr"
	case f == FieldSPSR:
		return "spsr"
	case f == FieldELR:
		return "elr"
	case f == FieldHDFAR:
		return "hdfar"
	case f == FieldCPUID:
		return "cpuid"
	default:
		return fmt.Sprintf("field(%d)", int(f))
	}
}

// Get reads an injectable slot.
func (tc *TrapContext) Get(f Field) uint32 {
	switch {
	case int(f) < NumRegs && f >= 0:
		return tc.Regs[f]
	case f == FieldHSR:
		return tc.HSR
	case f == FieldSPSR:
		return tc.SPSR
	case f == FieldELR:
		return tc.ELR
	case f == FieldHDFAR:
		return tc.HDFAR
	case f == FieldCPUID:
		return tc.CPUID
	default:
		return 0
	}
}

// Set writes an injectable slot.
func (tc *TrapContext) Set(f Field, v uint32) {
	switch {
	case int(f) < NumRegs && f >= 0:
		tc.Regs[f] = v
	case f == FieldHSR:
		tc.HSR = v
	case f == FieldSPSR:
		tc.SPSR = v
	case f == FieldELR:
		tc.ELR = v
	case f == FieldHDFAR:
		tc.HDFAR = v
	case f == FieldCPUID:
		tc.CPUID = v
	}
}

// FlipBit XORs a single bit of slot f. It is its own inverse, a property
// the injection tests rely on.
func (tc *TrapContext) FlipBit(f Field, bit uint) {
	tc.Set(f, tc.Get(f)^(1<<(bit%32)))
}
