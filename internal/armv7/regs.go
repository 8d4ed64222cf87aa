// Package armv7 models the ARMv7-A architectural state relevant to a
// partitioning hypervisor built on the virtualization extensions: the
// general-purpose register file with per-mode banking, program status
// registers, the HYP-mode syndrome/return registers, and the PSCI call
// surface used for CPU hotplug.
//
// The model is functional, not cycle-accurate: it exists so the fault
// injector can flip bits in the same architectural locations the paper's
// injector targeted on the Cortex-A7, and so the hypervisor model consumes
// those locations through the same decode paths (HSR exception class,
// hypercall argument registers, banked SP) as Jailhouse's ARM port.
package armv7

import "fmt"

// Mode is an ARMv7 processor mode (the low five CPSR bits).
type Mode uint32

// ARMv7 processor modes.
const (
	ModeUSR Mode = 0x10
	ModeFIQ Mode = 0x11
	ModeIRQ Mode = 0x12
	ModeSVC Mode = 0x13
	ModeMON Mode = 0x16
	ModeABT Mode = 0x17
	ModeHYP Mode = 0x1A
	ModeUND Mode = 0x1B
	ModeSYS Mode = 0x1F
)

var modeNames = map[Mode]string{
	ModeUSR: "usr", ModeFIQ: "fiq", ModeIRQ: "irq", ModeSVC: "svc",
	ModeMON: "mon", ModeABT: "abt", ModeHYP: "hyp", ModeUND: "und", ModeSYS: "sys",
}

// String returns the conventional lowercase mode mnemonic.
func (m Mode) String() string {
	if s, ok := modeNames[m]; ok {
		return s
	}
	return fmt.Sprintf("mode(%#x)", uint32(m))
}

// CPSR bit positions (beyond the mode field).
const (
	CPSRThumb uint32 = 1 << 5  // T
	CPSRFIQ   uint32 = 1 << 6  // F: FIQ masked
	CPSRIRQ   uint32 = 1 << 7  // I: IRQ masked
	CPSRAbort uint32 = 1 << 8  // A: asynchronous abort masked
	CPSREndia uint32 = 1 << 9  // E
	CPSRFlagV uint32 = 1 << 28 // V
	CPSRFlagC uint32 = 1 << 29 // C
	CPSRFlagZ uint32 = 1 << 30 // Z
	CPSRFlagN uint32 = 1 << 31 // N
)

// Register indices for the 16 architecturally visible GPRs. SP, LR and PC
// are plain registers on ARM, which is exactly why the paper's "flip a
// random register" model can reach the stack pointer and program counter.
const (
	RegR0 = iota
	RegR1
	RegR2
	RegR3
	RegR4
	RegR5
	RegR6
	RegR7
	RegR8
	RegR9
	RegR10
	RegR11 // FP in the AAPCS frame-pointer convention
	RegR12 // IP, intra-procedure scratch
	RegSP  // r13
	RegLR  // r14
	RegPC  // r15
	NumRegs
)

// RegName returns the conventional name of GPR index i.
func RegName(i int) string {
	switch i {
	case RegSP:
		return "sp"
	case RegLR:
		return "lr"
	case RegPC:
		return "pc"
	default:
		if i >= 0 && i < NumRegs {
			return fmt.Sprintf("r%d", i)
		}
		return fmt.Sprintf("reg(%d)", i)
	}
}

// bankIndex maps every mode encoding to the bank of SP/LR it
// uses, -1 for encodings with no bank (a corrupted CPSR mode field).
// USR and SYS share one bank; every exception mode has its own. The
// bank order is VisitState's.
var bankIndex = func() (idx [32]int8) {
	for i := range idx {
		idx[i] = -1
	}
	for i, m := range []Mode{ModeUSR, ModeFIQ, ModeIRQ, ModeSVC, ModeMON, ModeABT, ModeHYP, ModeUND} {
		idx[m] = int8(i)
	}
	idx[ModeSYS] = idx[ModeUSR]
	return idx
}()

// bank holds the per-mode banked registers. The exception modes' own
// SPSRs are not modelled: HYP entry and ERET use SPSR_hyp.
type bank struct {
	sp, lr uint32
}

// CPU is the architectural state of one ARMv7-A core with the
// virtualization extensions.
type CPU struct {
	// Index is the linear CPU number (0-based); MPIDR affinity derives
	// from it.
	Index int

	// State is everything else: a restore assigns it, and two cores
	// are in the same architectural state iff their States are ==.
	State
}

// State is a core's whole architectural state — everything VisitState
// enumerates — as one comparable value.
type State struct {
	regs  [NumRegs]uint32
	cpsr  uint32
	banks [8]bank // indexed by bankIndex

	// fiqBank holds r8-r12 for FIQ mode (FIQ banks more registers).
	fiqBank   [5]uint32
	fiqShadow [5]uint32
	inFIQRegs bool

	// HYP-mode trap registers. The configuration, vector-base,
	// stage-2 base and remaining fault-address registers are not
	// modelled: nothing in the model writes them.
	ELRHyp  uint32 // preferred return address after a hyp trap
	SPSRHyp uint32 // saved guest CPSR at hyp entry
	HSR     uint32 // hyp syndrome register
	HDFAR   uint32 // hyp data fault address

	// Core identification.
	MIDR  uint32
	MPIDR uint32

	// Online mirrors the PSCI power state of the core: false after
	// CPU_OFF, true after reset or successful CPU_ON.
	Online bool

	// Parked is set by the hypervisor's cpu_park(): the core spins in a
	// parking page and executes no guest code until reset.
	Parked bool
}

// NewCPU returns a powered-on core in SVC mode with IRQ/FIQ masked, the
// state an ARMv7 core has right out of reset (before a boot ROM runs).
func NewCPU(index int) *CPU {
	c := &CPU{Index: index}
	c.Reset()
	return c
}

// Reset restores the core to its power-on state in place. NewCPU
// builds through it.
func (c *CPU) Reset() {
	c.State = State{
		cpsr: uint32(ModeSVC) | CPSRIRQ | CPSRFIQ | CPSRAbort,
		// Cortex-A7 MIDR: implementer 0x41 'A', architecture 0xF,
		// part number 0xC07.
		MIDR:   0x410FC075,
		MPIDR:  0x80000000 | uint32(c.Index), // U=0 multiprocessor, Aff0=index
		Online: c.Index == 0,                 // secondary cores wait for CPU_ON
	}
}

// bank returns the SP/LR bank mode m uses, nil when m has none.
func (c *CPU) bank(m Mode) *bank {
	if m >= Mode(len(bankIndex)) || bankIndex[m] < 0 {
		return nil
	}
	return &c.banks[bankIndex[m]]
}

// VisitState feeds every architectural state word of the core to f in a
// fixed order: current-mode GPRs, CPSR, all banked SP/LR copies,
// the FIQ high-register banks, the HYP trap registers, the
// identification registers and the power/park status. It exists
// for power-on-equivalence digests (core.Machine.StateDigest): a reset
// that forgets any of this state must be visible to the leak detector.
func (c *CPU) VisitState(f func(uint32)) {
	for _, r := range c.regs {
		f(r)
	}
	f(c.cpsr)
	for _, b := range c.banks {
		f(b.sp)
		f(b.lr)
	}
	for _, r := range c.fiqBank {
		f(r)
	}
	for _, r := range c.fiqShadow {
		f(r)
	}
	if c.inFIQRegs {
		f(1)
	} else {
		f(0)
	}
	f(c.ELRHyp)
	f(c.SPSRHyp)
	f(c.HSR)
	f(c.HDFAR)
	f(c.MIDR)
	f(c.MPIDR)
	if c.Online {
		f(1)
	} else {
		f(0)
	}
	if c.Parked {
		f(1)
	} else {
		f(0)
	}
}

// Mode returns the current processor mode from CPSR.
func (c *CPU) Mode() Mode { return Mode(c.cpsr & 0x1F) }

// CPSR returns the current program status register.
func (c *CPU) CPSR() uint32 { return c.cpsr }

// SetCPSR replaces CPSR, performing register re-banking if the mode field
// changed. Invalid target modes are still written (hardware would take an
// illegal-state exception).
func (c *CPU) SetCPSR(v uint32) {
	oldMode := c.Mode()
	newMode := Mode(v & 0x1F)
	if oldMode != newMode {
		c.rebank(oldMode, newMode)
	}
	c.cpsr = v
}

// SetMode switches processor mode preserving the other CPSR bits.
func (c *CPU) SetMode(m Mode) {
	c.SetCPSR((c.cpsr &^ 0x1F) | uint32(m))
}

// rebank saves the current SP/LR into the old mode's bank and loads the
// new mode's bank, handling FIQ's extended r8-r12 banking.
func (c *CPU) rebank(old, new Mode) {
	if ob := c.bank(old); ob != nil {
		ob.sp, ob.lr = c.regs[RegSP], c.regs[RegLR]
	}
	if nb := c.bank(new); nb != nil {
		c.regs[RegSP], c.regs[RegLR] = nb.sp, nb.lr
	}
	switch {
	case new == ModeFIQ && !c.inFIQRegs:
		copy(c.fiqShadow[:], c.regs[RegR8:RegR12+1])
		copy(c.regs[RegR8:RegR12+1], c.fiqBank[:])
		c.inFIQRegs = true
	case old == ModeFIQ && new != ModeFIQ && c.inFIQRegs:
		copy(c.fiqBank[:], c.regs[RegR8:RegR12+1])
		copy(c.regs[RegR8:RegR12+1], c.fiqShadow[:])
		c.inFIQRegs = false
	}
}

// Reg returns GPR i in the current mode. Out-of-range indices return 0.
func (c *CPU) Reg(i int) uint32 {
	if i < 0 || i >= NumRegs {
		return 0
	}
	return c.regs[i]
}

// SetReg writes GPR i in the current mode. Out-of-range indices are ignored.
func (c *CPU) SetReg(i int, v uint32) {
	if i < 0 || i >= NumRegs {
		return
	}
	c.regs[i] = v
}

// Regs returns a snapshot of the 16 current-mode GPRs.
func (c *CPU) Regs() [NumRegs]uint32 { return c.regs }

// SetRegs replaces all 16 current-mode GPRs (used on exception return,
// when the possibly-corrupted trap context is restored to the guest).
func (c *CPU) SetRegs(r [NumRegs]uint32) { c.regs = r }

// BankedSP returns mode m's banked stack pointer without switching modes.
func (c *CPU) BankedSP(m Mode) uint32 {
	if m == c.Mode() || c.bank(m) != nil && c.bank(m) == c.bank(c.Mode()) {
		return c.regs[RegSP]
	}
	if b := c.bank(m); b != nil {
		return b.sp
	}
	return 0
}

// SetBankedSP writes mode m's banked stack pointer without switching modes.
func (c *CPU) SetBankedSP(m Mode, v uint32) {
	if m == c.Mode() || c.bank(m) != nil && c.bank(m) == c.bank(c.Mode()) {
		c.regs[RegSP] = v
		return
	}
	if b := c.bank(m); b != nil {
		b.sp = v
	}
}

// EnterHyp performs the architectural part of a trap into HYP mode:
// saves the return address and guest CPSR, loads HSR with the syndrome,
// switches to HYP mode with IRQs masked.
func (c *CPU) EnterHyp(hsr, returnAddr uint32) {
	c.ELRHyp = returnAddr
	c.SPSRHyp = c.cpsr
	c.HSR = hsr
	c.SetMode(ModeHYP)
	c.cpsr |= CPSRIRQ | CPSRAbort
}

// ExitHyp performs ERET from HYP mode: restores the guest CPSR from
// SPSR_hyp and returns the resume address (ELR_hyp). The caller (the
// hypervisor model) is responsible for having written back any register
// changes first.
func (c *CPU) ExitHyp() (resumeAddr uint32) {
	resume := c.ELRHyp
	c.SetCPSR(c.SPSRHyp)
	c.regs[RegPC] = resume
	return resume
}

// String summarises the core state for traces.
func (c *CPU) String() string {
	state := "online"
	if !c.Online {
		state = "offline"
	}
	if c.Parked {
		state = "parked"
	}
	return fmt.Sprintf("cpu%d(%s,%s,pc=%#x)", c.Index, c.Mode(), state, c.regs[RegPC])
}
