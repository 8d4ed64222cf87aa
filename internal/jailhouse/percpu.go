package jailhouse

import "fmt"

// percpuCanary is the integrity tag stored in every per-CPU block. The
// real Jailhouse locates per-CPU data by masking the HYP stack pointer;
// corruption that redirects that derivation shows up as writes landing in
// the wrong block. The canary models Jailhouse's implicit invariants
// (valid cell pointer, sane stack) as one explicit, checkable word.
const percpuCanary uint32 = 0x4A48_7043 // "JHpC"

// VMExit reason counters kept per CPU, mirroring Jailhouse's
// JAILHOUSE_CPU_STAT_* statistics.
type VMExit int

// VMExit reasons. ExitNone marks nested handler entries that must not
// re-count an already-counted exit (arch_handle_hvc is dispatched from
// arch_handle_trap, which counted it).
const (
	ExitNone  VMExit = -1
	ExitTotal VMExit = iota - 1
	ExitHVC
	ExitMMIO
	ExitPSCI
	ExitWFx
	ExitCP15
	ExitIRQ
	ExitUnhandled
	numExitReasons
)

var exitNames = [numExitReasons]string{
	"total", "hvc", "mmio", "psci", "wfx", "cp15", "irq", "unhandled",
}

// String returns the counter name.
func (v VMExit) String() string {
	if v >= 0 && int(v) < len(exitNames) {
		return exitNames[v]
	}
	return fmt.Sprintf("exit(%d)", int(v))
}

// PerCPU is the hypervisor's per-core control block.
type PerCPU struct {
	CPUID int

	// cell owning this CPU right now.
	cell *Cell

	// Parked: the core sits in the hypervisor's parking page
	// (cpu_park() was called). Cleared by CPU reset on cell start or
	// destroy.
	Parked bool

	// ParkReason records why the core was parked (e.g. the paper's
	// "unhandled trap exception, error code 0x24").
	ParkReason string

	// OnlineInCell: the core completed its reset handshake and is
	// executing guest code. False between CPU_OFF and cell start — the
	// "CPU fails to come online" state of experiment E2 is Parked=false,
	// OnlineInCell=false with the owning cell RUNNING.
	OnlineInCell bool

	// Stats counts VM exits by reason.
	Stats [numExitReasons]uint64

	// canary guards the block's integrity; checked on every handler
	// entry. Cross-CPU corruption (a flipped per-CPU derivation on the
	// other core) clears it, and the check escalates to panic_stop —
	// the mechanism behind the paper's system-wide "panic park".
	canary uint32
}

func newPerCPU(id int) *PerCPU {
	return &PerCPU{CPUID: id, canary: percpuCanary}
}

// IntegrityOK reports whether the block's canary is intact.
func (p *PerCPU) IntegrityOK() bool { return p.canary == percpuCanary }

// corrupt clobbers the canary, modelling a stray hypervisor write into
// this block.
func (p *PerCPU) corrupt() { p.canary = 0xDEADBEEF }

// repair restores the canary (CPU reset re-initialises per-CPU data).
func (p *PerCPU) repair() { p.canary = percpuCanary }

// count increments a VM-exit counter (plus the total). ExitNone counts
// nothing.
func (p *PerCPU) count(reason VMExit) {
	if reason == ExitNone {
		return
	}
	p.Stats[ExitTotal]++
	if reason > ExitTotal && reason < numExitReasons {
		p.Stats[reason]++
	}
}
