package jailhouse

import (
	"errors"
	"fmt"
	"strings"

	"github.com/dessertlab/certify/internal/armv7"
	"github.com/dessertlab/certify/internal/board"
	"github.com/dessertlab/certify/internal/sim"
)

// InjectionPoint identifies one of the three instrumented hypervisor
// entry functions — the paper's candidate fault-injection points chosen
// by profiling golden runs.
type InjectionPoint int

// The instrumented functions.
const (
	PointTrap    InjectionPoint = iota + 1 // arch_handle_trap()
	PointHVC                               // arch_handle_hvc()
	PointIRQChip                           // irqchip_handle_irq()
)

// String returns the Jailhouse source-level function name.
func (p InjectionPoint) String() string {
	switch p {
	case PointTrap:
		return "arch_handle_trap"
	case PointHVC:
		return "arch_handle_hvc"
	case PointIRQChip:
		return "irqchip_handle_irq"
	default:
		return fmt.Sprintf("point(%d)", int(p))
	}
}

// Damage describes collateral corruption of live hypervisor state caused
// by an injection — the component of a register flip that hits hypervisor
// working registers rather than the saved guest frame (see the
// SensitivityProfile discussion in DESIGN.md).
type Damage uint8

// Damage levels.
const (
	// DamageNone: the flip affected only the saved guest frame.
	DamageNone Damage = iota
	// DamagePerCPU: a stray write corrupted this CPU's own per-CPU
	// block; detected by the integrity check on the next handler entry.
	DamagePerCPU
	// DamageCrossCPU: the per-CPU derivation was redirected into the
	// other core's block (the classic masked-stack-pointer failure);
	// detected when that core next enters the hypervisor.
	DamageCrossCPU
	// DamageHypAbort: the hypervisor itself faulted (wild pointer, bad
	// stack, corrupted return address) — immediate panic_stop.
	DamageHypAbort
)

// InjectionResult is what the entry hook reports back: which trap-context
// slots it flipped, plus any live-state damage.
type InjectionResult struct {
	Fields []armv7.Field
	Damage Damage
}

// EntryHook is the instrumentation seam at the entry of the three
// handlers. The fault injector mutates ctx in place and describes what it
// did. A nil hook (production configuration) costs one branch.
type EntryHook func(point InjectionPoint, cpu int, cell string, ctx *armv7.TrapContext) InjectionResult

// ErrNotEnabled is returned by operations requiring an enabled hypervisor.
var ErrNotEnabled = errors.New("jailhouse: hypervisor not enabled")

// Hypervisor is the partitioning hypervisor instance on one board.
type Hypervisor struct {
	brd *board.Board

	// hvState is the hypervisor's scalar state: a restore assigns it,
	// and a rejoin check compares it with ==.
	hvState

	cells  []*Cell // cells[0] is the root cell once enabled
	percpu []*PerCPU

	// Hook is the fault-injection seam (nil when not testing).
	Hook EntryHook

	// ConsoleLines accumulates the hypervisor's own console output.
	ConsoleLines []string

	// putcAccum buffers DEBUG_CONSOLE_PUTC bytes until newline.
	putcAccum []byte

	// ivshmem holds the registered inter-cell shared-memory links.
	ivshmem []*IvshmemLink

	// irqFrames and trapFrames are the per-CPU scratch trap frames of
	// the IRQ entry and the guest trap round trip.
	irqFrames, trapFrames scratchFrames

	// configBuf receives CELL_CREATE's config blob.
	configBuf [maxBlobSize]byte
}

// hvState is the hypervisor's state apart from its cell list, per-CPU
// blocks, console and ivshmem links, one comparable value.
type hvState struct {
	sysCfg *SystemConfig

	enabled  bool
	panicked bool
	panicMsg string

	nextCellID uint32

	// rootOfflined tracks CPUs the root cell has released via PSCI
	// CPU_OFF; only these may be donated to a new cell.
	rootOfflined cpuSet

	// fwTainted records that the hypervisor's private firmware region was
	// corrupted (a RAM fault into the control-block stratum). The next
	// handler entry executes the damaged code path and takes an internal
	// HYP-mode trap; hypTraps counts those events.
	fwTainted bool
	hypTraps  uint64
}

// New returns a hypervisor bound to a board, not yet enabled.
func New(b *board.Board) *Hypervisor {
	h := &Hypervisor{brd: b}
	for i := 0; i < board.NumCPUs; i++ {
		h.percpu = append(h.percpu, newPerCPU(i))
	}
	b.Handle(board.EvCellCPUBoot, func(cpu int32, cell uint64) { h.bootGuest(int(cpu), uint32(cell), true) })
	b.Handle(board.EvPSCIBoot, func(cpu int32, cell uint64) { h.bootGuest(int(cpu), uint32(cell), false) })
	// Interrupts route to HYP while the hypervisor is enabled.
	b.GIC.DeliverHook = func(cpu, irq int) {
		if h.enabled {
			h.IRQChipHandleIRQ(cpu)
		}
	}
	return h
}

// bootGuest runs a scheduled guest boot on cpu: the guest of cell id
// starts there unless the hypervisor panicked, the CPU left the cell's
// guest execution, or (unlessParked) the CPU was parked meanwhile. A
// cell destroyed before the boot fires boots nothing.
func (h *Hypervisor) bootGuest(cpu int, id uint32, unlessParked bool) {
	p := h.PerCPU(cpu)
	if h.panicked || !p.OnlineInCell || (unlessParked && p.Parked) {
		return
	}
	if cell, ok := h.CellByID(id); ok && cell.Guest != nil {
		cell.Guest.Boot(cpu)
	}
}

// Board returns the underlying board.
func (h *Hypervisor) Board() *board.Board { return h.brd }

// TaintFirmware marks the hypervisor's firmware region as corrupted (the
// RAM fault model's control-block stratum). The damage is latent: it
// manifests as an internal HYP-mode trap on the next handler entry.
func (h *Hypervisor) TaintFirmware(reason string) {
	if !h.fwTainted {
		h.fwTainted = true
		h.trace(sim.KindInjection, -1, "firmware region corrupted: %s", sim.Str(reason))
	}
}

// FirmwareTainted reports whether TaintFirmware was called since the last
// reset — observable state the equivalence digest covers.
func (h *Hypervisor) FirmwareTainted() bool { return h.fwTainted }

// HypTraps returns how many internal HYP-mode traps the corrupted
// firmware has produced.
func (h *Hypervisor) HypTraps() uint64 { return h.hypTraps }

// hypTrap models an unexpected exception inside the hypervisor itself:
// the HYP vector catches it, logs it, and parks the offending CPU — the
// recoverable-trap path, distinct from panic_stop's machine-wide death.
func (h *Hypervisor) hypTrap(cpu int, reason string) {
	h.hypTraps++
	h.consolef("Unhandled HYP trap on CPU %d: %s", cpu, reason)
	h.trace(sim.KindHypTrap, cpu, "internal HYP trap: %s", sim.Str(reason))
	h.cpuPark(cpu, "internal HYP trap")
}

// NextCellID returns the ID the next created cell would receive — part
// of the observable state the power-on-equivalence digest covers.
func (h *Hypervisor) NextCellID() uint32 { return h.nextCellID }

// OfflinedCPUs lists the CPUs the root cell has released via PSCI
// CPU_OFF, in ascending order — the hotplug pool a cell create draws
// from, and more state the equivalence digest must see.
func (h *Hypervisor) OfflinedCPUs() []int { return h.rootOfflined.list() }

// Enabled reports whether the hypervisor is active.
func (h *Hypervisor) Enabled() bool { return h.enabled }

// Panicked reports whether panic_stop fired, with the recorded reason.
func (h *Hypervisor) Panicked() (bool, string) { return h.panicked, h.panicMsg }

// PerCPU returns the per-CPU block for cpu (nil if out of range).
func (h *Hypervisor) PerCPU(cpu int) *PerCPU {
	if cpu < 0 || cpu >= len(h.percpu) {
		return nil
	}
	return h.percpu[cpu]
}

// RootCell returns the root cell (nil before Enable).
func (h *Hypervisor) RootCell() *Cell {
	if len(h.cells) == 0 {
		return nil
	}
	return h.cells[0]
}

// Cells returns all cells, root first.
func (h *Hypervisor) Cells() []*Cell {
	out := make([]*Cell, len(h.cells))
	copy(out, h.cells)
	return out
}

// Hosts reports whether guest is loaded into one of the cells.
func (h *Hypervisor) Hosts(guest Inmate) bool {
	for _, c := range h.cells {
		if c.Guest == guest {
			return true
		}
	}
	return false
}

// CellByID returns the cell with the given ID.
func (h *Hypervisor) CellByID(id uint32) (*Cell, bool) {
	for _, c := range h.cells {
		if c.ID == id {
			return c, true
		}
	}
	return nil, false
}

// CellByName returns the cell with the given name.
func (h *Hypervisor) CellByName(name string) (*Cell, bool) {
	for _, c := range h.cells {
		if c.Name() == name {
			return c, true
		}
	}
	return nil, false
}

// cellOf returns the cell owning cpu (nil before enable).
func (h *Hypervisor) cellOf(cpu int) *Cell {
	if p := h.PerCPU(cpu); p != nil {
		return p.cell
	}
	return nil
}

// cellNameOf is cellOf for trace labels.
func (h *Hypervisor) cellNameOf(cpu int) string {
	if c := h.cellOf(cpu); c != nil {
		return c.Name()
	}
	return "?"
}

// Enable installs the hypervisor: validates the system configuration,
// builds the root cell around the currently running OS and takes over the
// interrupt path. Mirrors "jailhouse enable sysconfig.cell".
func (h *Hypervisor) Enable(sysCfg *SystemConfig) Errno {
	if h.enabled {
		return EBUSY
	}
	if sysCfg == nil {
		return EINVAL
	}
	if err := sysCfg.Validate(); err != nil {
		h.consolef("invalid system config: %v", err)
		return EINVAL
	}
	root, err := newCell(0, &sysCfg.RootCell)
	if err != nil {
		h.consolef("root cell setup failed: %v", err)
		return EINVAL
	}
	root.State = CellRunning
	h.sysCfg = sysCfg
	h.cells = []*Cell{root}
	h.nextCellID = 1
	for _, p := range h.percpu {
		p.cell = root
		p.OnlineInCell = h.brd.CPUs[p.CPUID].Online
		p.repair()
	}
	h.enabled = true
	// Interrupts route to HYP from now on; the CPU interfaces of the
	// root cell's online cores are armed by the hypervisor.
	for _, p := range h.percpu {
		if p.OnlineInCell {
			h.brd.GIC.EnableCPUInterface(p.CPUID, true)
		}
	}
	h.consolef("Initializing Jailhouse hypervisor v0.12 on CPU %d", 0)
	h.consolef("Page pool usage after late commitment: mem %d/%d", 512, 16384)
	h.consolef("Activating hypervisor")
	h.trace(sim.KindBoot, 0, "hypervisor enabled, root cell %q", sim.Str(root.Name()))
	return EOK
}

// Disable removes the hypervisor. Only legal with no non-root cells,
// mirroring HYPERVISOR_DISABLE semantics.
func (h *Hypervisor) Disable() Errno {
	if !h.enabled {
		return EINVAL
	}
	if len(h.cells) > 1 {
		return EBUSY
	}
	h.enabled = false
	h.consolef("Shutting down hypervisor")
	return EOK
}

// consolef emits a hypervisor console line (Jailhouse's printk path).
func (h *Hypervisor) consolef(format string, args ...any) {
	line := format // a line with no verbs is its own text: no formatting
	if len(args) > 0 || strings.IndexByte(format, '%') >= 0 {
		line = fmt.Sprintf(format, args...)
	}
	h.ConsoleLines = append(h.ConsoleLines, line)
	h.trace(sim.KindNote, -1, "[JH] %s", sim.Str(line))
}

// trace appends to the board-wide event trace. Formatting is deferred:
// args must be sim.Int/sim.Uint/sim.Str values that render byte-identically
// to what the format verb would have produced on the original operand.
func (h *Hypervisor) trace(kind sim.Kind, cpu int, format string, args ...sim.Arg) {
	h.brd.Trace().Addf(h.brd.Now(), kind, cpu, format, args...)
}

// cpuPark implements cpu_park(): the core leaves guest execution and
// spins in the hypervisor's parking page. The owning cell's state is NOT
// changed — exactly the behaviour the paper flags as dangerous: Jailhouse
// still reports the cell as running.
func (h *Hypervisor) cpuPark(cpu int, reason string) {
	p := h.PerCPU(cpu)
	if p == nil || p.Parked {
		return
	}
	p.Parked = true
	p.ParkReason = reason
	p.OnlineInCell = false
	h.brd.CPUs[cpu].Parked = true
	h.consolef("Parking CPU %d (cell \"%s\")", cpu, h.cellNameOf(cpu))
	h.trace(sim.KindPark, cpu, "cpu_park: %s", sim.Str(reason))
	if c := h.cellOf(cpu); c != nil && c.Guest != nil {
		c.Guest.OnCPUParked(cpu)
	}
}

// panicStop implements panic_stop(): the hypervisor gives up, stopping
// every CPU. The whole machine — root Linux included — freezes, which the
// paper's classifier observes as the system-wide "panic park".
func (h *Hypervisor) panicStop(cpu int, reason string) {
	if h.panicked {
		return
	}
	h.panicked = true
	h.panicMsg = reason
	h.consolef("FATAL: %s", reason)
	h.consolef("Stopping CPU %d (Cell: \"%s\")", cpu, h.cellNameOf(cpu))
	h.trace(sim.KindPanic, cpu, "panic_stop: %s", sim.Str(reason))
	for _, p := range h.percpu {
		p.Parked = true
		p.OnlineInCell = false
	}
	h.brd.Engine.Halt("jailhouse panic_stop: " + reason)
}

// applyDamage realises the live-state component of an injection.
func (h *Hypervisor) applyDamage(cpu int, d Damage) {
	switch d {
	case DamagePerCPU:
		h.PerCPU(cpu).corrupt()
		h.trace(sim.KindInjection, cpu, "stray write corrupted own per-CPU block")
	case DamageCrossCPU:
		other := (cpu + 1) % len(h.percpu)
		h.PerCPU(other).corrupt()
		h.trace(sim.KindInjection, cpu, "per-CPU derivation redirected into cpu%d block", sim.Int(int64(other)))
	case DamageHypAbort:
		h.panicStop(cpu, fmt.Sprintf("unrecoverable abort in HYP mode on CPU %d", cpu))
	}
}

// enterHandler performs the common handler prologue: refuse work after a
// panic, verify per-CPU integrity (escalating the deferred cross-CPU
// corruption), count the exit, then run the injection hook.
// It reports whether the handler may proceed.
func (h *Hypervisor) enterHandler(point InjectionPoint, cpu int, reason VMExit, ctx *armv7.TrapContext) (InjectionResult, bool) {
	if h.panicked || !h.enabled {
		return InjectionResult{}, false
	}
	p := h.PerCPU(cpu)
	if p == nil {
		return InjectionResult{}, false
	}
	if !p.IntegrityOK() {
		h.panicStop(cpu, fmt.Sprintf("per-CPU data structure corrupted on CPU %d", cpu))
		return InjectionResult{}, false
	}
	if h.fwTainted && !p.Parked {
		h.hypTrap(cpu, "corrupted firmware text reached in handler prologue")
		return InjectionResult{}, false
	}
	p.count(reason)
	var res InjectionResult
	if h.Hook != nil {
		res = h.Hook(point, cpu, h.cellNameOf(cpu), ctx)
		if len(res.Fields) > 0 {
			h.trace(sim.KindInjection, cpu, "%s: injected %d flip(s)", sim.Str(point.String()), sim.Int(int64(len(res.Fields))))
		}
		if res.Damage != DamageNone {
			h.applyDamage(cpu, res.Damage)
			if h.panicked {
				return res, false
			}
		}
	}
	return res, true
}

// notifyCorruptedResume tells the guest when corrupted values actually
// reached its saved frame. With the written-slot merge discipline that
// happens only when a flipped slot was also handler-written — e.g. an
// MMIO read whose target-register decode was corrupted. Flips to
// unwritten live registers never propagate (the isolation property the
// merge establishes), so most injections produce no call here.
func (h *Hypervisor) notifyCorruptedResume(cpu int, ctx *armv7.TrapContext, res InjectionResult) {
	if len(res.Fields) == 0 || ctx == nil {
		return
	}
	c := h.cellOf(cpu)
	if c == nil || c.Guest == nil {
		return
	}
	var visible []int
	for _, f := range res.Fields {
		if int(f) < armv7.NumRegs && ctx.Written&(1<<uint(int(f))) != 0 {
			visible = append(visible, int(f))
		}
	}
	if len(visible) > 0 {
		c.Guest.OnCorruptedResume(cpu, visible)
	}
}
