// Package rootlinux models the root cell of the paper's deployment: a
// general-purpose Linux (v5.10, Jailhouse-patched) that boots on the
// board, loads the jailhouse driver, and drives the cell lifecycle from
// userspace — create, load, start, state queries, shutdown, destroy. Its
// console (UART0) carries the kernel log, including the "Kernel panic"
// line that marks the paper's system-wide failure mode.
//
// The model is control-flow level: the pieces that matter to the
// experiments are (a) the hypercall/PSCI sequences the driver issues,
// (b) the background trap/IRQ stream of a live kernel, and (c) the
// register image that maps architectural corruption to an oops/panic.
package rootlinux

import (
	"fmt"

	"github.com/dessertlab/certify/internal/armv7"
	"github.com/dessertlab/certify/internal/board"
	"github.com/dessertlab/certify/internal/gic"
	"github.com/dessertlab/certify/internal/jailhouse"
	"github.com/dessertlab/certify/internal/sim"
	"github.com/dessertlab/certify/internal/uart"
)

// Kernel timing parameters.
const (
	schedTickPeriod = 4 * sim.Millisecond   // CONFIG_HZ=250
	stateQueryEvery = 500 * sim.Millisecond // watchdog "jailhouse cell state"
	// Steady-state Linux touches the trapped distributor rarely — IRQ
	// affinity rebalancing, not per-tick work (GICC accesses never trap).
	housekeepEvery = 10 * sim.Second
)

// Register image sensitivity: Linux interacts with the hypervisor from
// ioctl context where most registers are reloaded from the kernel stack
// afterwards, so per-flip fatality is low — which is exactly why the
// paper's E1 high-intensity runs see clean EINVAL failures instead of
// root crashes.
const (
	pOopsControl = 0.25 // sp/lr/pc flip actually derails the kernel
	pOopsData    = 0.02 // callee-saved data flip reaches a live pointer
)

// Linux is the root-cell guest.
type Linux struct {
	hv  *jailhouse.Hypervisor
	brd *board.Board

	// state is the guest's scalar state: a restore assigns it, and a
	// rejoin check compares it with ==.
	state

	// cancelBg holds the periodic background events (housekeeping,
	// state watchdog, recreate loop) that a panic or shutdown stops.
	cancelBg []sim.Event

	// makeInmate builds each recreate cycle's guest.
	makeInmate func() jailhouse.Inmate
}

// state is the root-cell guest's state apart from its background
// events, one comparable value.
type state struct {
	booted   bool
	paniced  bool
	panicWhy string

	// recreateCfg is the cell configuration the E1 recreate loop
	// creates each cycle (nil when no loop was started).
	recreateCfg *jailhouse.CellConfig

	// CellID of the managed non-root cell (set by CellCreate).
	CellID uint32

	// LastState is the most recent GET_STATE answer.
	LastState jailhouse.CellState

	// LastStartAt records when the managed cell last started — the
	// classifier uses it to distinguish "ran, then died" from "never
	// came up".
	LastStartAt sim.Time
}

var _ jailhouse.Inmate = (*Linux)(nil)

// New returns the root Linux model bound to the hypervisor's board.
func New(hv *jailhouse.Hypervisor) *Linux {
	l := &Linux{hv: hv, brd: hv.Board()}
	l.brd.Handle(board.EvLinuxHousekeep, func(int32, uint64) { l.housekeep() })
	l.brd.Handle(board.EvLinuxStateQuery, func(int32, uint64) { l.queryState() })
	l.brd.Handle(board.EvLinuxRecreate, func(int32, uint64) { l.recreate() })
	return l
}

// Name implements jailhouse.Inmate.
func (l *Linux) Name() string { return "Linux-5.10-jailhouse" }

// Snapshot is a copy of the root-cell guest's state. The background
// events are Event handles into the engine slab; the engine snapshot
// restores slot generations exactly, so the captured handles stay valid
// after a restore.
type Snapshot struct {
	state
	cancelBg []sim.Event
}

// CaptureSnapshot copies the guest state.
func (l *Linux) CaptureSnapshot() *Snapshot {
	return &Snapshot{l.state, append([]sim.Event(nil), l.cancelBg...)}
}

// RestoreSnapshot rewinds the guest to a captured state in place.
func (l *Linux) RestoreSnapshot(s *Snapshot) {
	l.state = s.state
	l.cancelBg = append(l.cancelBg[:0], s.cancelBg...)
}

// Matches reports whether the guest state equals the snapshot's; same
// compares a live background-event handle with a captured one.
func (l *Linux) Matches(s *Snapshot, same func(live, golden sim.Event) bool) bool {
	if l.state != s.state || len(l.cancelBg) != len(s.cancelBg) {
		return false
	}
	for i, ev := range l.cancelBg {
		if !same(ev, s.cancelBg[i]) {
			return false
		}
	}
	return true
}

// Panicked reports whether the root kernel died, and why.
func (l *Linux) Panicked() (bool, string) { return l.paniced, l.panicWhy }

// console writes a kernel-log line to UART0.
func (l *Linux) console(format string, args ...any) {
	if l.paniced {
		return
	}
	s := fmt.Sprintf(format, args...)
	for i := 0; i < len(s); i++ {
		_ = l.hv.GuestWrite32(0, board.UART0Base+uart.RegTHR, uint32(s[i]))
	}
	_ = l.hv.GuestWrite32(0, board.UART0Base+uart.RegTHR, uint32('\n'))
}

// Boot implements jailhouse.Inmate: boot chatter, driver load, and the
// background activity that gives CPU 0 its steady trap/IRQ stream.
func (l *Linux) Boot(cpu int) {
	if l.booted || cpu != 0 {
		// Secondary CPUs rejoining the root cell (after cell destroy)
		// just log.
		l.console("smpboot: CPU%d is up", cpu)
		return
	}
	l.booted = true
	l.console("Booting Linux on physical CPU 0x0")
	l.console("Linux version 5.10.0-jailhouse (gcc 9.3.0) #1 SMP")
	l.console("Machine model: LeMaker Banana Pi")
	l.console("jailhouse: loading out-of-tree module taints kernel.")

	// Kernel GIC bring-up: trapped distributor writes on CPU 0.
	for w := 0; w < gic.MaxIRQ/8; w += 4 {
		_ = l.hv.GuestWrite32(0, board.GICDBase+gic.GICDIPriorityr+uint64(w), 0xA0A0A0A0)
	}
	_ = l.hv.GuestWrite32(0, board.GICDBase+gic.GICDISEnabler, 1<<gic.IRQVirtualTimer)
	word := board.IRQUart0 / 32
	_ = l.hv.GuestWrite32(0, board.GICDBase+gic.GICDISEnabler+uint64(4*word), 1<<uint(board.IRQUart0%32))
	_ = l.hv.GuestWrite32(0, board.GICDBase+gic.GICDCtlr, 1)

	l.brd.StartTimer(0, schedTickPeriod)

	// Background housekeeping: periodic distributor reads, the
	// steady-state ArchHandleTrap stream on CPU 0 for E1-class plans.
	l.cancelBg = append(l.cancelBg, l.brd.Engine.Every(housekeepEvery, board.EvLinuxHousekeep, 0, 0))
	l.console("VFS: Mounted root (ext4 filesystem) readonly on device 179:2.")
}

// housekeep is one background distributor read.
func (l *Linux) housekeep() {
	if !l.paniced {
		_, _ = l.hv.GuestRead32(0, board.GICDBase+gic.GICDISEnabler)
	}
}

// OnIRQ implements jailhouse.Inmate: timer ticks and UART interrupts.
func (l *Linux) OnIRQ(cpu, irq int) {
	// Scheduler ticks need no modelled work; the stream itself is what
	// matters to the injector.
	_ = cpu
	_ = irq
}

// OnCPUParked implements jailhouse.Inmate.
func (l *Linux) OnCPUParked(cpu int) {
	l.console("CPU%d: parked by hypervisor", cpu)
}

// OnShutdown implements jailhouse.Inmate.
func (l *Linux) OnShutdown() {
	l.stopBackground()
}

// stopBackground cancels the periodic background events.
func (l *Linux) stopBackground() {
	for _, ev := range l.cancelBg {
		ev.Cancel()
	}
	l.cancelBg = l.cancelBg[:0]
}

// OnCorruptedResume implements jailhouse.Inmate: the Linux register
// image. Control-flow corruption can oops the kernel; data corruption
// rarely does (ioctl path reloads registers from the stack).
func (l *Linux) OnCorruptedResume(cpu int, fields []int) {
	if l.paniced {
		return
	}
	rng := l.brd.Engine.RNG()
	for _, f := range fields {
		fatal := false
		switch {
		case f == armv7.RegSP || f == armv7.RegLR || f == armv7.RegPC ||
			f == int(armv7.FieldELR) || f == int(armv7.FieldSPSR):
			fatal = rng.Bool(pOopsControl)
		case f >= armv7.RegR4 && f <= armv7.RegR11:
			fatal = rng.Bool(pOopsData)
		}
		if fatal {
			l.oops(cpu, armv7.FieldName(armv7.Field(f)))
			return
		}
	}
}

// KernelTextFault models a RAM fault landing in the root kernel's text:
// the next instruction fetch through the damaged cache line executes
// garbage and the kernel oopses — the same death rattle as fatal register
// corruption, attributed to the faulted address.
func (l *Linux) KernelTextFault(addr uint64) {
	if l.paniced || !l.booted {
		return
	}
	l.oops(0, fmt.Sprintf("text@%#x", addr))
}

// oops prints the kernel's death rattle and stops root activity. The
// hypervisor survives a root *guest* crash — but every management
// operation is gone with the root cell, so the run is over for the
// classifier (system failure).
func (l *Linux) oops(cpu int, reg string) {
	l.console("Internal error: Oops - undefined instruction: 0 [#1] SMP ARM")
	l.console("PC is at 0x%08x (corrupted %s)", 0xbf000000+l.brd.Engine.RNG().Uint32()%0xFFFF, reg)
	l.console("Kernel panic - not syncing: Fatal exception in interrupt")
	l.paniced = true
	l.panicWhy = "register corruption (" + reg + ")"
	l.stopBackground()
	l.brd.StopTimer(0)
	l.brd.Trace().Addf(l.brd.Now(), sim.KindPanic, cpu, "root kernel panic: corrupted %s", sim.Str(reg))
}
