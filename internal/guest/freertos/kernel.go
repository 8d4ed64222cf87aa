// Package freertos models a FreeRTOS-class real-time kernel running as a
// Jailhouse inmate: a preemptive priority scheduler with round-robin
// time-slicing, delayed-task lists, blocking queues, a 1 kHz tick from
// the virtual timer, and the paper's exact workload — one LED-blink task,
// a send/receive pair, two floating-point tasks and fifteen integer
// tasks.
//
// The kernel also defines the cell's *register image*: the documented
// mapping from architectural registers to kernel state that determines
// how a corrupted register frame restored by the hypervisor becomes an
// OS-level failure (task assert, kernel assert, stack-check failure or a
// wild jump that ends in a hypervisor-parked CPU).
package freertos

import (
	"bytes"
	"fmt"
	"math/bits"
	"slices"

	"github.com/dessertlab/certify/internal/armv7"
	"github.com/dessertlab/certify/internal/board"
	"github.com/dessertlab/certify/internal/gic"
	"github.com/dessertlab/certify/internal/jailhouse"
	"github.com/dessertlab/certify/internal/sim"
	"github.com/dessertlab/certify/internal/uart"
)

// Kernel configuration, FreeRTOSConfig.h-style.
const (
	TickRateHz     = 1000 // configTICK_RATE_HZ
	MaxPriorities  = 8    // configMAX_PRIORITIES
	IdlePriority   = 0
	tickPeriod     = sim.Second / TickRateHz
	housekeepTicks = 500 // distributor hygiene cadence: ~2 traps/s steady
	stackCanary    = 0xA5A5A5A5

	// maxTasks bounds the task arena: a task id is a bit position in the
	// per-priority ready sets.
	maxTasks = 32
	// noTask is the id of no task: no current task yet, no idle task.
	noTask = 0xFF
)

// TaskState is a task's scheduling state.
type TaskState uint8

// Task states.
const (
	StateReady TaskState = iota + 1
	StateRunning
	StateBlocked
	StateDelayed
	StateSuspended
)

// StepFunc performs one time-slice of a task's work. Returning false
// suspends the task permanently (task exit).
type StepFunc func(k *Kernel, t *TCB) bool

// TCB is a task control block.
type TCB struct {
	// tcbState is the block's content: a rejoin check compares it
	// with ==.
	tcbState

	step StepFunc

	// id is the block's slot in the kernel's task arena.
	id uint8
}

// tcbState is a task control block's content apart from its step
// function, one comparable value.
type tcbState struct {
	Name     string
	Priority int
	// State is written only through Kernel.setState, which keeps the
	// ready sets and the wake list in step with it.
	State TaskState

	wakeTick uint64

	// Working registers of the task — the state mapped onto r8-r11 in
	// the register image. Tasks keep checksums here; corruption is
	// detected by the tasks themselves (configASSERT style).
	Work [4]uint32

	// stackGuard models the stack canary checked at context switch.
	stackGuard uint32

	// Asserted is set once the task failed its own invariant check and
	// was suspended.
	Asserted bool

	// locals is the task body's own working state — loop counters and
	// sequence numbers. It lives in the control block, not in the step
	// closure, so the closure is immutable and a kernel snapshot is a
	// plain by-value copy at any instant.
	locals [2]uint32
}

// Locals returns the task body's working state (for the machine-level
// state digest).
func (t *TCB) Locals() [2]uint32 { return t.locals }

// Kernel is one FreeRTOS instance bound to a cell CPU.
type Kernel struct {
	hv  *jailhouse.Hypervisor
	brd *board.Board

	// kernelState is the scheduler's scalar state: a restore assigns
	// it, and a rejoin check compares it with ==.
	kernelState

	// tasks is the task arena in creation order: task id i is tasks[i],
	// and ids below nTasks are live. A DeepReset keeps every block, and
	// CreateTask hands slot i to the i-th task created, so a reinstalled
	// workload gets the same block for the same task and rebuilds
	// allocation-free.
	tasks []*TCB

	// queues registered for corruption bookkeeping.
	queues []*Queue

	// queuePool recycles queue blocks across DeepReset cycles: NewQueue
	// draws from it instead of allocating.
	queuePool []*Queue
}

// kernelState is a kernel's state apart from its task content and queue
// lists, one comparable value.
type kernelState struct {
	cpu int
	// cur and idle are task ids: the running task and the idle task
	// (noTask when none).
	cur, idle uint8

	// nTasks is the number of live tasks. order[:nTasks] is their
	// round-robin order: the scheduler runs the first id whose bit is
	// set in the top non-empty ready set and moves it to the back.
	nTasks uint8
	order  [maxTasks]uint8
	// ready holds, per priority, one bit for every Ready or Running
	// task id; bit p of readyPrios is set when ready[p] is not empty
	// (FreeRTOS's uxTopReadyPriority bitmap).
	ready      [MaxPriorities]uint32
	readyPrios uint8
	// wake[:nWake] lists the Delayed task ids ordered by (wakeTick, id).
	wake  [maxTasks]uint8
	nWake uint8

	tick       uint64
	started    bool
	halted     bool
	haltReason string

	// wildJump is armed when control-flow registers were corrupted: the
	// next slice fetches from a garbage address instead of running,
	// which the hypervisor turns into an unhandled prefetch abort.
	wildJump     bool
	wildJumpAddr uint64

	// stackSmashed is armed when the stack pointer was corrupted; the
	// check fires at the next context switch.
	stackSmashed bool

	// ContextSwitches counts scheduler switches; the stats task prints
	// it, so it stays in the comparable state.
	ContextSwitches uint64
}

// NewKernel returns a kernel for the given cell CPU. Call through
// jailhouse.LoadInmate; the hypervisor invokes Boot when the cell starts.
func NewKernel(hv *jailhouse.Hypervisor, cpu int) *Kernel {
	return &Kernel{hv: hv, brd: hv.Board(), kernelState: freshState(cpu)}
}

// freshState is the state of a kernel with no tasks bound to cell CPU
// cpu.
func freshState(cpu int) kernelState {
	return kernelState{cpu: cpu, cur: noTask, idle: noTask}
}

var _ jailhouse.Inmate = (*Kernel)(nil)

// DeepReset restores the kernel to the state NewKernel establishes, in
// place: no tasks, no queues, tick zero, scheduler not started, no armed
// corruption (wild jump / smashed stack) and zeroed statistics. Task
// control blocks stay in the arena and queue blocks go to the queue
// pool, so re-installing a workload on a deep-reset kernel performs no
// steady-state allocation. The hypervisor binding survives; cpu rebinds
// the cell CPU.
//
// It serves the machine's kernel arena (core's Machine.newRTOS), which
// hands a deep-reset kernel to a cell load whenever the arena already
// holds one at its position — loads past a restored checkpoint's arena
// position, such as E1 recreate cycles. Machines themselves are
// recycled by snapshot restore.
func (k *Kernel) DeepReset(cpu int) {
	for _, t := range k.tasks {
		*t = TCB{} // release the step closure
	}
	for _, q := range k.queues {
		q.recycle()
		k.queuePool = append(k.queuePool, q)
	}
	k.queues = k.queues[:0]
	k.kernelState = freshState(cpu)
}

// KernelSnapshot is a copy of a kernel at any instant: its scalar
// state, the content of every live task by id, private copies of its
// queue and recycling lists, and the queues' content with private
// copies of their buffers and waiter lists. Tasks are captured by arena
// slot, queues by pointer plus content — step closures and queue waiter
// lists hold those pointers, so restoring content into the same objects
// keeps them valid. A block's step closure is restored with its content
// but carries no mutable state (it lives in TCB.locals), which is what
// makes a mid-run capture admissible.
type KernelSnapshot struct {
	kernelState
	queues, queuePool []*Queue
	tcbs              []TCB   // content of task id i
	queueImgs         []Queue // content of queues[i]
}

// CaptureSnapshot copies the kernel state.
func (k *Kernel) CaptureSnapshot() KernelSnapshot {
	s := KernelSnapshot{
		kernelState: k.kernelState,
		queues:      slices.Clone(k.queues),
		queuePool:   slices.Clone(k.queuePool),
		tcbs:        make([]TCB, k.nTasks),
		queueImgs:   make([]Queue, len(k.queues)),
	}
	for i, t := range k.tasks[:k.nTasks] {
		s.tcbs[i] = *t
	}
	for i, q := range k.queues {
		s.queueImgs[i] = Queue{q.queueState, slices.Clone(q.buf), slices.Clone(q.sendWaiters), slices.Clone(q.recvWaiters)}
	}
	return s
}

// RestoreSnapshot rewinds the kernel to a captured state in place. Every
// slice is copied into the kernel's own backing arrays, never aliased
// with the snapshot's, so the run that follows cannot write into the
// image through an append.
func (k *Kernel) RestoreSnapshot(s KernelSnapshot) {
	clear(k.queues)
	k.kernelState = s.kernelState
	for len(k.tasks) < len(s.tcbs) {
		k.tasks = append(k.tasks, &TCB{})
	}
	for i := range s.tcbs {
		*k.tasks[i] = s.tcbs[i]
	}
	k.queues = append(k.queues[:0], s.queues...)
	k.queuePool = append(k.queuePool[:0], s.queuePool...)
	for i, q := range k.queues {
		img := &s.queueImgs[i]
		q.queueState = img.queueState
		q.buf = append(q.buf[:0], img.buf...)
		q.sendWaiters = append(q.sendWaiters[:0], img.sendWaiters...)
		q.recvWaiters = append(q.recvWaiters[:0], img.recvWaiters...)
	}
}

// Matches reports whether the kernel — scheduler state and task order,
// every live task's content, the queue lists and every queue's buffer
// and waiters — equals the snapshot's. Step functions are not
// compared: a task's step is fixed when it is created.
func (k *Kernel) Matches(s KernelSnapshot) bool {
	if k.kernelState != s.kernelState || !slices.Equal(k.queues, s.queues) || !slices.Equal(k.queuePool, s.queuePool) {
		return false
	}
	for i, t := range k.tasks[:k.nTasks] {
		if t.tcbState != s.tcbs[i].tcbState {
			return false
		}
	}
	for i, q := range k.queues {
		img := &s.queueImgs[i]
		if q.queueState != img.queueState || !slices.Equal(q.buf, img.buf) ||
			!slices.Equal(q.sendWaiters, img.sendWaiters) || !slices.Equal(q.recvWaiters, img.recvWaiters) {
			return false
		}
	}
	return true
}

// Name implements jailhouse.Inmate.
func (k *Kernel) Name() string { return "FreeRTOS" }

// Halted reports whether the kernel stopped itself (assert/stack check),
// with the reason.
func (k *Kernel) Halted() (bool, string) { return k.halted, k.haltReason }

// Tick returns the current tick count.
func (k *Kernel) Tick() uint64 { return k.tick }

// Tasks returns the live tasks in round-robin order (for tests, reports
// and the machine-level state digest).
func (k *Kernel) Tasks() []*TCB {
	out := make([]*TCB, k.nTasks)
	for i, id := range k.order[:k.nTasks] {
		out[i] = k.tasks[id]
	}
	return out
}

// Queues returns the registered queues (for tests and the machine-level
// state digest).
func (k *Kernel) Queues() []*Queue {
	out := make([]*Queue, len(k.queues))
	copy(out, k.queues)
	return out
}

// CorruptRandomTCB damages one random task control block in place — the
// RAM fault model's guest-heap stratum. Most draws flip a bit in a
// working register, which the task's own configASSERT-style checks catch
// (task assert, silent degradation); a low draw smashes the stack canary,
// which the scheduler's context-switch check escalates to a kernel-level
// assert. Returns a description of the damage for the injection log.
func (k *Kernel) CorruptRandomTCB(rng *sim.RNG) string {
	if k.nTasks == 0 {
		return "no tasks to corrupt"
	}
	t := k.tasks[k.order[rng.Intn(int(k.nTasks))]]
	if rng.Bool(0.25) {
		t.stackGuard ^= 1 << uint(rng.Intn(32))
		return "stack canary of task " + t.Name
	}
	slot := rng.Intn(len(t.Work))
	t.Work[slot] ^= 1 << uint(rng.Intn(32))
	return fmt.Sprintf("work register %d of task %s", slot, t.Name)
}

// CreateTask registers a task. Must be called before Boot completes
// (tasks created later are accepted but start on the next tick).
func (k *Kernel) CreateTask(name string, priority int, step StepFunc) *TCB {
	if priority < 0 {
		priority = 0
	}
	if priority >= MaxPriorities {
		priority = MaxPriorities - 1
	}
	id := k.nTasks
	if id == maxTasks {
		panic(fmt.Sprintf("freertos: more than %d tasks", maxTasks))
	}
	if int(id) == len(k.tasks) {
		k.tasks = append(k.tasks, &TCB{})
	}
	t := k.tasks[id]
	*t = TCB{tcbState: tcbState{
		Name:       name,
		Priority:   priority,
		stackGuard: stackCanary,
	}, step: step, id: id}
	k.order[id] = id // ids below id fill order[:id]: append at the back
	k.nTasks++
	k.setState(t, StateReady)
	return t
}

// putString writes to the cell's console UART through the guest port —
// a direct-assigned device, so no trap is generated, exactly like the
// real inmate's memory-mapped UART.
func (k *Kernel) putString(s string) {
	for i := 0; i < len(s); i++ {
		_ = k.hv.GuestWrite32(k.cpu, board.UART7Base+uart.RegTHR, uint32(s[i]))
	}
}

// Printf prints a line to the cell console.
func (k *Kernel) Printf(format string, args ...any) {
	if k.halted {
		return
	}
	k.putString(fmt.Sprintf(format, args...))
}

// Boot implements jailhouse.Inmate: the inmate's startup — banner,
// interrupt controller setup (a burst of trapped GICD accesses, the E2
// injection window), timer programming, then the scheduler starts.
func (k *Kernel) Boot(cpu int) {
	if k.started {
		return
	}
	k.cpu = cpu
	k.putString("FreeRTOS V10.4.3 on Jailhouse cell\r\n")

	// Identify the core the way a real port's startup does: trapped
	// CP15 reads of the ID registers (more trap-class variety in the
	// boot window the E2 injections strike).
	midr := k.hv.GuestMRC(k.cpu, armv7.CP15MIDR)
	mpidr := k.hv.GuestMRC(k.cpu, armv7.CP15MPIDR)
	k.Printf("core: midr=%08x mpidr=%08x\r\n", midr, mpidr)
	if k.dead() {
		return
	}

	// GIC distributor initialisation: priority grid and interrupt
	// enables, register by register. Every access traps into
	// ArchHandleTrap for emulation. A corrupted boot access can park
	// the CPU or derail the loop — then the cell never speaks: the
	// paper's blank-USART state.
	for w := 0; w < gic.MaxIRQ; w += 4 {
		k.gicdWrite(uint64(gic.GICDIPriorityr+w), 0xA0A0A0A0)
		if k.dead() {
			return
		}
	}
	k.gicdWrite(gic.GICDISEnabler, 1<<gic.IRQVirtualTimer|1<<0) // timer PPI + start SGI
	word := board.IRQUart7 / 32
	k.gicdWrite(uint64(gic.GICDISEnabler+4*word), 1<<uint(board.IRQUart7%32))
	k.gicdWrite(gic.GICDCtlr, 1)
	if k.dead() {
		return
	}

	// Program the (untrapped) per-CPU virtual timer: the 1 kHz tick.
	k.brd.StartTimer(k.cpu, tickPeriod)

	k.idle = k.CreateTask("IDLE", IdlePriority, func(*Kernel, *TCB) bool { return true }).id
	k.started = true
	k.putString("Scheduler started\r\n")
}

// dead reports whether the kernel's CPU can no longer run guest code.
func (k *Kernel) dead() bool {
	p := k.hv.PerCPU(k.cpu)
	if p == nil {
		return true
	}
	if halted, _ := k.brd.Engine.Halted(); halted {
		return true
	}
	return p.Parked || k.halted
}

// gicdWrite performs one trapped distributor write.
func (k *Kernel) gicdWrite(off uint64, v uint32) {
	_ = k.hv.GuestWrite32(k.cpu, board.GICDBase+off, v)
}

// gicdRead performs one trapped distributor read.
func (k *Kernel) gicdRead(off uint64) uint32 {
	v, _ := k.hv.GuestRead32(k.cpu, board.GICDBase+off)
	return v
}

// OnIRQ implements jailhouse.Inmate: virtual IRQ delivery.
func (k *Kernel) OnIRQ(cpu, irq int) {
	if k.halted {
		return
	}
	switch irq {
	case gic.IRQVirtualTimer:
		k.onTick()
	case board.IRQUart7:
		// console interrupt: nothing pending in this model
	default:
		k.Printf("unexpected IRQ %d\r\n", irq)
	}
}

// onTick is the tick ISR plus the scheduler.
func (k *Kernel) onTick() {
	if !k.started || k.halted {
		return
	}
	k.tick++

	// A pending wild jump executes *before* any scheduling: the guest
	// resumes at the corrupted address and immediately prefetch-aborts
	// into the hypervisor, which parks the CPU (error-code path).
	if k.wildJump {
		k.wildJump = false
		_ = k.hv.GuestFetch(k.cpu, k.wildJumpAddr)
		return
	}

	// Distributor hygiene at a modest cadence: the steady-state
	// ArchHandleTrap stream on the cell CPU that the Figure 3 campaign
	// injects into.
	if k.tick%housekeepTicks == 0 {
		_ = k.gicdRead(gic.GICDISEnabler)
		if k.tick%(housekeepTicks*4) == 0 {
			k.gicdWrite(gic.GICDISEnabler, 1<<gic.IRQVirtualTimer)
		}
		if k.dead() {
			return
		}
	}

	k.reschedule()
	k.runSlice()
}

// runSlice runs one time slice of the current task; a step that returns
// false ends the task.
func (k *Kernel) runSlice() {
	if k.cur == noTask || k.halted {
		return
	}
	t := k.tasks[k.cur]
	if !t.step(k, t) {
		k.setState(t, StateSuspended)
	}
}

// reschedule wakes due delayed tasks, picks the highest-priority ready
// task (round-robin within a priority level), and performs the
// context-switch integrity checks. Every due task wakes before
// selection, the first ready task in round-robin order of the top
// priority wins, the idle task runs when nothing is ready, and the
// winner moves to the back of the order — decision for decision the
// scan over a rotating task list that TestSchedulerMatchesScanOracle
// keeps as its oracle.
func (k *Kernel) reschedule() {
	// Context-switch stack check (the FreeRTOS
	// configCHECK_FOR_STACK_OVERFLOW hook).
	if k.stackSmashed || (k.cur != noTask && k.tasks[k.cur].stackGuard != stackCanary) {
		k.kernelPanic("stack overflow detected in task " + k.currentName())
		return
	}

	for k.nWake > 0 {
		t := k.tasks[k.wake[0]]
		if k.tick < t.wakeTick {
			break
		}
		k.setState(t, StateReady)
	}

	i := k.pick()
	best := k.order[i]
	if k.cur != best {
		k.ContextSwitches++
		if k.cur != noTask && k.tasks[k.cur].State == StateRunning {
			k.setState(k.tasks[k.cur], StateReady)
		}
		k.cur = best
		k.setState(k.tasks[best], StateRunning)
	}
	// Round-robin: rotate the chosen task to the back of the order.
	n := int(k.nTasks)
	copy(k.order[i:n-1], k.order[i+1:n])
	k.order[n-1] = best
}

// pick returns the position in order of the task to run next: the first
// id whose bit is set in the top non-empty ready set, or the idle task
// when no task is ready (even one the R5 ready-drop delayed).
func (k *Kernel) pick() int {
	want := uint32(1) << k.idle
	if k.readyPrios != 0 {
		want = k.ready[bits.Len8(k.readyPrios)-1]
	}
	order := k.order[:k.nTasks]
	if want&(want-1) == 0 {
		// One candidate, the idle task on most ticks: its position is
		// the only one to find.
		if i := bytes.IndexByte(order, byte(bits.TrailingZeros32(want))); i >= 0 {
			return i
		}
	} else {
		for i, id := range order {
			if want&(1<<id) != 0 {
				return i
			}
		}
	}
	panic("freertos: ready set names no live task")
}

// setState is the one writer of a task's State: it keeps the ready sets
// and the wake list in step. A task enters StateDelayed with its
// wakeTick already set.
func (k *Kernel) setState(t *TCB, s TaskState) {
	if t.State == StateDelayed {
		n := int(k.nWake)
		i := bytes.IndexByte(k.wake[:n], t.id)
		copy(k.wake[i:n-1], k.wake[i+1:n])
		k.nWake--
	}
	if runnable(t.State) != runnable(s) {
		p := t.Priority
		if k.ready[p] ^= 1 << t.id; k.ready[p] != 0 {
			k.readyPrios |= 1 << p
		} else {
			k.readyPrios &^= 1 << p
		}
	}
	t.State = s
	if s == StateDelayed {
		i := int(k.nWake)
		for ; i > 0; i-- {
			o := k.tasks[k.wake[i-1]]
			if o.wakeTick < t.wakeTick || o.wakeTick == t.wakeTick && o.id < t.id {
				break
			}
			k.wake[i] = k.wake[i-1]
		}
		k.wake[i] = t.id
		k.nWake++
	}
}

// runnable reports whether a task in state s is in its priority's ready
// set.
func runnable(s TaskState) bool { return s == StateReady || s == StateRunning }

func (k *Kernel) currentName() string {
	if k.cur == noTask {
		return "?"
	}
	return k.tasks[k.cur].Name
}

// Delay blocks the current task for the given number of ticks.
func (k *Kernel) Delay(t *TCB, ticks uint64) {
	t.wakeTick = k.tick + ticks
	k.setState(t, StateDelayed)
}

// kernelPanic is configASSERT failing at kernel level: print and halt the
// whole scheduler. The cell goes silent but the hypervisor still reports
// it RUNNING.
func (k *Kernel) kernelPanic(why string) {
	if k.halted {
		return
	}
	k.putString("ASSERT FAILED: " + why + "\r\n")
	k.putString("FreeRTOS halted.\r\n")
	k.halted = true
	k.haltReason = why
	k.brd.StopTimer(k.cpu)
}

// OnCPUParked implements jailhouse.Inmate.
func (k *Kernel) OnCPUParked(cpu int) {
	// The CPU is gone; the kernel cannot even print. Stop the timer so
	// the simulation does not keep delivering ticks to a parked core.
	k.brd.StopTimer(cpu)
}

// OnShutdown implements jailhouse.Inmate.
func (k *Kernel) OnShutdown() {
	k.brd.StopTimer(k.cpu)
	k.halted = true
	k.haltReason = "cell shutdown"
}
