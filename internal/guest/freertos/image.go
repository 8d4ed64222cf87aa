package freertos

import "github.com/dessertlab/certify/internal/armv7"

// Register image of the FreeRTOS cell — the documented contract between
// architectural registers and kernel state. When the hypervisor restores
// a frame whose slots were flipped, OnCorruptedResume maps each slot to
// its OS-level consequence:
//
//	r0-r3   operation scratch        → transient; at worst a wrong value
//	                                   in flight (detected by task checks)
//	r4      pxCurrentTCB             → kernel assert (probabilistic: the
//	                                   flip must hit dereferenced bits)
//	r5      ready-list bitmap        → missed wakeups, self-healing
//	r6      xTickCount (low word)    → timing skew, tolerated
//	r7      queue head pointer       → queue spine corruption → assert
//	r8-r11  task working registers   → task checksum asserts (task dies,
//	                                   kernel survives)
//	r12     intra-procedure scratch  → no effect
//	sp      task stack pointer       → stack-overflow check trips at the
//	                                   next context switch
//	lr/pc   control flow             → wild jump → prefetch abort →
//	                                   hypervisor parks the CPU
//	spsr    saved mode bits          → illegal resume state → wild jump
//
// The probabilistic gates model bit-position sensitivity (a flip in a
// pointer's low bits often lands in the same structure): they are
// documented calibration constants, not hidden magic.
const (
	pTCBFatal   = 0.35 // r4 flip actually breaks the TCB dereference
	pQueueFatal = 0.40 // r7 flip poisons the queue spine
	pStackFatal = 0.45 // sp flip escapes the current frame
	pWildFatal  = 0.60 // lr/pc flip leaves the mapped text (high bits)
	pWorkLive   = 0.15 // r8-r11 flip hit a live work register of a task
	pBootFatal  = 0.50 // any GPR flip derails the boot-time init loops
)

// OnCorruptedResume implements jailhouse.Inmate. fields holds the
// trap-context slots (armv7.Field values) the injector flipped.
func (k *Kernel) OnCorruptedResume(cpu int, fields []int) {
	if k.halted {
		return
	}
	rng := k.brd.Engine.RNG()
	// Boot window: the init loops keep nearly everything live — loop
	// counters, base addresses, the return path. A flip here typically
	// leaves the cell "in a non-executable state" with a blank USART
	// (the paper's E2 phenomenology): no output, no scheduler, while
	// the hypervisor keeps reporting the cell RUNNING.
	if !k.started {
		for _, f := range fields {
			if f >= armv7.RegR0 && f <= armv7.RegPC && rng.Bool(pBootFatal) {
				k.halted = true
				k.haltReason = "boot-time corruption (" + armv7.RegName(f) + ")"
				k.brd.StopTimer(k.cpu)
				return
			}
		}
		return
	}
	for _, f := range fields {
		switch {
		case f >= armv7.RegR0 && f <= armv7.RegR3:
			// Scratch: the in-flight operand may be wrong. The
			// send/receive pair detects sequence errors itself.
			continue
		case f == armv7.RegR4:
			if rng.Bool(pTCBFatal) {
				k.kernelPanic("pxCurrentTCB corrupted")
				return
			}
		case f == armv7.RegR5:
			k.dropReady()
		case f == armv7.RegR6:
			k.tick += uint64(rng.Intn(16)) // timing skew only
		case f == armv7.RegR7:
			if len(k.queues) > 0 && rng.Bool(pQueueFatal) {
				k.queues[rng.Intn(len(k.queues))].poisoned = true
			}
		case f >= armv7.RegR8 && f <= armv7.RegR11:
			// A task's working register: when the flipped slot was
			// live, the owning task's accumulator is damaged and its
			// own checksum assert fires on the next slice.
			if rng.Bool(pWorkLive) {
				k.corruptTaskWork(f-armv7.RegR8, rng.Uint32())
			}
		case f == armv7.RegSP:
			if rng.Bool(pStackFatal) {
				k.stackSmashed = true
			}
		case f == armv7.RegLR, f == armv7.RegPC,
			f == int(armv7.FieldELR), f == int(armv7.FieldSPSR):
			if rng.Bool(pWildFatal) {
				k.wildJump = true
				// Above the cell's 16 MiB RAM: nothing executable.
				k.wildJumpAddr = 0x0300_0000 + uint64(rng.Intn(1<<20))
			}
		}
	}
}

// dropReady is the ready-bitmap corruption: the first Ready task in
// round-robin order loses its wakeup and re-arms five ticks later.
func (k *Kernel) dropReady() {
	for _, id := range k.order[:k.nTasks] {
		if t := k.tasks[id]; t.State == StateReady {
			k.Delay(t, 5)
			return
		}
	}
}

// corruptTaskWork flips a working value of whichever task's context held
// the live registers when the trap fired. Traps are asynchronous with
// respect to the task schedule, so the victim is effectively uniform over
// the task set (the idle task included — those flips die silently, as on
// real hardware).
func (k *Kernel) corruptTaskWork(slot int, garbage uint32) {
	if k.nTasks == 0 {
		return
	}
	victim := k.tasks[k.order[k.brd.Engine.RNG().Intn(int(k.nTasks))]]
	if victim.Asserted {
		return
	}
	victim.Work[slot%4] ^= garbage | 1
}
