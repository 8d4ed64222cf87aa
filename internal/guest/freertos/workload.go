package freertos

import (
	"math"

	"github.com/dessertlab/certify/internal/board"
	"github.com/dessertlab/certify/internal/jailhouse"
)

// Workload parameters for the paper's task set.
const (
	blinkPeriodTicks = 500 // LED toggle every 500 ms
	senderPeriod     = 20  // send a sequence number every 20 ms
	receiverReport   = 50  // report every 50 received messages
	floatPeriod      = 100 // FP tasks iterate every 100 ms
	intPeriod        = 40  // integer tasks iterate every 40 ms
	intReport        = 250 // integer summary every 250 iterations
	NumIntegerTasks  = 15  // "fifteen integer ones"
	NumFloatTasks    = 2   // "two floating-point arithmetic tasks"
)

// NewPaperWorkload builds the kernel with the exact task mix of the
// paper's experiments: "a task to blink an onboard led, a couple of
// send/receive tasks, two floating-point arithmetic tasks and fifteen
// integer ones" — plus a low-priority runtime-stats reporter
// (vTaskGetRunTimeStats-style) whose periodic line gives the classifier
// a whole-system liveness summary.
func NewPaperWorkload(hv *jailhouse.Hypervisor, cpu int) *Kernel {
	k := NewKernel(hv, cpu)
	k.InstallPaperWorkload()
	return k
}

// InstallPaperWorkload populates the kernel with the paper's task set.
// It assumes a pristine kernel — freshly built, or just deep-reset; the
// machine's kernel arena calls it after DeepReset to rebuild the
// workload from recycled control blocks. Step closures capture only immutable
// parameters (queue, task id); per-task working state lives in the TCB.
func (k *Kernel) InstallPaperWorkload() {
	q := k.NewQueue("seq", 8)

	k.CreateTask("blink", 3, blinkTask())
	k.CreateTask("sender", 2, senderTask(q))
	k.CreateTask("receiver", 2, receiverTask(q))
	for i := 0; i < NumFloatTasks; i++ {
		k.CreateTask(taskName("float", i), 1, floatTask(i))
	}
	for i := 0; i < NumIntegerTasks; i++ {
		k.CreateTask(taskName("int", i), 1, integerTask(i))
	}
	k.CreateTask("stats", 1, statsTask())
}

// statsPeriod is the runtime-stats reporting interval in ticks (10 s).
const statsPeriod = 10000

// statsTask periodically prints scheduler-level health: runnable tasks,
// context switches and any asserted tasks.
func statsTask() StepFunc {
	return func(k *Kernel, t *TCB) bool {
		runnable, asserted := 0, 0
		for _, tk := range k.Tasks() {
			switch {
			case tk.Asserted:
				asserted++
			case tk.State != StateSuspended:
				runnable++
			}
		}
		k.Printf("[stats] tick=%d tasks=%d asserted=%d ctxsw=%d\r\n",
			k.Tick(), runnable, asserted, k.ContextSwitches)
		k.Delay(t, statsPeriod)
		return true
	}
}

func taskName(base string, i int) string {
	if base == "float" {
		return base + string(rune('0'+i%10))
	}
	return base + string(rune('0'+i/10)) + string(rune('0'+i%10))
}

// blinkTask toggles the board LED and reports, the cell's most visible
// liveness signal.
func blinkTask() StepFunc {
	return func(k *Kernel, t *TCB) bool {
		t.locals[0] ^= 1 // LED level
		v := t.locals[0]
		_ = k.hv.GuestWrite32(k.cpu, board.GPIOBase, v)
		k.Printf("[blink] led=%d tick=%d\r\n", v, k.tick)
		k.Delay(t, blinkPeriodTicks)
		return true
	}
}

// senderTask pushes an increasing sequence number into the queue.
func senderTask(q *Queue) StepFunc {
	return func(k *Kernel, t *TCB) bool {
		seq := &t.locals[0]
		if q.Send(k, t, *seq) {
			*seq++
			k.Delay(t, senderPeriod)
		}
		return true
	}
}

// receiverTask validates the sequence and reports periodically — its
// sequence check is what turns a corrupted r0-r3 operand into visible
// (but survivable) evidence.
func receiverTask(q *Queue) StepFunc {
	return func(k *Kernel, t *TCB) bool {
		expect, got := &t.locals[0], &t.locals[1]
		if !q.Receive(k, t, got) {
			return true
		}
		if *got != *expect {
			k.Printf("[recv] ASSERT: seq %d != expected %d\r\n", *got, *expect)
			*expect = *got // resynchronise and continue
		}
		*expect++
		if q.Receives%receiverReport == 0 {
			k.Printf("[recv] ok, %d messages\r\n", q.Receives)
		}
		return true
	}
}

// floatTask accumulates a Leibniz series for pi/4 and checks convergence.
// The accumulator lives in the task's register-image slots (Work[0:2]),
// so a flipped working register becomes a diverged sum the task itself
// detects — the floating-point workload's self-check.
func floatTask(id int) StepFunc {
	return func(k *Kernel, t *TCB) bool {
		if t.Asserted {
			return false
		}
		n := int(t.locals[0])
		sum := math.Float64frombits(uint64(t.Work[0])<<32 | uint64(t.Work[1]))
		for i := 0; i < 50; i++ {
			term := 1.0 / float64(2*n+1)
			if n%2 == 1 {
				term = -term
			}
			sum += term
			n++
		}
		t.locals[0] = uint32(n)
		if n > 1000 && (math.IsNaN(sum) || math.Abs(sum-math.Pi/4) > 0.1) {
			k.Printf("[float%d] ASSERT: diverged sum=%f n=%d\r\n", id, sum, n)
			t.Asserted = true
			return false
		}
		bits := math.Float64bits(sum)
		t.Work[0], t.Work[1] = uint32(bits>>32), uint32(bits)
		if n%5000 == 0 {
			k.Printf("[float%d] pi≈%f after %d terms\r\n", id, 4*sum, n)
		}
		k.Delay(t, floatPeriod)
		return true
	}
}

// integerTask runs a modular checksum loop with a closed-form check,
// detecting working-register corruption (r8-r11 image slots).
func integerTask(id int) StepFunc {
	const rounds = 32
	return func(k *Kernel, t *TCB) bool {
		if t.Asserted {
			return false
		}
		iter := t.locals[0]
		if t.Work[1] != iter*rounds {
			k.Printf("[int%02d] ASSERT: checksum %d != %d\r\n", id, t.Work[1], iter*rounds)
			t.Asserted = true
			return false
		}
		t.Work[1] += rounds // wraps mod 2³², as rounds single increments do
		iter++
		t.locals[0] = iter
		if iter%intReport == 0 {
			k.Printf("[int%02d] %d iterations ok\r\n", id, iter)
		}
		k.Delay(t, intPeriod)
		return true
	}
}

// LEDToggleCount reports how many times the blink task has toggled the
// LED — read from the GPIO capture, usable by the classifier.
func (k *Kernel) LEDToggleCount() int {
	return k.brd.GPIO.ToggleCount()
}

// AssertedTasks returns the names of tasks that failed their own checks.
func (k *Kernel) AssertedTasks() []string {
	var out []string
	for _, id := range k.order[:k.nTasks] {
		if t := k.tasks[id]; t.Asserted {
			out = append(out, t.Name)
		}
	}
	return out
}
