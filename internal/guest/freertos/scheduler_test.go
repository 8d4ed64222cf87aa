package freertos

import (
	"slices"
	"strings"
	"testing"

	"github.com/dessertlab/certify/internal/sim"
)

// oracle is the scheduler the ready sets replaced, kept as the
// reference: one task list in round-robin order, scanned on every tick
// to wake due tasks and select in one pass, then rotated by copying.
// It holds its own copy of every task's content, indexed by id; list
// order, the current task and the switch count evolve only through its
// own reschedule.
type oracle struct {
	list     []uint8
	tcbs     []tcbState
	cur      uint8
	idle     uint8
	switches uint64
}

func (o *oracle) clone() *oracle {
	c := *o
	c.list, c.tcbs = slices.Clone(o.list), slices.Clone(o.tcbs)
	return &c
}

// reschedule is the scan-and-rotate scheduler over ids.
func (o *oracle) reschedule(tick uint64) {
	best, bestIdx, bestPri := -1, -1, 0
	for i, id := range o.list {
		t := &o.tcbs[id]
		if t.State == StateDelayed {
			if tick < t.wakeTick {
				continue
			}
			t.State = StateReady
		} else if t.State != StateReady && t.State != StateRunning {
			continue
		}
		if best < 0 || t.Priority > bestPri {
			best, bestIdx, bestPri = int(id), i, t.Priority
		}
	}
	if best < 0 {
		best, bestIdx = int(o.idle), slices.Index(o.list, o.idle)
	}
	if o.cur != uint8(best) {
		o.switches++
		if o.cur != noTask && o.tcbs[o.cur].State == StateRunning {
			o.tcbs[o.cur].State = StateReady
		}
		o.cur = uint8(best)
		o.tcbs[best].State = StateRunning
	}
	if last := len(o.list) - 1; bestIdx < last {
		copy(o.list[bestIdx:], o.list[bestIdx+1:])
		o.list[last] = uint8(best)
	}
}

// dropReady is the R5 ready-drop over the oracle's list.
func (o *oracle) dropReady(tick uint64) {
	for _, id := range o.list {
		if t := &o.tcbs[id]; t.State == StateReady {
			t.State, t.wakeTick = StateDelayed, tick+5
			return
		}
	}
}

// sync copies every task's content from k: task steps (queue traffic,
// delays, exits) run only on the kernel, through its own code.
func (o *oracle) sync(k *Kernel) {
	for id, t := range k.tasks[:k.nTasks] {
		o.tcbs[id] = t.tcbState
	}
}

// schedRig drives one kernel and its oracle through the same random
// operation sequence.
type schedRig struct {
	t   *testing.T
	rng *sim.RNG
	k   *Kernel
	o   *oracle
	q   *Queue
}

// install puts a random task set on the (fresh or deep-reset) kernel:
// up to twelve tasks of random priority sharing one small queue, then
// the idle task, and starts the scheduler.
func (r *schedRig) install() {
	k, rng := r.k, r.rng
	r.q = k.NewQueue("q", 1+rng.Intn(3))
	q := r.q
	step := func(k *Kernel, t *TCB) bool {
		switch n := rng.Intn(16); {
		case n < 5:
			k.Delay(t, uint64(rng.Intn(40)))
		case n < 8:
			q.Send(k, t, t.locals[0])
		case n < 11:
			q.Receive(k, t, &t.locals[1])
		case n == 11:
			return false // task exit
		}
		return true
	}
	n := 1 + rng.Intn(12)
	for i := 0; i < n; i++ {
		k.CreateTask(taskName("int", i), rng.Intn(MaxPriorities), step)
	}
	k.idle = k.CreateTask("IDLE", IdlePriority, func(*Kernel, *TCB) bool { return true }).id
	k.started = true

	r.o = &oracle{cur: noTask, idle: k.idle, tcbs: make([]tcbState, k.nTasks)}
	for id := range k.tasks[:k.nTasks] {
		r.o.list = append(r.o.list, uint8(id))
	}
	r.o.sync(k)
	r.check("install")
}

// check requires the kernel to agree with the oracle — the same current
// task and switch count, the same Tasks() order and the same content
// for every task — and its ready sets and wake list to be exactly the
// ones the task content implies.
func (r *schedRig) check(when string) {
	r.t.Helper()
	k, o := r.k, r.o
	if k.cur != o.cur || k.ContextSwitches != o.switches {
		r.t.Fatalf("%s: current %d after %d switches, oracle %d after %d", when, k.cur, k.ContextSwitches, o.cur, o.switches)
	}
	tasks := k.Tasks()
	if len(tasks) != len(o.list) {
		r.t.Fatalf("%s: %d tasks, oracle %d", when, len(tasks), len(o.list))
	}
	for i, t := range tasks {
		if t.id != o.list[i] {
			r.t.Fatalf("%s: Tasks() order %v, oracle %v", when, k.order[:k.nTasks], o.list)
		}
		if t.tcbState != o.tcbs[t.id] {
			r.t.Fatalf("%s: task %s content %+v, oracle %+v", when, t.Name, t.tcbState, o.tcbs[t.id])
		}
	}
	var ready [MaxPriorities]uint32
	var prios uint8
	var wake []uint8
	for id, t := range k.tasks[:k.nTasks] {
		if runnable(t.State) {
			ready[t.Priority] |= 1 << id
			prios |= 1 << t.Priority
		}
		if t.State == StateDelayed {
			wake = append(wake, uint8(id))
		}
	}
	slices.SortFunc(wake, func(a, b uint8) int {
		if ta, tb := k.tasks[a].wakeTick, k.tasks[b].wakeTick; ta != tb {
			if ta < tb {
				return -1
			}
			return 1
		}
		return int(a) - int(b)
	})
	if ready != k.ready || prios != k.readyPrios || !slices.Equal(wake, k.wake[:k.nWake]) {
		r.t.Fatalf("%s: ready %v (priorities %#x) wake %v, content implies %v (%#x) and %v",
			when, k.ready, k.readyPrios, k.wake[:k.nWake], ready, prios, wake)
	}
}

// checkVictim requires CorruptRandomTCB to damage the task the oracle's
// list order picks from the same RNG, then undoes the damage.
func (r *schedRig) checkVictim() {
	r.t.Helper()
	k := r.k
	seed := r.rng.Uint64()
	pre := k.CaptureSnapshot()
	desc := k.CorruptRandomTCB(sim.NewRNG(seed))
	want := r.o.list[sim.NewRNG(seed).Intn(len(r.o.list))]
	for id, t := range k.tasks[:k.nTasks] {
		if changed := t.tcbState != pre.tcbs[id].tcbState; changed != (uint8(id) == want) {
			r.t.Fatalf("CorruptRandomTCB damaged task %d (%s), oracle picks %d", id, desc, want)
		}
	}
	if !strings.HasSuffix(desc, k.tasks[want].Name) {
		r.t.Fatalf("CorruptRandomTCB reports %q, oracle picks %s", desc, k.tasks[want].Name)
	}
	k.RestoreSnapshot(pre)
}

// saved is a mid-sequence capture with the oracle's state at that
// instant.
type saved struct {
	snap KernelSnapshot
	o    *oracle
}

// TestSchedulerMatchesScanOracle drives random operation sequences —
// task delays, queue blocking and wakeups, task exits, the R5
// ready-drop, the R6 tick skew, capture and restore mid-sequence, and
// DeepReset plus reinstall — and requires the ready-set scheduler to
// pick, order and rewrite tasks exactly as the scan-and-rotate oracle
// does after every tick, CorruptRandomTCB to pick the oracle's victim,
// and Matches never to accept a kernel whose order or content differs
// from the capture's.
func TestSchedulerMatchesScanOracle(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		r := &schedRig{t: t, rng: sim.NewRNG(seed), k: &Kernel{kernelState: freshState(1)}}
		r.install()
		var snaps []saved
		for step := 0; step < 600; step++ {
			switch n := r.rng.Intn(64); {
			case n < 3:
				r.k.dropReady()
				r.o.dropReady(r.k.tick)
				r.check("R5 ready-drop")
			case n < 5:
				r.k.tick += uint64(r.rng.Intn(16)) // R6 tick skew
			case n < 7:
				snaps = append(snaps, saved{r.k.CaptureSnapshot(), r.o.clone()})
				if !r.k.Matches(snaps[len(snaps)-1].snap) {
					t.Fatalf("seed %d step %d: kernel does not match its own capture", seed, step)
				}
			case n < 9 && len(snaps) > 0:
				s := snaps[r.rng.Intn(len(snaps))]
				r.k.RestoreSnapshot(s.snap)
				r.o = s.o.clone()
				if !r.k.Matches(s.snap) {
					t.Fatalf("seed %d step %d: restored kernel does not match its capture", seed, step)
				}
				r.check("restore")
			case n == 9:
				r.k.DeepReset(1)
				r.install()
			case n < 12:
				r.checkVictim()
			}
			for _, s := range snaps {
				sameOrder := slices.Equal(r.o.list, s.o.list) && r.o.cur == s.o.cur
				if r.k.Matches(s.snap) && (!sameOrder || !slices.Equal(r.o.tcbs, s.o.tcbs)) {
					t.Fatalf("seed %d step %d: Matches accepts a kernel whose order or content differs from the capture", seed, step)
				}
			}

			r.k.tick++
			r.k.reschedule()
			r.o.reschedule(r.k.tick)
			r.check("reschedule")
			r.k.runSlice()
			r.o.sync(r.k)
		}
	}
}

func TestQueueKeepsFIFOOrderInItsBuffer(t *testing.T) {
	k := &Kernel{kernelState: freshState(1)}
	noop := func(*Kernel, *TCB) bool { return true }
	s1, s2 := k.CreateTask("s1", 1, noop), k.CreateTask("s2", 1, noop)
	r := k.CreateTask("r", 1, noop)
	q := k.NewQueue("q", 3)

	rng := sim.NewRNG(5)
	var next, want uint32
	var backing *uint32
	for i := 0; i < 2000; i++ {
		// Random traffic that never blocks: send into a queue with room,
		// receive from one with data.
		if n := q.Len(); n == 0 || n < q.cap && rng.Intn(2) == 0 {
			if !q.Send(k, s1, next) {
				t.Fatalf("step %d: send with room refused", i)
			}
			next++
		} else {
			var got uint32
			if !q.Receive(k, r, &got) || got != want {
				t.Fatalf("step %d: received %d, want %d", i, got, want)
			}
			want++
		}
		if len(q.buf) == q.cap {
			if backing == nil {
				backing = &q.buf[0]
			} else if &q.buf[0] != backing {
				t.Fatalf("step %d: the queue buffer was reallocated", i)
			}
		}
	}
	if backing == nil {
		t.Fatal("the queue never filled")
	}

	// Blocked senders wake in the order they blocked.
	for q.Len() < q.cap {
		q.Send(k, s1, next)
		next++
	}
	if q.Send(k, s1, 0) || q.Send(k, s2, 0) {
		t.Fatal("send into a full queue succeeded")
	}
	var v uint32
	q.Receive(k, r, &v)
	if s1.State != StateReady || s2.State != StateBlocked {
		t.Fatalf("after one receive: s1 %v, s2 %v", s1.State, s2.State)
	}
	q.Receive(k, r, &v)
	if s2.State != StateReady || len(q.sendWaiters) != 0 {
		t.Fatalf("after two receives: s2 %v, %d waiters", s2.State, len(q.sendWaiters))
	}
}
