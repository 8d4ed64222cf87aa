package sim

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
)

// ErrHalted is returned by Run when the machine was halted by a component
// (for example after a system-wide hypervisor panic) before the requested
// horizon was reached. Reaching the horizon normally is not an error.
var ErrHalted = errors.New("sim: engine halted")

// Handler delivers one event: target and arg are the data the event was
// scheduled with. Handlers are installed once per engine (SetHandler) and
// are configuration, not run state: a queued event is plain data — a
// handler kind, a target index and an argument — so the queue can be
// copied, compared and digested like any other machine state.
type Handler func(target int32, arg uint64)

// HandlerKind indexes an engine's handler table.
type HandlerKind uint8

// slot is one entry of the engine's pooled event slab. Slots are recycled
// through a free list: popping an event returns its slot immediately, so a
// campaign's steady-state event population allocates nothing per event.
type slot struct {
	when Time
	seq  uint64 // tie-breaker: FIFO among same-instant events
	arg  uint64
	// period > 0 marks a periodic event (Every): the slot is not freed on
	// pop — after its handler returns it is re-pushed at when+period with
	// a fresh seq. Periodicity lives in the slab, so a captured slot
	// array carries everything a periodic timer needs to keep firing
	// after a restore.
	period Time
	target int32
	gen    uint32 // bumped on every free; stale handles become no-ops
	kind   HandlerKind
	// canceled events stay in the heap but are skipped when popped;
	// this keeps cancellation O(1).
	canceled bool
}

// heapEnt is one heap entry: the slab index plus a copy of the slot's
// ordering key. Duplicating (when, seq) into the heap keeps comparisons
// inside one contiguous array — no slab dereference per compare on the
// hottest loop in the simulator. The key copy never goes stale: a slot's
// key only changes when it is (re)pushed, and every push writes a fresh
// entry.
type heapEnt struct {
	when Time
	seq  uint64
	idx  int32
}

// Event is a cheap, copyable handle to a scheduled event. The zero
// value is valid and cancels nothing. Handles are generation-checked:
// canceling an event that already fired (even if its slot has been reused
// by a newer event) is a safe no-op.
type Event struct {
	eng *Engine
	idx int32
	gen uint32
}

// Cancel prevents a pending event from firing. Canceling an already-fired
// or already-canceled event is a no-op.
func (ev Event) Cancel() {
	e := ev.eng
	if e == nil || ev.idx < 0 || int(ev.idx) >= len(e.slots) {
		return
	}
	if s := &e.slots[ev.idx]; s.gen == ev.gen {
		s.canceled = true
	}
}

// Engine is the deterministic event loop that drives one simulated machine.
// It is not safe for concurrent use; one goroutine owns one engine.
//
// The event queue is an index-based min-heap over a pooled slab: heap
// entries are slab indices ordered by (when, seq), and freed slots are
// recycled via a free list. Scheduling in steady state therefore performs
// no per-event allocation and no interface boxing.
type Engine struct {
	now      Time
	seq      uint64
	slots    []slot
	freeList []int32   // stack of free slab indices
	heap     []heapEnt // slab indices + keys ordered by (when, seq)
	rng      *RNG
	trace    *Trace
	halted   bool
	haltMsg  string

	// handlers is the dispatch table, indexed by slot kind. Like
	// wedgeLimit it is configuration: snapshot restores keep it.
	handlers []Handler
	// Scratch for delivery-order views of queues (Queue, QueueMatches).
	order        []heapEnt
	live, golden []QueuedEvent

	// executed counts events delivered (canceled pops excluded) per
	// handler kind since the engine was built or last restored. Pure
	// telemetry for the flight recorder's sim-event metrics: it never
	// feeds the trace, the RNG or any digest, and no snapshot holds it,
	// so it cannot perturb determinism.
	executed [1 << 8]uint64

	// wedgeLimit bounds how many events may execute at a single virtual
	// instant before Run declares the machine wedged. 0 disables the
	// watchdog. The limit is configuration, not run state: restores keep it.
	wedgeLimit int
}

// DefaultWedgeLimit is the bounded-progress watchdog threshold new engines
// start with. Legitimate same-instant bursts (cascaded IRQ deliveries,
// same-tick reschedules) stay in the tens; a fault that turns the event
// loop into a zero-delay self-rescheduling cycle blows past this within
// one virtual instant.
const DefaultWedgeLimit = 1 << 17

// NewEngine returns an engine at time zero with the given seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{
		rng:        NewRNG(seed),
		trace:      NewTrace(),
		wedgeLimit: DefaultWedgeLimit,
	}
}

// SetWedgeLimit tunes the bounded-progress watchdog: the number of events
// Run may execute at one virtual instant before halting with a machine
// wedge. 0 disables the watchdog entirely.
func (e *Engine) SetWedgeLimit(n int) { e.wedgeLimit = n }

// Now returns current virtual time.
func (e *Engine) Now() Time { return e.now }

// RNG returns the engine's deterministic random source.
func (e *Engine) RNG() *RNG { return e.rng }

// Trace returns the engine's event trace.
func (e *Engine) Trace() *Trace { return e.trace }

// less orders heap entries by (when, seq).
func (e *Engine) less(a, b heapEnt) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

func (e *Engine) siftUp(i int) {
	h := e.heap
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && e.less(h[right], h[left]) {
			least = right
		}
		if !e.less(h[least], h[i]) {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// SetHandler installs h as the handler of events of kind k.
func (e *Engine) SetHandler(k HandlerKind, h Handler) {
	for int(k) >= len(e.handlers) {
		e.handlers = append(e.handlers, nil)
	}
	e.handlers[k] = h
}

// Schedule enqueues an event of kind k for target with argument arg at
// absolute virtual time when. Times in the past are clamped to "now"
// (the event still runs, after already-queued events for the current
// instant). The returned handle can cancel it.
func (e *Engine) Schedule(when Time, k HandlerKind, target int32, arg uint64) Event {
	if when < e.now {
		when = e.now
	}
	var idx int32
	if n := len(e.freeList); n > 0 {
		idx = e.freeList[n-1]
		e.freeList = e.freeList[:n-1]
	} else {
		e.slots = append(e.slots, slot{})
		idx = int32(len(e.slots) - 1)
	}
	s := &e.slots[idx]
	s.when, s.seq, s.period, s.canceled = when, e.seq, 0, false
	s.kind, s.target, s.arg = k, target, arg
	e.seq++
	e.heap = append(e.heap, heapEnt{when: s.when, seq: s.seq, idx: idx})
	e.siftUp(len(e.heap) - 1)
	return Event{eng: e, idx: idx, gen: s.gen}
}

// After enqueues an event d after the current instant.
func (e *Engine) After(d Time, k HandlerKind, target int32, arg uint64) Event {
	return e.Schedule(e.now+d, k, target, arg)
}

// Every schedules an event at now+d, then every d thereafter, until the
// returned handle is canceled or the engine halts. The periodicity lives
// in the event slot itself (slot.period): the slot is kept across
// deliveries and re-pushed after each handler call with a fresh sequence
// number, so same-instant tie-breaks are those of a handler that
// rescheduled itself on return.
func (e *Engine) Every(d Time, k HandlerKind, target int32, arg uint64) Event {
	if d <= 0 {
		d = Nanosecond
	}
	ev := e.Schedule(e.now+d, k, target, arg)
	e.slots[ev.idx].period = d
	return ev
}

// Halt stops the run: Run returns ErrHalted once the current event
// completes. Components call this to model system-wide death (e.g. the
// hypervisor's panic_stop bringing every CPU down).
func (e *Engine) Halt(reason string) {
	if !e.halted {
		e.halted = true
		e.haltMsg = reason
	}
}

// Halted reports whether Halt was called, and the recorded reason.
func (e *Engine) Halted() (bool, string) { return e.halted, e.haltMsg }

// removeRoot removes the heap minimum (the entry itself, not the slot).
func (e *Engine) removeRoot() {
	last := len(e.heap) - 1
	e.heap[0] = e.heap[last]
	e.heap = e.heap[:last]
	if last > 0 {
		e.siftDown(0)
	}
}

// free returns a slot to the free list, invalidating outstanding handles.
func (e *Engine) free(idx int32) {
	s := &e.slots[idx]
	s.period = 0
	s.gen++
	e.freeList = append(e.freeList, idx)
}

// rearm re-keys a delivered periodic slot to now+period with a fresh
// sequence number, drawn after the handler ran. The slot was left at the
// heap root during the handler (nothing a handler can schedule sorts
// before an already-due event, so the root cannot move), which makes the
// re-arm an in-place key update plus one sift-down instead of a
// remove/re-push pair. A halt during the handler, or a cancel through the
// timer's handle, frees the slot instead.
func (e *Engine) rearm(idx int32) {
	s := &e.slots[idx]
	pos := 0
	if len(e.heap) == 0 || e.heap[0].idx != idx {
		// Defensive: the handler re-entered the scheduler in a way that
		// displaced the root. Locate the slot the slow way.
		pos = -1
		for i := range e.heap {
			if e.heap[i].idx == idx {
				pos = i
				break
			}
		}
		if pos < 0 {
			return
		}
	}
	if e.halted || s.canceled {
		e.removeAt(pos)
		e.free(idx)
		return
	}
	s.when = e.now + s.period
	s.seq = e.seq
	e.seq++
	e.heap[pos] = heapEnt{when: s.when, seq: s.seq, idx: idx}
	// The key only grew, so sifting down restores the heap invariant.
	e.siftDown(pos)
}

// removeAt removes the heap entry at pos.
func (e *Engine) removeAt(pos int) {
	last := len(e.heap) - 1
	e.heap[pos] = e.heap[last]
	e.heap = e.heap[:last]
	if pos < last {
		e.siftDown(pos)
		e.siftUp(pos)
	}
}

// deliver dispatches the due event in slot idx, the heap root, through
// the handler table. A periodic slot stays at the root while its handler
// runs and rearm re-keys it in place; a one-shot slot is freed before
// its handler runs, so a handler that schedules may reuse the very slot
// being delivered.
func (e *Engine) deliver(idx int32) {
	s := &e.slots[idx]
	h := e.handlers[s.kind]
	if s.period > 0 {
		h(s.target, s.arg)
		e.rearm(idx)
		return
	}
	target, arg := s.target, s.arg
	e.removeRoot()
	e.free(idx)
	h(target, arg)
}

// Run executes events in order until the queue is empty, the horizon is
// passed, or the engine is halted. The engine's clock ends at exactly
// horizon when the horizon is reached normally.
//
// A bounded-progress watchdog counts events executed without virtual time
// advancing; past the wedge limit the run halts with a "machine wedge"
// reason instead of spinning forever — the simulation analogue of a
// livelocked board that a hardware watchdog would reset. The counters are
// locals, so the watchdog adds no run state and cannot perturb digests.
func (e *Engine) Run(horizon Time) error {
	sameInstant := 0
	lastNow := e.now
	for len(e.heap) > 0 {
		if e.halted {
			return fmt.Errorf("%w at %v: %s", ErrHalted, e.now, e.haltMsg)
		}
		top := e.heap[0]
		if top.when > horizon {
			break
		}
		s := &e.slots[top.idx]
		if s.canceled {
			e.removeRoot()
			e.free(top.idx)
			continue
		}
		e.now = top.when
		e.executed[s.kind]++
		e.deliver(top.idx)
		if e.now != lastNow {
			lastNow = e.now
			sameInstant = 0
		} else if sameInstant++; e.wedgeLimit > 0 && sameInstant >= e.wedgeLimit {
			e.trace.Addf(e.now, KindWedge, -1,
				"machine wedge: %d events without time advancing", Int(int64(sameInstant)))
			e.Halt(fmt.Sprintf("machine wedge: %d events without time advancing at %v", sameInstant, e.now))
		}
	}
	if e.halted {
		return fmt.Errorf("%w at %v: %s", ErrHalted, e.now, e.haltMsg)
	}
	if e.now < horizon {
		e.now = horizon
	}
	return nil
}

// Step executes exactly one pending event (skipping canceled ones) and
// reports whether an event ran. Used by tests that need fine-grained
// control over interleaving.
func (e *Engine) Step() bool {
	for len(e.heap) > 0 {
		top := e.heap[0]
		s := &e.slots[top.idx]
		if s.canceled {
			e.removeRoot()
			e.free(top.idx)
			continue
		}
		e.now = top.when
		e.executed[s.kind]++
		e.deliver(top.idx)
		return true
	}
	return false
}

// EngineSnapshot is a copy of the scheduler at one instant: clock,
// sequence counter, the whole event slab, the free list, the heap order
// and the trace position. Queued events are plain data (kind, target,
// argument), so the snapshot holds no reference into any machine. The
// trace records themselves are not copied: they live once in the golden
// TraceLog the restore is handed. A snapshot is immutable after capture
// and may be restored any number of times.
type EngineSnapshot struct {
	now      Time
	seq      uint64
	slots    []slot
	freeList []int32
	heap     []heapEnt
	trace    TraceMark
}

// Now returns the virtual time of the snapshot.
func (s *EngineSnapshot) Now() Time { return s.now }

// CaptureSnapshot copies the engine's scheduler state and marks the
// trace position (folding the digest up to it).
func (e *Engine) CaptureSnapshot() *EngineSnapshot {
	return &EngineSnapshot{
		now:      e.now,
		seq:      e.seq,
		slots:    append([]slot(nil), e.slots...),
		freeList: append([]int32(nil), e.freeList...),
		heap:     append([]heapEnt(nil), e.heap...),
		trace:    e.trace.Mark(),
	}
}

// RestoreSnapshot rewinds the engine to a captured state and reseeds the
// RNG, reusing the live slab/heap/trace buffers. Slot generations are
// restored exactly, so Event handles captured alongside the snapshot
// (periodic-timer cancels) remain valid after the restore; handles
// minted after the capture are invalidated. halted and the executed
// counter are cleared — they are run products.
// The trace is rewound onto the golden log l, which must cover the
// snapshot (Trace.Rewind).
func (e *Engine) RestoreSnapshot(s *EngineSnapshot, seed uint64, l *TraceLog) {
	e.restoreQueue(s)
	e.halted, e.haltMsg = false, ""
	clear(e.executed[:len(e.handlers)])
	e.rng.Reseed(seed)
	e.trace.Rewind(l, s.trace)
}

// Executed returns the number of events delivered since the engine was
// built or last restored.
// Diagnostic only — the flight recorder's sim-event throughput source.
func (e *Engine) Executed() uint64 {
	var n uint64
	for _, k := range e.ExecutedByKind() {
		n += k
	}
	return n
}

// ExecutedByKind returns Executed split by handler kind: element k
// counts the events of kind k. The slice is the engine's own counter
// array, valid until the next event; callers must not write it.
func (e *Engine) ExecutedByKind() []uint64 { return e.executed[:len(e.handlers)] }

// restoreQueue copies a snapshot's clock and scheduler state into the
// live buffers; the copies never alias the snapshot's arrays.
func (e *Engine) restoreQueue(s *EngineSnapshot) {
	e.now, e.seq = s.now, s.seq
	e.slots = append(e.slots[:0], s.slots...)
	e.freeList = append(e.freeList[:0], s.freeList...)
	e.heap = append(e.heap[:0], s.heap...)
}

// QueuedEvent is one pending event as data.
type QueuedEvent struct {
	When     Time
	Period   Time // > 0 for a periodic event
	Kind     HandlerKind
	Target   int32
	Arg      uint64
	Canceled bool
}

// Queue appends the pending events to buf in delivery order — ascending
// (when, seq), canceled-but-unpopped events included — and returns it.
// Sequence numbers are left out: only the order they impose is state.
func (e *Engine) Queue(buf []QueuedEvent) []QueuedEvent {
	return e.queueOf(buf, e.slots, e.heap)
}

// queueOf appends the events of the queue (slots, heap) to buf in
// delivery order.
func (e *Engine) queueOf(buf []QueuedEvent, slots []slot, heap []heapEnt) []QueuedEvent {
	order := append(e.order[:0], heap...)
	slices.SortFunc(order, func(a, b heapEnt) int {
		if a.when != b.when {
			return cmp.Compare(a.when, b.when)
		}
		return cmp.Compare(a.seq, b.seq)
	})
	e.order = order
	for _, h := range order {
		s := &slots[h.idx]
		buf = append(buf, QueuedEvent{
			When: s.when, Period: s.period, Kind: s.kind,
			Target: s.target, Arg: s.arg, Canceled: s.canceled,
		})
	}
	return buf
}

// QueueMatches reports whether the engine's clock and pending events
// equal the snapshot's: the same events (QueuedEvent) in the same
// delivery order. Absolute sequence numbers and slab positions may
// differ — they decide nothing but that order.
func (e *Engine) QueueMatches(s *EngineSnapshot) bool {
	if e.now != s.now || len(e.heap) != len(s.heap) {
		return false
	}
	e.live = e.Queue(e.live[:0])
	e.golden = e.queueOf(e.golden[:0], s.slots, s.heap)
	return slices.Equal(e.live, e.golden)
}

// SameEvent reports whether the live handle ev and the handle golden,
// held by state captured with snapshot s, refer to the same event of two
// matching queues (QueueMatches): the event at the same delivery
// position, or no pending event at all. Handles are compared by what
// they cancel, not by slab position.
func (e *Engine) SameEvent(ev Event, s *EngineSnapshot, golden Event) bool {
	return rank(e, e.slots, e.heap, ev) == rank(e, s.slots, s.heap, golden)
}

// rank returns the delivery position of the pending event ev refers to
// in a queue of e, or -1 when ev refers to none (zero or stale handle).
func rank(e *Engine, slots []slot, heap []heapEnt, ev Event) int {
	if ev.eng != e || ev.idx < 0 || int(ev.idx) >= len(slots) || slots[ev.idx].gen != ev.gen {
		return -1
	}
	s := &slots[ev.idx]
	n := 0
	for _, h := range heap {
		if h.when < s.when || (h.when == s.when && h.seq < s.seq) {
			n++
		}
	}
	return n
}

// Splice moves the engine from a state matching golden snapshot from to
// the later golden snapshot to without running the events in between:
// the scheduler becomes to's, and the trace keeps this run's records and
// gains the golden records between the two snapshots from l. The RNG is
// left as it is — a golden stretch draws nothing from it.
func (e *Engine) Splice(from, to *EngineSnapshot, l *TraceLog) {
	e.restoreQueue(to)
	e.trace.Splice(l, from.trace, to.trace)
}
