package freertos

// Queue is a FreeRTOS-style fixed-capacity message queue with blocking
// send and receive. Tasks that would overflow or underflow the queue move
// to the Blocked state and are woken when space or data appears.
type Queue struct {
	// queueState is the queue's scalar content: a restore assigns it,
	// and a rejoin check compares it with ==.
	queueState

	buf []uint32

	sendWaiters []*TCB
	recvWaiters []*TCB
}

// queueState is a queue's content apart from its buffer and waiter
// lists, one comparable value.
type queueState struct {
	name string
	cap  int

	// poisoned is set when the queue-head corruption (register image r7)
	// strikes; the next operation asserts.
	poisoned bool

	// Receives counts dequeued messages; the receiver task reports
	// every receiverReport-th, so it stays in the comparable state.
	Receives uint64
}

// NewQueue creates a queue with the given capacity and registers it with
// the kernel for corruption bookkeeping. Control blocks recycled by a
// DeepReset are reused before anything is allocated.
func (k *Kernel) NewQueue(name string, capacity int) *Queue {
	if capacity < 1 {
		capacity = 1
	}
	var q *Queue
	if n := len(k.queuePool); n > 0 {
		q = k.queuePool[n-1]
		k.queuePool = k.queuePool[:n-1]
	} else {
		q = &Queue{}
	}
	q.name, q.cap = name, capacity
	k.queues = append(k.queues, q)
	return q
}

// recycle empties the queue for reuse while keeping its buffers
// allocated — the DeepReset path.
func (q *Queue) recycle() {
	clear(q.sendWaiters)
	clear(q.recvWaiters)
	q.queueState = queueState{}
	q.buf, q.sendWaiters, q.recvWaiters = q.buf[:0], q.sendWaiters[:0], q.recvWaiters[:0]
}

// Len returns the number of queued items.
func (q *Queue) Len() int { return len(q.buf) }

// Send enqueues v on behalf of task t. If the queue is full the task
// blocks; returns false in that case (the task retries on its next
// slice, FreeRTOS's portMAX_DELAY behaviour folded into the step model).
func (q *Queue) Send(k *Kernel, t *TCB, v uint32) bool {
	if q.poisoned {
		k.queueAssert(t, q)
		return false
	}
	if len(q.buf) >= q.cap {
		k.setState(t, StateBlocked)
		q.sendWaiters = append(q.sendWaiters, t)
		return false
	}
	q.buf = append(q.buf, v)
	// Wake one receiver.
	if len(q.recvWaiters) > 0 {
		w := popFront(&q.recvWaiters)
		k.setState(w, StateReady)
	}
	return true
}

// Receive dequeues into *out on behalf of task t, blocking when empty.
func (q *Queue) Receive(k *Kernel, t *TCB, out *uint32) bool {
	if q.poisoned {
		k.queueAssert(t, q)
		return false
	}
	if len(q.buf) == 0 {
		k.setState(t, StateBlocked)
		q.recvWaiters = append(q.recvWaiters, t)
		return false
	}
	*out = popFront(&q.buf)
	q.Receives++
	if len(q.sendWaiters) > 0 {
		w := popFront(&q.sendWaiters)
		k.setState(w, StateReady)
	}
	return true
}

// popFront removes and returns the first element of *s, shifting the
// rest down so the slice keeps its backing array: a queue that slid its
// window forward instead would reallocate on a later append.
func popFront[T any](s *[]T) T {
	v := (*s)[0]
	n := copy(*s, (*s)[1:])
	var zero T
	(*s)[n] = zero
	*s = (*s)[:n]
	return v
}

// queueAssert is the configASSERT on a corrupted queue structure: fatal
// at kernel level, because the queue spine lives in kernel heap.
func (k *Kernel) queueAssert(t *TCB, q *Queue) {
	k.kernelPanic("queue " + q.name + " corrupted (op by " + t.Name + ")")
}
