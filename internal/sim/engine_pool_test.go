package sim

import "testing"

// The pooled event slab recycles slots aggressively: a popped or canceled
// event's slot may be handed to the very next Schedule. These tests pin
// the safety properties of that reuse.

func TestPoolCancelThenReuseKeepsHandlesStale(t *testing.T) {
	e := NewEngine(1)
	cb := callbacks(e)
	aRan, bRan := false, false
	a := cb.Schedule(10, func() { aRan = true })
	a.Cancel()
	if err := e.Run(20); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if aRan {
		t.Fatal("canceled event ran")
	}
	// The canceled event's slot is free now; the next schedule reuses it.
	b := cb.Schedule(30, func() { bRan = true })
	// A stale cancel through the old handle must NOT kill the new event,
	// even though both handles may point at the same slab slot.
	a.Cancel()
	if err := e.Run(40); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !bRan {
		t.Fatal("slot-reusing event was killed by a stale handle")
	}
	// Canceling b after it fired is a no-op too.
	b.Cancel()
}

func TestPoolSameInstantFIFOAcrossSlabReuse(t *testing.T) {
	e := NewEngine(1)
	cb := callbacks(e)
	var got []int
	// First wave populates and then frees a pile of slots.
	for i := 0; i < 8; i++ {
		i := i
		cb.Schedule(5, func() { got = append(got, i) })
	}
	if err := e.Run(6); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Second wave reuses the freed slots (in whatever free-list order);
	// FIFO among same-instant events must still hold because ordering is
	// by sequence number, not slot index.
	got = got[:0]
	for i := 0; i < 8; i++ {
		i := i
		cb.Schedule(10, func() { got = append(got, i) })
	}
	if err := e.Run(20); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant order after slab reuse = %v, want ascending", got)
		}
	}
}

func TestPoolEveryCancellationAfterHalt(t *testing.T) {
	e := NewEngine(1)
	cb := callbacks(e)
	n := 0
	cancel := cb.Every(10, func() { n++ })
	cb.Schedule(25, func() { e.Halt("panic_stop") })
	_ = e.Run(1000)
	if n != 2 {
		t.Fatalf("ticks before halt = %d, want 2", n)
	}
	// Canceling the periodic chain after the engine halted must be a
	// safe no-op (the pending tick's slot may already be stale or even
	// reused on a later reset).
	cancel.Cancel()
	cancel.Cancel()
	if halted, _ := e.Halted(); !halted {
		t.Fatal("engine should stay halted")
	}
}

func TestPoolScheduleFromCallbackReusesDeliveredSlot(t *testing.T) {
	e := NewEngine(1)
	cb := callbacks(e)
	order := []int{}
	// The delivered event's slot is freed before its callback runs, so a
	// schedule from inside the callback may land in the same slot. The
	// rescheduled event must still fire normally.
	cb.Schedule(10, func() {
		order = append(order, 1)
		cb.Schedule(20, func() { order = append(order, 2) })
	})
	if err := e.Run(30); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v, want [1 2]", order)
	}
}

func TestScheduleIsAllocationFreeInSteadyState(t *testing.T) {
	e := NewEngine(3)
	e.SetHandler(1, func(int32, uint64) {})
	// Warm the slab.
	for i := 0; i < 64; i++ {
		e.Schedule(Time(i), 1, 0, 0)
	}
	if err := e.Run(1000); err != nil {
		t.Fatalf("Run: %v", err)
	}
	avg := testing.AllocsPerRun(200, func() {
		e.Schedule(e.Now()+1, 1, 0, 0)
		e.Step()
	})
	if avg != 0 {
		t.Fatalf("steady-state Schedule+Step allocates %.1f objects/op, want 0", avg)
	}
}
