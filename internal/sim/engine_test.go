package sim

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine(1)
	cb := callbacks(e)
	var got []int
	cb.Schedule(30, func() { got = append(got, 3) })
	cb.Schedule(10, func() { got = append(got, 1) })
	cb.Schedule(20, func() { got = append(got, 2) })
	if err := e.Run(100); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 100 {
		t.Fatalf("Now() = %v, want horizon 100", e.Now())
	}
}

func TestEngineSameInstantIsFIFO(t *testing.T) {
	e := NewEngine(1)
	cb := callbacks(e)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		cb.Schedule(5, func() { got = append(got, i) })
	}
	if err := e.Run(10); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant order = %v, want ascending", got)
		}
	}
}

func TestEngineHorizonStopsFutureEvents(t *testing.T) {
	e := NewEngine(1)
	cb := callbacks(e)
	ran := false
	cb.Schedule(200, func() { ran = true })
	if err := e.Run(100); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran {
		t.Fatal("event past horizon ran")
	}
	if len(e.heap) != 1 {
		t.Fatalf("queued = %d, want 1", len(e.heap))
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine(1)
	cb := callbacks(e)
	ran := false
	ev := cb.Schedule(10, func() { ran = true })
	ev.Cancel()
	if err := e.Run(100); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran {
		t.Fatal("canceled event ran")
	}
	// Double-cancel and zero-value cancel must be safe.
	ev.Cancel()
	var zero Event
	zero.Cancel()
}

func TestEngineHalt(t *testing.T) {
	e := NewEngine(1)
	cb := callbacks(e)
	cb.Schedule(10, func() { e.Halt("hypervisor panic_stop") })
	laterRan := false
	cb.Schedule(20, func() { laterRan = true })
	err := e.Run(100)
	if !errors.Is(err, ErrHalted) {
		t.Fatalf("Run err = %v, want ErrHalted", err)
	}
	if laterRan {
		t.Fatal("event after halt ran")
	}
	halted, msg := e.Halted()
	if !halted || msg != "hypervisor panic_stop" {
		t.Fatalf("Halted() = %v %q", halted, msg)
	}
}

func TestEngineEvery(t *testing.T) {
	e := NewEngine(1)
	cb := callbacks(e)
	n := 0
	cancel := cb.Every(10, func() {
		n++
		if n == 5 {
			// cancel from inside the callback must stop future ticks
		}
	})
	cb.Schedule(55, func() { cancel.Cancel() })
	if err := e.Run(200); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n != 5 {
		t.Fatalf("tick count = %d, want 5 (ticks at 10..50 then canceled at 55)", n)
	}
}

func TestEngineEveryStopsOnHalt(t *testing.T) {
	e := NewEngine(1)
	cb := callbacks(e)
	n := 0
	cb.Every(10, func() { n++ })
	cb.Schedule(35, func() { e.Halt("dead") })
	_ = e.Run(1000)
	if n != 3 {
		t.Fatalf("tick count = %d, want 3", n)
	}
}

func TestEngineScheduleInPastClampsToNow(t *testing.T) {
	e := NewEngine(1)
	cb := callbacks(e)
	var at Time
	cb.Schedule(50, func() {
		cb.Schedule(10, func() { at = e.Now() }) // "past" event
	})
	if err := e.Run(100); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if at != 50 {
		t.Fatalf("past-scheduled event ran at %v, want 50", at)
	}
}

func TestEngineStep(t *testing.T) {
	e := NewEngine(1)
	cb := callbacks(e)
	count := 0
	cb.Schedule(10, func() { count++ })
	cb.Schedule(20, func() { count++ })
	if !e.Step() || count != 1 {
		t.Fatalf("first Step: count = %d", count)
	}
	if !e.Step() || count != 2 {
		t.Fatalf("second Step: count = %d", count)
	}
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 64; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same == 64 {
		t.Fatal("different seeds produced identical stream")
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(7)
	for n := 1; n <= 40; n++ {
		seen := make(map[int]bool)
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
			seen[v] = true
		}
		if n > 1 && len(seen) < 2 {
			t.Fatalf("Intn(%d) produced a single value over 200 draws", n)
		}
	}
	if r.Intn(0) != 0 || r.Intn(-5) != 0 {
		t.Fatal("Intn with non-positive n should return 0")
	}
}

func TestRNGIntnIsRoughlyUniform(t *testing.T) {
	r := NewRNG(99)
	const n, draws = 16, 16000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := draws / n
	for i, c := range counts {
		if c < want/2 || c > want*2 {
			t.Fatalf("bucket %d has %d draws, want ~%d", i, c, want)
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestRNGPick(t *testing.T) {
	r := NewRNG(11)
	counts := make([]int, 3)
	for i := 0; i < 9000; i++ {
		counts[r.Pick([]float64{1, 2, 0})]++
	}
	if counts[2] != 0 {
		t.Fatalf("zero-weight bucket picked %d times", counts[2])
	}
	if counts[1] < counts[0] {
		t.Fatalf("weight-2 bucket (%d) drew less than weight-1 bucket (%d)", counts[1], counts[0])
	}
	if r.Pick([]float64{0, 0}) != 0 {
		t.Fatal("zero-total weights should pick index 0")
	}
}

func TestSplitMix64DerivedSeedsDiffer(t *testing.T) {
	state := uint64(2022)
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		s := SplitMix64(&state)
		if seen[s] {
			t.Fatal("SplitMix64 repeated a seed within 1000 draws")
		}
		seen[s] = true
	}
}

func TestTraceFilterCountContains(t *testing.T) {
	tr := NewTrace()
	tr.Addf(10, KindUART, 0, "hello %s", Str("world"))
	tr.Add(20, KindPanic, 1, "Kernel panic - not syncing")
	tr.Add(30, KindUART, 1, "bye")
	if got := tr.Count(KindUART); got != 2 {
		t.Fatalf("Count(UART) = %d, want 2", got)
	}
	if got := len(tr.Filter(KindPanic)); got != 1 {
		t.Fatalf("Filter(Panic) len = %d, want 1", got)
	}
	if !tr.Contains("not syncing") {
		t.Fatal("Contains failed to find panic text")
	}
	if tr.Contains("no such text") {
		t.Fatal("Contains found text that is not there")
	}
	if tr.Len() != 3 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestTraceHashStableAndOrderSensitive(t *testing.T) {
	build := func(order []int) *Trace {
		tr := NewTrace()
		for _, i := range order {
			tr.Addf(Time(i), KindNote, i, "n%d", Int(int64(i)))
		}
		return tr
	}
	a := build([]int{1, 2, 3})
	b := build([]int{1, 2, 3})
	c := build([]int{3, 2, 1})
	if a.Hash() != b.Hash() {
		t.Fatal("identical traces hash differently")
	}
	if a.Hash() == c.Hash() {
		t.Fatal("different traces hash identically")
	}
}

func TestTraceDumpAndSummary(t *testing.T) {
	tr := NewTrace()
	tr.Add(1*Second, KindUART, 0, "line-a")
	tr.Add(2*Second, KindIRQ, -1, "irq 27")
	dump := tr.Dump(KindUART)
	if want := "line-a"; !contains(dump, want) {
		t.Fatalf("Dump(UART) = %q, want it to contain %q", dump, want)
	}
	if contains(dump, "irq 27") {
		t.Fatal("Dump(UART) leaked IRQ record")
	}
	full := tr.Dump()
	if !contains(full, "irq 27") || !contains(full, "line-a") {
		t.Fatalf("Dump() = %q missing records", full)
	}
	sum := tr.Summary()
	if !contains(sum, "UART=1") || !contains(sum, "IRQ=1") {
		t.Fatalf("Summary() = %q", sum)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// Property: with the same seed, an engine running a randomized workload of
// self-rescheduling events produces an identical trace hash.
func TestPropertyDeterministicReplay(t *testing.T) {
	run := func(seed uint64) uint64 {
		e := NewEngine(seed)
		cb := callbacks(e)
		var step func()
		n := 0
		step = func() {
			n++
			e.Trace().Addf(e.Now(), KindNote, n%4, "step %d r=%d", Int(int64(n)), Int(int64(e.RNG().Intn(100))))
			if n < 500 {
				cb.After(Time(1+e.RNG().Intn(50)), step)
			}
		}
		cb.After(1, step)
		if err := e.Run(1 << 40); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return e.Trace().Hash()
	}
	prop := func(seed uint64) bool { return run(seed) == run(seed) }
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	tests := []struct {
		in   Time
		want string
	}{
		{0, "[    0.000]"},
		{1042 * Millisecond, "[    1.042]"},
		{61 * Second, "[   61.000]"},
	}
	for _, tt := range tests {
		if got := tt.in.String(); got != tt.want {
			t.Errorf("Time(%d).String() = %q, want %q", tt.in, got, tt.want)
		}
	}
}
