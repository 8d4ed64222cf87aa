package sim

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
)

// populate fills a trace with a representative mix of static, deferred
// and pre-rendered records, calling each after every append.
func populate(t *Trace, each func()) {
	t.Add(0, KindBoot, -1, "power on")
	each()
	for i := 0; i < 200; i++ {
		t.Addf(Time(i)*Millisecond, KindIRQ, i%2, "irq %d asserted on cpu%d", Int(int64(32+i%8)), Int(int64(i%2)))
		each()
		t.Addf(Time(i)*Millisecond+1, KindUART, -1, "tx %q", Str("hello"))
		each()
		if i%7 == 0 {
			t.Add(Time(i)*Millisecond+2, KindNote, 1, "checkpoint")
			each()
		}
	}
	t.Addf(Second, KindPanic, 0, "unhandled trap hsr=%#x", Uint(0x96000045))
	each()
}

// nothing is an each callback that does nothing.
func nothing() {}

// hashingOps is traceOps with Hash read after every append.
func hashingOps(tr *Trace, rng *RNG, n int, uniq *int) {
	for i := 0; i < n; i++ {
		traceOps(tr, rng, 1, uniq)
		_ = tr.Hash()
	}
}

// TestHashAfterEveryAppendMatchesOneShot: reading Hash after every
// append folds the trace a record at a time; the digest must equal the
// one a single Hash at the end folds over the deferred records.
func TestHashAfterEveryAppendMatchesOneShot(t *testing.T) {
	once := NewTrace()
	populate(once, nothing)
	want := once.Hash()

	each := NewTrace()
	populate(each, func() { _ = each.Hash() })
	if got := each.Hash(); got != want {
		t.Fatalf("hash after every append %#x, hash once at the end %#x", got, want)
	}
}

// TestHashLeavesRecordsReadable makes sure hashing does not consume the
// deferred format state: scans after Hash still render every message.
func TestHashLeavesRecordsReadable(t *testing.T) {
	tr := NewTrace()
	tr.Addf(Second, KindTrap, 1, "data abort at %#x", Uint(0xdeadbeef))
	h := tr.Hash()
	if !tr.Contains("data abort at 0xdeadbeef") {
		t.Fatal("message unreadable after hashing")
	}
	// Hash unchanged by the read.
	if tr.Hash() != h {
		t.Fatal("hash not idempotent")
	}
}

// TestHashStreamsAcrossCalls: hashing a prefix and continuing after more
// appends equals hashing everything at once — the property checkpoint
// marks and a Hash read midway rely on.
func TestHashStreamsAcrossCalls(t *testing.T) {
	a := NewTrace()
	a.Add(0, KindBoot, -1, "x")
	_ = a.Hash() // fold the prefix
	a.Addf(Second, KindNote, 0, "n=%d", Int(7))
	b := NewTrace()
	b.Add(0, KindBoot, -1, "x")
	b.Addf(Second, KindNote, 0, "n=%d", Int(7))
	if a.Hash() != b.Hash() {
		t.Fatalf("streamed hash %#x, one-shot hash %#x", a.Hash(), b.Hash())
	}
}

// emptyMark is the position of a trace that holds no records.
var emptyMark = NewTrace().Mark()

// empty rewinds tr to no records, keeping its buffers and suffix memo.
func empty(tr *Trace) { tr.Rewind(nil, emptyMark) }

// TestRewindRestartsDigest: a trace rewound for its next run must
// restart its digest from the mark.
func TestRewindRestartsDigest(t *testing.T) {
	tr := NewTrace()
	populate(tr, func() { _ = tr.Hash() })
	empty(tr)
	fresh := NewTrace()
	if tr.Hash() != fresh.Hash() {
		t.Fatalf("rewound trace hash %#x, fresh empty trace %#x", tr.Hash(), fresh.Hash())
	}
	populate(tr, nothing)
	ref := NewTrace()
	populate(ref, nothing)
	if tr.Hash() != ref.Hash() {
		t.Fatalf("post-rewind hash %#x, fresh-trace hash %#x", tr.Hash(), ref.Hash())
	}
}

// referenceHash is the digest's definition, kept here independent of
// the trace's folding: FNV-1a over every record's rendered line
// "at|kind|cpu|msg\n", byte by byte.
func referenceHash(recs []Record) uint64 {
	h := fnv.New64a()
	for _, r := range recs {
		fmt.Fprintf(h, "%d|%d|%d|%s\n", int64(r.At), uint8(r.Kind), r.CPU, r.Msg)
	}
	return h.Sum64()
}

// traceOps appends n pseudo-random records covering every shape the
// suffix memo distinguishes: hot periodic records (the vIRQ shape: same
// kind, cpu, text and sub-millisecond offset every millisecond), a
// pool of repeated texts wider than the memo (so tables are recycled),
// one-off texts, Add and Addf with and without arguments, timestamps
// of -1, 0, below one millisecond and exactly one millisecond, and cpu
// -1. uniq numbers the one-off texts across calls.
func traceOps(tr *Trace, rng *RNG, n int, uniq *int) {
	hot := []string{`vIRQ 27 → cell "freertos-cell"`, `vIRQ 27 → cell "banana-pi"`}
	var pool []string
	for i := 0; i < 3*suffixSlots; i++ {
		pool = append(pool, fmt.Sprintf("watchdog: cell %d state=running", i))
	}
	pool = append(pool, "", "→")
	stamps := []Time{-1, 0, 1, 999_999, Millisecond, Millisecond + 100_000, Minute}
	for i := 0; i < n; i++ {
		ms := Time(1+rng.Intn(60_000)) * Millisecond
		switch rng.Intn(8) {
		case 0:
			*uniq++
			tr.Add(stamps[rng.Intn(len(stamps))], KindUART, -1, fmt.Sprintf("uart line %d", *uniq))
		case 1:
			cpu := rng.Intn(2)
			tr.Addf(ms+Time(rng.Intn(1000)), KindIRQ, cpu, "irq %d asserted on cpu%d", Int(int64(32+rng.Intn(8))), Int(int64(cpu)))
		case 2:
			tr.Addf(stamps[rng.Intn(len(stamps))], Kind(1+rng.Intn(int(KindWedge))), rng.Intn(4)-1, pool[rng.Intn(len(pool))])
		case 3:
			tr.Add(ms, KindCellEvent, rng.Intn(2), pool[rng.Intn(len(pool))])
		default:
			cpu := rng.Intn(2)
			tr.Add(ms+100_000, KindIRQ, cpu, hot[cpu])
		}
	}
}

// TestTraceHashMatchesReference checks the folded digest against the
// reference byte loop across mixed traces, rewinds to no records,
// checkpoint rewinds, and Hash read after every append versus once at
// the end, on one trace whose memo is carried through all of it.
func TestTraceHashMatchesReference(t *testing.T) {
	rng := NewRNG(42)
	uniq := 0
	check := func(step string, tr *Trace) {
		t.Helper()
		if got, want := tr.Hash(), referenceHash(tr.Records()); got != want {
			t.Fatalf("%s: hash %#x, reference %#x", step, got, want)
		}
	}
	tr := NewTrace()
	for round := 0; round < 20; round++ {
		empty(tr)
		if round%2 == 0 {
			hashingOps(tr, rng, 400, &uniq)
		} else {
			traceOps(tr, rng, 400, &uniq)
		}
		check(fmt.Sprintf("round %d", round), tr)
	}
	if tr.memo.n != suffixSlots {
		t.Fatalf("memo holds %d tables after 20 rounds, want all %d slots in use", tr.memo.n, suffixSlots)
	}

	// Checkpoint restore: a golden prefix, then runs that each rewind to
	// it, reading the published log as their base, alternate hashing
	// after every append and at the end, and check every run.
	empty(tr)
	traceOps(tr, rng, 50, &uniq)
	_ = tr.Hash()
	traceOps(tr, rng, 10, &uniq)
	mark := tr.Mark() // folds the digest up to the mark
	golden := tr.Publish(nil)
	for run := 0; run < 20; run++ {
		tr.Rewind(golden, mark)
		if run%2 == 1 {
			hashingOps(tr, rng, 300, &uniq)
		} else {
			traceOps(tr, rng, 300, &uniq)
		}
		check(fmt.Sprintf("restored run %d", run), tr)
	}

	// The same records hash identically on a cold trace and on the warm
	// trace whose memo has seen everything above.
	cold := NewTrace()
	empty(tr)
	coldN, warmN := uniq, uniq
	traceOps(cold, NewRNG(7), 500, &coldN)
	traceOps(tr, NewRNG(7), 500, &warmN)
	check("cold trace", cold)
	if cold.Hash() != tr.Hash() {
		t.Fatalf("warm memo hash %#x, cold trace %#x", tr.Hash(), cold.Hash())
	}
}

// TestSuffixMemoBoundedAcrossPooledRuns recycles one trace through 500
// checkpoint-restored runs, as a pooled machine does, each run repeating
// texts no other run uses. The memo must stay within its slot cap,
// recycle its tables in place without allocating, and keep the digest
// exact throughout.
func TestSuffixMemoBoundedAcrossPooledRuns(t *testing.T) {
	const runs, perRun = 500, 20
	texts := make([][]string, runs)
	for r := range texts {
		for j := 0; j < perRun; j++ {
			texts[r] = append(texts[r], fmt.Sprintf("run %d task %d switched", r, j))
		}
	}
	tr := NewTrace()
	tr.Add(0, KindBoot, -1, "power on")
	mark := tr.Mark()
	golden := tr.Publish(nil)
	run := 0
	oneRun := func() {
		tr.Rewind(golden, mark)
		for rep := 0; rep < 3; rep++ {
			for j, s := range texts[run] {
				at := Time(rep*perRun+j+1) * Millisecond
				tr.Add(at+100_000, KindIRQ, 1, `vIRQ 27 → cell "freertos-cell"`)
				tr.Add(at, KindTask, 0, s)
			}
		}
		_ = tr.Hash()
		run++
	}
	for run < 100 {
		oneRun()
	}
	if got := testing.AllocsPerRun(runs-run-1, oneRun); got != 0 {
		t.Fatalf("steady-state pooled run allocates %.0f times, want 0", got)
	}
	if run != runs || tr.memo.n > suffixSlots {
		t.Fatalf("after %d runs the memo holds %d tables, cap %d", run, tr.memo.n, suffixSlots)
	}
	if got, want := tr.Hash(), referenceHash(tr.Records()); got != want {
		t.Fatalf("last run: hash %#x, reference %#x", got, want)
	}
}

// TestRepeatedAddAllocatesNothing pins the hot path: appending a
// repeated text and folding it into the digest allocates nothing.
func TestRepeatedAddAllocatesNothing(t *testing.T) {
	tr := NewTrace()
	tr.Grow(4096, 0)
	at := Millisecond + 100_000
	add := func() {
		tr.Add(at, KindIRQ, 1, `vIRQ 27 → cell "freertos-cell"`)
		_ = tr.Hash()
		at += Millisecond
	}
	if got := testing.AllocsPerRun(2000, add); got != 0 {
		t.Fatalf("repeated Add and Hash allocate %.2f times per call, want 0", got)
	}
}

// TestOneOffTextsClaimNoTable: texts seen once (UART lines, console
// notes) only enter the candidate ring — no table, no allocation.
func TestOneOffTextsClaimNoTable(t *testing.T) {
	texts := make([]string, 2001)
	for i := range texts {
		texts[i] = fmt.Sprintf("[ %4d.%03d] console note %d", i/1000, i%1000, i)
	}
	tr := NewTrace()
	tr.Grow(4096, 0)
	i := 0
	add := func() {
		tr.Add(Time(i)*Millisecond, KindUART, -1, texts[i])
		_ = tr.Hash()
		i++
	}
	if got := testing.AllocsPerRun(2000, add); got != 0 {
		t.Fatalf("one-off Add and Hash allocate %.2f times per call, want 0", got)
	}
	if tr.memo.n != 0 {
		t.Fatalf("one-off texts promoted %d suffix tables, want none", tr.memo.n)
	}
}

// TestAddfArgumentBound: a record holds up to 255 deferred arguments
// and, once rendered, reads and hashes as final text; one more panics.
func TestAddfArgumentBound(t *testing.T) {
	args := make([]Arg, 256)
	want := ""
	for i := range args {
		args[i] = Int(int64(i))
		if i < 255 {
			want += fmt.Sprint(i) + " "
		}
	}
	format := strings.Repeat("%d ", 255)
	rendered, deferred := NewTrace(), NewTrace()
	rendered.Addf(1, KindNote, 0, format, args[:255]...)
	deferred.Addf(1, KindNote, 0, format, args[:255]...)
	if got := rendered.Records()[0].Msg; got != want {
		t.Fatalf("255 arguments rendered %q", got)
	}
	if n := rendered.recs[0].argN; n != 0 {
		t.Fatalf("a rendered record keeps %d pending arguments", n)
	}
	if rendered.Hash() != deferred.Hash() {
		t.Fatal("a rendered record hashes differently from its deferred twin")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Addf with 256 arguments did not panic")
		}
	}()
	rendered.Addf(2, KindNote, 0, format+"%d", args...)
}
