package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// goldenKinds are the kinds goldenOps writes: no park, panic, HYP trap
// or wedge, as on the fault-free trajectory, so a scan for those kinds
// can skip the pieces of a log made of them.
var goldenKinds = []Kind{KindBoot, KindUART, KindIRQ, KindTrap, KindHypercall, KindCellEvent, KindLED, KindTask, KindNote}

// goldenOps appends n pseudo-random golden records: hot periodic
// suffixes (tables in the fold plan), a pool of repeated texts, one-off
// lines, formatted records whose arguments render at publish, and
// stamps below one millisecond, at zero and past eight head digits.
func goldenOps(tr *Trace, rng *RNG, n int, uniq *int) {
	stamps := []Time{0, 1, 999_999, Millisecond, 100_000_000 * Millisecond}
	for i := 0; i < n; i++ {
		at := Time(1+rng.Intn(60_000))*Millisecond + 100_000
		kind := goldenKinds[rng.Intn(len(goldenKinds))]
		switch rng.Intn(6) {
		case 0:
			*uniq++
			tr.Add(stamps[rng.Intn(len(stamps))], KindUART, -1, fmt.Sprintf("golden line %d", *uniq))
		case 1:
			tr.Addf(at, kind, rng.Intn(2), "watchdog: cell %d state=%v", Int(int64(rng.Intn(3))), Str("running"))
		case 2:
			tr.Add(stamps[rng.Intn(len(stamps))], kind, rng.Intn(3)-1, fmt.Sprintf("note %d", rng.Intn(4)))
		default:
			cpu := rng.Intn(2)
			tr.Add(at, KindIRQ, cpu, fmt.Sprintf(`vIRQ 27 → cell %d`, cpu))
		}
	}
}

// publishedGolden builds a golden trace published in several versions
// and returns the versions, the marks taken between them and the
// trace's records.
func publishedGolden(rng *RNG, uniq *int) (logs []*TraceLog, marks []TraceMark, recs []Record) {
	g := NewTrace()
	marks = append(marks, g.Mark())
	var l *TraceLog
	for v := 0; v < 4; v++ {
		for m := 0; m < 3; m++ {
			n := 40 + rng.Intn(80)
			if m == 1 {
				n = 1 // one-record stretches
			}
			goldenOps(g, rng, n, uniq)
			marks = append(marks, g.Mark())
		}
		l = g.Publish(l)
		logs = append(logs, l)
	}
	return logs, marks, g.Records()
}

// covering returns a random version of logs that holds mark m.
func covering(rng *RNG, logs []*TraceLog, m TraceMark) *TraceLog {
	for {
		if l := logs[rng.Intn(len(logs))]; l.Len() >= m.recs {
			return l
		}
	}
}

// collectMeta returns what ScanMetaFrom or ScanKindsFrom (kinds
// non-nil) visits from position from, stopping after stop records.
func collectMeta(tr *Trace, from, stop int, kinds *KindSet) []Record {
	var out []Record
	fn := func(at Time, kind Kind, cpu int) bool {
		out = append(out, Record{At: at, Kind: kind, CPU: cpu})
		return len(out) < stop
	}
	if kinds != nil {
		tr.ScanKindsFrom(from, *kinds, fn)
	} else {
		tr.ScanMetaFrom(from, fn)
	}
	return out
}

// sameTrace fails unless tr, which holds pieces, reads exactly like ref,
// which appended the same records: length, every scan, the kind-filtered
// scans, dumps, counts, searches and the digest.
func sameTrace(t *testing.T, step string, rng *RNG, tr, ref *Trace) {
	t.Helper()
	if tr.Len() != ref.Len() {
		t.Fatalf("%s: Len %d, appended trace %d", step, tr.Len(), ref.Len())
	}
	want := ref.Records()
	if got := tr.Records(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Records differ from the appended trace", step)
	}
	var scanned []Record
	tr.Scan(func(r Record) bool { scanned = append(scanned, r); return true })
	if !reflect.DeepEqual(scanned, want) {
		t.Fatalf("%s: Scan differs from the appended trace", step)
	}
	var meta []Record
	tr.ScanMeta(func(at Time, kind Kind, cpu int) bool {
		meta = append(meta, Record{At: at, Kind: kind, CPU: cpu})
		return true
	})
	if !reflect.DeepEqual(meta, collectMeta(ref, 0, ref.Len()+1, nil)) {
		t.Fatalf("%s: ScanMeta differs from the appended trace", step)
	}
	for i := 0; i < 8; i++ {
		from, stop := rng.Intn(ref.Len()+2), 1+rng.Intn(ref.Len()+1)
		if got, w := collectMeta(tr, from, stop, nil), collectMeta(ref, from, stop, nil); !reflect.DeepEqual(got, w) {
			t.Fatalf("%s: ScanMetaFrom(%d) stopping after %d differs", step, from, stop)
		}
		kinds := Kinds(Kind(1+rng.Intn(int(KindWedge))), Kind(1+rng.Intn(int(KindWedge))))
		if i%2 == 0 {
			kinds = Kinds(KindPark, KindPanic, KindHypTrap, KindWedge)
		}
		var w []Record
		for _, r := range collectMeta(ref, from, ref.Len()+1, nil) {
			if kinds.Has(r.Kind) && len(w) < stop {
				w = append(w, r)
			}
		}
		if got := collectMeta(tr, from, stop, &kinds); !reflect.DeepEqual(got, w) {
			t.Fatalf("%s: ScanKindsFrom(%d, %#x) stopping after %d: %d records, want %d", step, from, kinds, stop, len(got), len(w))
		}
	}
	if tr.Dump() != ref.Dump() || tr.Dump(KindIRQ, KindUART) != ref.Dump(KindIRQ, KindUART) {
		t.Fatalf("%s: Dump differs from the appended trace", step)
	}
	k := Kind(1 + rng.Intn(int(KindWedge)))
	if tr.Count(k) != ref.Count(k) || !reflect.DeepEqual(tr.Filter(k), ref.Filter(k)) ||
		!reflect.DeepEqual(tr.CountsByKind(), ref.CountsByKind()) || tr.Summary() != ref.Summary() {
		t.Fatalf("%s: Count/Filter/CountsByKind differ from the appended trace", step)
	}
	if len(want) > 0 {
		msg := want[rng.Intn(len(want))].Msg
		if !tr.Contains(msg) || tr.Contains(msg+"\x00absent") {
			t.Fatalf("%s: Contains(%q) differs from the appended trace", step, msg)
		}
	}
	if got, w := tr.Hash(), ref.Hash(); got != w || w != referenceHash(want) {
		t.Fatalf("%s: hash %#x, appended trace %#x, reference %#x", step, got, w, referenceHash(want))
	}
}

// sameOps appends the same n golden records, drawn from seed, to every
// trace in traces.
func sameOps(seed uint64, n int, uniq *int, traces ...*Trace) {
	u := *uniq
	for _, tr := range traces {
		*uniq = u
		goldenOps(tr, NewRNG(seed), n, uniq)
	}
}

// appended returns a fresh trace that appends recs.
func appended(recs []Record) *Trace {
	tr := NewTrace()
	for _, r := range recs {
		tr.Add(r.At, r.Kind, r.CPU, r.Msg)
	}
	return tr
}

// TestSpliceMatchesAppend: splicing golden stretches by reference must
// be indistinguishable from appending the same records. One trace is
// rewound to random marks of a log published in several versions, then
// gets own appends (arguments, repeated and one-off suffixes, stamps
// below one millisecond) interleaved with splices of random stretches,
// with Hash read after every append and splice from the start, at the
// end only, or from midway on, and also read at random points. A fresh trace appends
// the same records; the two must agree on every reader. So must a trace
// that publishes after a Rewind, and one that publishes to a lineage
// already longer than itself.
func TestSpliceMatchesAppend(t *testing.T) {
	rng := NewRNG(2022)
	uniq := 0
	logs, marks, golden := publishedGolden(rng, &uniq)
	appendGolden := func(ref *Trace, from, to TraceMark) {
		for _, r := range golden[from.recs:to.recs] {
			ref.Add(r.At, r.Kind, r.CPU, r.Msg)
		}
	}
	tr := NewTrace()
	for round := 0; round < 60; round++ {
		step := fmt.Sprintf("round %d", round)
		start := marks[rng.Intn(len(marks))]
		tr.Rewind(covering(rng, logs, start), start)
		ref := NewTrace()
		appendGolden(ref, TraceMark{}, start)
		mode := round % 3 // 0: Hash after every append from the start, 1: end only, 2: from midway on
		ops := 1 + rng.Intn(8)
		for op := 0; op < ops; op++ {
			each := mode == 0 || mode == 2 && op >= ops/2
			if rng.Intn(4) == 0 {
				_ = tr.Hash()
			}
			if rng.Intn(2) == 0 {
				seed, n := rng.Uint64(), rng.Intn(40)
				u := uniq
				if each {
					hashingOps(tr, NewRNG(seed), n, &uniq)
				} else {
					traceOps(tr, NewRNG(seed), n, &uniq)
				}
				traceOps(ref, NewRNG(seed), n, &u)
				continue
			}
			i := rng.Intn(len(marks))
			j := i + rng.Intn(len(marks)-i)
			tr.Splice(covering(rng, logs, marks[j]), marks[i], marks[j])
			if each {
				_ = tr.Hash()
			}
			appendGolden(ref, marks[i], marks[j])
		}
		sameTrace(t, step, rng, tr, ref)
	}

	// Two machines recording one golden run: a records 50 records and
	// publishes them, then both are rewound to that mark. a records 80
	// more and publishes them after its Rewind; b, which has recorded
	// only 30 of those, publishes to the now longer lineage, which moves
	// its base and publishes nothing. b then records past the lineage's
	// end and publishes the rest.
	ref, a, b := NewTrace(), NewTrace(), NewTrace()
	sameOps(1, 50, &uniq, ref, a)
	m1 := a.Mark()
	l1 := a.Publish(nil)
	a.Rewind(l1, m1)
	b.Rewind(l1, m1)
	u, rb := uniq, NewRNG(2)
	goldenOps(b, rb, 30, &u)
	sameOps(2, 80, &uniq, ref, a)
	l2 := a.Publish(l1)
	if l2.Len() != ref.Len() || len(l2.segs) != 2 {
		t.Fatalf("Publish after Rewind: %d records in %d segments, want %d in 2", l2.Len(), len(l2.segs), ref.Len())
	}
	sameTrace(t, "Publish after Rewind", rng, a, ref)
	if got := b.Publish(l2); got != l2 {
		t.Fatal("a trace shorter than its lineage extended it")
	}
	sameTrace(t, "Publish to a longer lineage", rng, b, appended(ref.Records()[:m1.recs+30]))
	goldenOps(b, rb, 50, &u)
	sameOps(3, 40, &uniq, ref, b)
	l3 := b.Publish(l2)
	if l3.Len() != ref.Len() || len(l3.segs) != 3 {
		t.Fatalf("Publish past a longer lineage: %d records in %d segments, want %d in 3", l3.Len(), len(l3.segs), ref.Len())
	}
	sameTrace(t, "Publish past a longer lineage", rng, b, ref)
	c := NewTrace()
	c.Rewind(l3, m1)
	c.Splice(l3, m1, b.Mark())
	sameTrace(t, "splice across segments", rng, c, ref)
}

// TestRewindInstallsBaseWithoutCopying: a trace rewound to the last mark
// of a golden minute, published one second at a time, reads the minute
// from the log: its own record and argument arenas are empty, it reads
// like the golden trace, and the restore allocates nothing.
func TestRewindInstallsBaseWithoutCopying(t *testing.T) {
	rng := NewRNG(60)
	uniq := 0
	g := NewTrace()
	var l *TraceLog
	for s := 0; s < 60; s++ {
		goldenOps(g, rng, 200, &uniq)
		l = g.Publish(l)
	}
	last := g.Mark()
	ref := appended(g.Records())
	tr := NewTrace()
	run := func() {
		for i := 0; i < 100; i++ {
			tr.Addf(Time(i)*Millisecond, KindNote, 0, "run record %d", Int(int64(i)))
		}
		tr.Rewind(l, last)
	}
	run()
	if len(tr.recs) != 0 || tr.ArgLen() != 0 || tr.Len() != l.Len() {
		t.Fatalf("rewound trace holds %d own records and %d arguments, length %d; want 0, 0, %d",
			len(tr.recs), tr.ArgLen(), tr.Len(), l.Len())
	}
	sameTrace(t, "rewound to the last mark", rng, tr, ref)
	if got := testing.AllocsPerRun(50, run); got != 0 {
		t.Fatalf("a run and its restore allocate %.0f times, want 0", got)
	}
}

// TestMarkAndPublishRefuseSplicedTrace: a trace holding pieces is off
// the golden trajectory, so it can be neither marked nor published. A
// base installed by Rewind is no piece: a trace holding one is marked
// and published.
func TestMarkAndPublishRefuseSplicedTrace(t *testing.T) {
	g := NewTrace()
	from := g.Mark()
	g.Add(Millisecond, KindNote, 0, "golden")
	to := g.Mark()
	l := g.Publish(nil)
	for name, op := range map[string]func(*Trace){
		"Mark":    func(tr *Trace) { tr.Mark() },
		"Publish": func(tr *Trace) { tr.Publish(l) },
	} {
		for _, rewound := range []bool{false, true} {
			tr := NewTrace()
			if rewound {
				tr.Rewind(l, from) // a base does not hide a piece
			}
			tr.Splice(l, from, to)
			func() {
				defer func() {
					if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "spliced") {
						t.Errorf("%s on a spliced trace (rewound %v): recovered %v, want a panic", name, rewound, r)
					}
				}()
				op(tr)
			}()
		}
	}

	tr := NewTrace()
	tr.Rewind(l, to)
	tr.Add(2*Millisecond, KindNote, 0, "golden too")
	if m := tr.Mark(); m.recs != 2 {
		t.Fatalf("Mark on a rewound trace: %d records, want 2", m.recs)
	}
	if l2 := tr.Publish(l); l2.Len() != 2 || tr.Len() != 2 || len(tr.recs) != 0 {
		t.Fatalf("Publish on a rewound trace: log of %d, trace of %d with %d own records; want 2, 2, 0", l2.Len(), tr.Len(), len(tr.recs))
	}
}

// TestFoldPlanTablesRepeatedSuffixesOnly: across a lineage's
// publications, a suffix gets one fully learned table on its second
// sighting and keeps it; first sightings and one-off lines fold byte by
// byte; every step carries its record's millisecond head.
func TestFoldPlanTablesRepeatedSuffixesOnly(t *testing.T) {
	tr := NewTrace()
	hot := func(ms Time) { tr.Add(ms*Millisecond+100_000, KindIRQ, 1, `vIRQ 27 → cell "freertos-cell"`) }
	hot(1)
	tr.Add(7*Millisecond, KindUART, -1, "one-off a")
	l := tr.Publish(nil)
	hot(2)
	hot(13)
	tr.Addf(14*Millisecond, KindNote, 0, "one-off %d", Int(2))
	l = tr.Publish(l)

	type step struct {
		head string
		tab  uint16
	}
	var got []step
	for _, seg := range l.segs {
		for _, s := range seg.plan {
			var d []byte
			for h, n := s.head, s.n; n > 0; h, n = h>>4, n-1 {
				d = append(d, byte('0'+h&0xf))
			}
			got = append(got, step{string(d), s.tab})
		}
	}
	want := []step{{"1", 0}, {"7", 0}, {"2", 1}, {"13", 1}, {"14", 0}}
	if !reflect.DeepEqual(got, want) || l.tabs.Len() != 1 || l.Len() != len(want) || len(l.segs) != 2 {
		t.Fatalf("plan %v with %d tables over %d records in %d segments, want %v with 1 table in 2 segments",
			got, l.tabs.Len(), l.Len(), len(l.segs), want)
	}
	if size := unsafe.Sizeof(foldStep{}); size != 8 {
		t.Fatalf("a fold step takes %d bytes, want 8", size)
	}
	if size := unsafe.Sizeof(record{}); size != 32 {
		t.Fatalf("a trace record takes %d bytes, want 32", size)
	}
	if l.kinds != Kinds(KindIRQ, KindUART, KindNote) {
		t.Fatalf("log kinds %#x, want IRQ|UART|NOTE", l.kinds)
	}
	tab := l.tabs.Items()[0]
	suffix := []byte("100000|3|1|vIRQ 27 → cell \"freertos-cell\"\n")
	for lo := 0; lo < 256; lo++ {
		h := uint64(lo)<<40 | uint64(lo)
		if got, ok := tab.fold(h); !ok || got != fnvFold(h, suffix) {
			t.Fatalf("table entry %d: fold %#x (learned %v), byte loop %#x", lo, got, ok, fnvFold(h, suffix))
		}
	}
}
