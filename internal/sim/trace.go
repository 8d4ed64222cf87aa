package sim

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Kind classifies trace records so analytics can filter cheaply.
type Kind uint8

// Trace record kinds. They cover every observable the paper's test
// framework collected from the serial line plus hypervisor-internal
// events the real rig could not see (useful for debugging the rig itself).
const (
	KindBoot Kind = iota + 1
	KindUART
	KindIRQ
	KindTrap
	KindHypercall
	KindInjection
	KindCellEvent
	KindPanic
	KindPark
	KindLED
	KindTask
	KindNote
	KindHypTrap
	KindWedge
)

var kindNames = map[Kind]string{
	KindBoot:      "BOOT",
	KindUART:      "UART",
	KindIRQ:       "IRQ",
	KindTrap:      "TRAP",
	KindHypercall: "HVC",
	KindInjection: "INJECT",
	KindCellEvent: "CELL",
	KindPanic:     "PANIC",
	KindPark:      "PARK",
	KindLED:       "LED",
	KindTask:      "TASK",
	KindNote:      "NOTE",
	KindHypTrap:   "HVTRAP",
	KindWedge:     "WEDGE",
}

// String returns the short uppercase tag for the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("KIND(%d)", uint8(k))
}

// KindSet is a set of record kinds: bit k stands for Kind k. Kinds past
// 63 are never members.
type KindSet uint64

// Kinds returns the set holding the given kinds.
func Kinds(kinds ...Kind) KindSet {
	var s KindSet
	for _, k := range kinds {
		s |= 1 << k
	}
	return s
}

// Has reports whether k is in the set.
func (s KindSet) Has(k Kind) bool { return s&(1<<k) != 0 }

// argKind discriminates the typed argument union.
type argKind uint8

const (
	argInt argKind = iota
	argUint
	argStr
)

// Arg is one deferred format argument. Args are small typed values stored
// unboxed in the trace's argument arena, so recording them costs no heap
// allocation; they are only converted for fmt when a record is rendered.
type Arg struct {
	s string
	n uint64
	k argKind
}

// Int wraps a signed integer argument (for %d, %x, %v of ints).
func Int(v int64) Arg { return Arg{n: uint64(v), k: argInt} }

// Uint wraps an unsigned integer argument (for %d, %#x of uints).
func Uint(v uint64) Arg { return Arg{n: v, k: argUint} }

// Str wraps a string argument (for %s, %q, or pre-rendered %v values).
func Str(s string) Arg { return Arg{s: s, k: argStr} }

// value returns the boxed fmt operand. Only called on the render path.
func (a Arg) value() any {
	switch a.k {
	case argInt:
		return int64(a.n)
	case argUint:
		return a.n
	default:
		return a.s
	}
}

// Record is one timestamped trace entry.
type Record struct {
	At   Time
	Kind Kind
	CPU  int // -1 when not CPU-specific
	Msg  string
}

// String renders the record in the log style used throughout the repo.
func (r Record) String() string {
	cpu := "  -"
	if r.CPU >= 0 {
		cpu = fmt.Sprintf("cpu%d", r.CPU)
	}
	return fmt.Sprintf("%s %-6s %s %s", r.At, r.Kind, cpu, r.Msg)
}

// record is the internal, compact form: formatting is deferred — the
// format string and typed args are kept and only rendered (once, cached)
// when somebody actually reads the message.
type record struct {
	at Time
	// text is the final message when argN is 0, otherwise the pending
	// format string of the argN arguments at argPos; rendering zeroes
	// argN. One field for both keeps the record at 32 bytes, which
	// matters: arenas, golden logs and checkpoints hold hundreds of
	// thousands of records, and every append crosses the write barrier
	// once per string field.
	text   string
	argPos uint32 // index into Trace.args
	argN   uint8
	kind   Kind
	cpu    int16
}

// Trace accumulates records for one run. It is deliberately append-only;
// classifiers and analytics read it after the run completes. Records store
// their format string and small typed args instead of a rendered message,
// so the per-event hot path performs no fmt work and no allocation beyond
// the amortised growth of the reusable record/argument buffers.
//
// A trace restored to a golden checkpoint does not copy the golden
// records before it: its base is the leading stretch of a published
// TraceLog, read in place, and its own records follow. A run that
// rejoins the golden trajectory does not copy the golden records it
// skips either: Splice records a piece — a stretch of a published
// TraceLog — at its position among the trace's own records. Every
// reader sees the logical sequence: the base, then own records and
// pieces in order.
type Trace struct {
	// The first nbase records of the published log base are the
	// trace's first records: Rewind installs them, Publish moves them
	// over what it publishes.
	base  *TraceLog
	nbase int

	recs []record // the trace's own records, after the base
	args []Arg

	// pieces are the spliced golden stretches in order; piece.at places
	// each among recs. spliced counts their records.
	pieces  []piece
	spliced int

	// Hash state. hstate is the running FNV-1a digest over the first
	// hashed records of the logical sequence; Hash folds the remainder
	// on demand, formatting into a scratch buffer, so no rendered
	// message string is allocated for hash-only readers.
	hstate uint64
	hashed int
	hbuf   []byte       // reusable per-record hash line buffer
	argv   []any        // reusable boxed-operand scratch for fmt.Appendf
	memo   suffixMemo   // suffix tables; kept across rewinds
	head   decimalCache // digits of the last folded millisecond head
}

// piece is a spliced golden stretch: records [from, to) of log, placed
// after the trace's first at own records.
type piece struct {
	log          *TraceLog
	from, to, at int
}

// NewTrace returns an empty trace.
func NewTrace() *Trace { return &Trace{hstate: fnvOffset64} }

// Grow pre-sizes the record and argument arenas to hold at least recs
// records and args arguments without reallocating — the plan-profile
// hint campaign runs pass in so a cold machine build performs one
// arena allocation per buffer instead of a doubling cascade (and its
// copies) as the run's events stream in. Existing contents are kept;
// a smaller-than-current hint is a no-op, so warm (reused) traces
// never shrink.
func (t *Trace) Grow(recs, args int) {
	if recs > cap(t.recs) {
		grown := make([]record, len(t.recs), recs)
		copy(grown, t.recs)
		t.recs = grown
	}
	if args > cap(t.args) {
		grown := make([]Arg, len(t.args), args)
		copy(grown, t.args)
		t.args = grown
	}
}

// TraceMark is a trace position captured into a checkpoint: the record
// count plus the running digest over exactly those records. The records
// themselves live once in the golden TraceLog, not in every checkpoint.
type TraceMark struct {
	recs   int
	hstate uint64
}

// Mark returns the trace's current position with the digest fully
// folded (hashed == Len), so a trace rewound to the mark never re-folds
// its prefix. Only a trace on the golden trajectory is marked: it may
// have a base, but holds no pieces.
func (t *Trace) Mark() TraceMark {
	t.mustHoldNoPieces("Mark")
	t.fold()
	return TraceMark{recs: t.Len(), hstate: t.hstate}
}

// mustHoldNoPieces panics when the trace holds spliced pieces.
func (t *Trace) mustHoldNoPieces(op string) {
	if len(t.pieces) > 0 {
		panic("sim: Trace." + op + " on a trace holding spliced golden records")
	}
}

// TraceLog is the published fault-free prefix of a trace, shared
// read-only by every machine on one golden trajectory, like a Prefix.
// Records are rendered before publication, so a trace reading them as
// its base or a piece never renders them — and render() only ever
// writes into a machine's own records.
//
// The records lie in segments, one per publication that added any,
// each holding its records and their fold plan: one foldStep per
// record, naming the suffix tables the log holds, so a published
// stretch folds into a digest without building a single hash line.
// Segments and tables are immutable once published. Versions of one
// lineage share the segment list's backing array, but a publication only
// appends past the end of the newest version, so readers need no lock
// and no record array is ever regrown.
type TraceLog struct {
	segs []logSegment
	n    int // records in segs
	tabs *Prefix[*suffixTable]
	// kinds holds every record kind in the log.
	kinds KindSet
	// suffixes maps each suffix the lineage has seen to 1 + the index of
	// its table in tabs, or to 0 while it was sighted once: a suffix
	// gets its table on its second sighting, so one-off lines (UART
	// transcripts, console notes) never claim one. All versions of a
	// lineage share the map; only Publish touches it.
	suffixes map[suffixKey]uint16
}

// logSegment is the stretch of records one publication added to a
// lineage, starting at log position start; plan[i] is recs[i]'s fold
// step.
type logSegment struct {
	start int
	recs  []record
	plan  []foldStep
}

// foldStep is one published record's hash line, prepared for folding
// in 8 bytes: the decimal digits of its whole-millisecond head (n of
// them, packed four bits each from the low end) and its suffix table,
// tabs[tab-1]. A step with tab 0 (a suffix sighted once so far) or n 0
// (a head that is negative or has more than eight digits) folds its
// line byte by byte instead.
type foldStep struct {
	head uint32
	tab  uint16
	n    uint8
}

// maxPlanTables bounds a lineage's suffix tables to what a step can
// name; later repeated suffixes fold byte by byte.
const maxPlanTables = 1<<16 - 1

// Len returns how many records the log holds.
func (l *TraceLog) Len() int {
	if l == nil {
		return 0
	}
	return l.n
}

// segment returns the index of the segment holding record i < l.Len().
func (l *TraceLog) segment(i int) int {
	lo, hi := 0, len(l.segs)-1
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); l.segs[mid].start+len(l.segs[mid].recs) > i {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Publish returns l extended with this trace's records past l's end,
// rendered, as one segment with its fold plan, and moves the trace's
// base over all of its records, which empties its own record and
// argument arenas. When l already holds as many records as the trace,
// l is returned as it is and only the base moves. l must be the newest
// version of the lineage the trace's base was published to (a nil l
// starts one), and the trace a later state of the same golden run,
// holding no pieces.
func (t *Trace) Publish(l *TraceLog) *TraceLog {
	t.mustHoldNoPieces("Publish")
	n := t.Len()
	if have := l.Len(); have < n {
		l = t.extend(l, t.recs[have-t.nbase:])
	}
	t.base, t.nbase = l, n
	clear(t.recs)
	clear(t.args)
	t.recs, t.args = t.recs[:0], t.args[:0]
	return l
}

// extend returns l followed by a segment holding recs, the trace's own
// records, rendered first, and their fold plan.
func (t *Trace) extend(l *TraceLog, recs []record) *TraceLog {
	out := &TraceLog{}
	if l != nil {
		*out = *l
	}
	if out.suffixes == nil {
		out.suffixes = make(map[suffixKey]uint16)
	}
	seg := logSegment{start: out.n, recs: make([]record, len(recs)), plan: make([]foldStep, len(recs))}
	var tabs []*suffixTable
	// recent holds the last two suffixes found with a table, checked
	// before the map: periodic interrupts alternate between a few.
	var recent [2]suffixKey
	var recentTab [2]uint16
	for i := range recs {
		r := &recs[i]
		t.render(r)
		out.kinds |= Kinds(r.kind)
		key, head := suffixOf(r)
		s := &seg.plan[i]
		s.head, s.n = packDigits(head)
		switch {
		case recentTab[0] != 0 && key == recent[0]:
			s.tab = recentTab[0]
		case recentTab[1] != 0 && key == recent[1]:
			s.tab = recentTab[1]
		default:
			if s.tab = out.sighted(key, &tabs); s.tab != 0 {
				recent[1], recentTab[1] = recent[0], recentTab[0]
				recent[0], recentTab[0] = key, s.tab
			}
		}
	}
	copy(seg.recs, recs)
	out.segs = append(out.segs, seg)
	out.n += len(recs)
	out.tabs = out.tabs.Append(tabs...)
	return out
}

// sighted records a sighting of suffix key during a publication of l
// that has built tabs so far, and returns key's table index (0: none).
// The second sighting builds the table, appended to tabs.
func (l *TraceLog) sighted(key suffixKey, tabs *[]*suffixTable) uint16 {
	tab, seen := l.suffixes[key]
	switch {
	case !seen:
		l.suffixes[key] = 0
	case tab == 0 && l.tabs.Len()+len(*tabs) < maxPlanTables:
		st := new(suffixTable)
		st.learnAll(key.appendTo(nil))
		*tabs = append(*tabs, st)
		tab = uint16(l.tabs.Len() + len(*tabs))
		l.suffixes[key] = tab
	}
	return tab
}

// packDigits returns v's decimal digits packed four bits each, first
// digit lowest, and their count; a count of 0 when v is negative or has
// more than eight digits.
func packDigits(v int64) (uint32, uint8) {
	if v < 0 || v > 99_999_999 {
		return 0, 0
	}
	var p uint32
	n := uint8(1)
	for ; v >= 10; v /= 10 {
		p = p<<4 | uint32(v%10)
		n++
	}
	return p<<4 | uint32(v), n
}

// Rewind rewrites the trace to the golden prefix ending at mark to of
// log l: l up to the mark becomes the trace's base, read in place, and
// the trace's own records, arguments and pieces are dropped, so no
// record is copied whatever the mark.
func (t *Trace) Rewind(l *TraceLog, to TraceMark) {
	if l.Len() < to.recs {
		panic("sim: Trace.Rewind to a mark past the end of its log")
	}
	clear(t.pieces)
	clear(t.recs)
	clear(t.args)
	t.pieces, t.spliced = t.pieces[:0], 0
	t.recs, t.args = t.recs[:0], t.args[:0]
	t.base, t.nbase = l, to.recs
	t.hstate, t.hashed = to.hstate, to.recs
}

// Add appends a record whose message needs no formatting.
func (t *Trace) Add(at Time, kind Kind, cpu int, msg string) {
	t.recs = append(t.recs, record{
		at: at, text: msg, kind: kind, cpu: int16(cpu),
	})
}

// Addf appends a record with deferred formatting: format and args are
// stored as-is and rendered only if Dump, Hash, Contains or a scan reads
// the message. args must render byte-identically to the values the call
// site would have passed to fmt.Sprintf (use Str(x.String()) for %v/%s of
// Stringers, Str(fmt.Sprint(x)) for exotic values). It panics past
// 255 arguments.
func (t *Trace) Addf(at Time, kind Kind, cpu int, format string, args ...Arg) {
	if len(args) == 0 {
		t.Add(at, kind, cpu, format)
		return
	}
	if len(args) > 255 { // what argN holds
		panic("sim: Trace.Addf with more than 255 arguments")
	}
	pos := uint32(len(t.args))
	t.args = append(t.args, args...)
	t.recs = append(t.recs, record{
		at: at, text: format, argPos: pos, argN: uint8(len(args)),
		kind: kind, cpu: int16(cpu),
	})
}

// Splice appends the golden records between marks from and to of log l
// — the stretch a run skipped after rejoining the golden trajectory at
// from — as a piece that refers to l, copying no record. Hash folds
// them from l's plan.
func (t *Trace) Splice(l *TraceLog, from, to TraceMark) {
	if to.recs <= from.recs {
		return
	}
	t.pieces = append(t.pieces, piece{log: l, from: from.recs, to: to.recs, at: len(t.recs)})
	t.spliced += to.recs - from.recs
}

// render materialises (and caches) the message of r, one of the
// trace's own records or a published one. Published records are
// rendered, so render never writes into a TraceLog.
func (t *Trace) render(r *record) string {
	if r.argN == 0 {
		return r.text
	}
	av := make([]any, r.argN)
	for j := range av {
		av[j] = t.args[int(r.argPos)+j].value()
	}
	r.text, r.argN = fmt.Sprintf(r.text, av...), 0
	return r.text
}

// Len returns the number of records.
func (t *Trace) Len() int { return t.nbase + len(t.recs) + t.spliced }

// ArgLen returns the number of deferred-format arguments the trace's
// own records hold — the occupancy of the argument arena TraceBudget
// provisions.
func (t *Trace) ArgLen() int { return len(t.args) }

// chunks calls fn for each run of consecutive records of the logical
// sequence from position from on, in order: the trace's own records (l
// nil) or records of the published log l with their fold steps, one run
// per segment. A published stretch is entered at the first segment it
// needs. Return false to stop.
func (t *Trace) chunks(from int, fn func(recs []record, l *TraceLog, plan []foldStep) bool) {
	pos := 0 // logical position of the next stretch
	// stretch emits records [lo, hi) of l, or of recs when l is nil.
	stretch := func(l *TraceLog, lo, hi int) bool {
		skip := max(from-pos, 0)
		pos += hi - lo
		if lo += skip; lo >= hi {
			return true
		}
		if l == nil {
			return fn(t.recs[lo:hi], nil, nil)
		}
		for k := l.segment(lo); lo < hi; k++ {
			s := &l.segs[k]
			i, j := lo-s.start, min(hi-s.start, len(s.recs))
			if !fn(s.recs[i:j], l, s.plan[i:j]) {
				return false
			}
			lo = s.start + j
		}
		return true
	}
	if !stretch(t.base, 0, t.nbase) {
		return
	}
	own := 0
	for i := range t.pieces {
		p := &t.pieces[i]
		if !stretch(nil, own, p.at) || !stretch(p.log, p.from, p.to) {
			return
		}
		own = p.at
	}
	stretch(nil, own, len(t.recs))
}

// each calls fn for every record from position from on, in order.
// Return false to stop.
func (t *Trace) each(from int, fn func(r *record) bool) {
	t.chunks(from, func(recs []record, _ *TraceLog, _ []foldStep) bool {
		for i := range recs {
			if !fn(&recs[i]) {
				return false
			}
		}
		return true
	})
}

// public builds the public view of r, rendering its message.
func (t *Trace) public(r *record) Record {
	return Record{At: r.at, Kind: r.kind, CPU: int(r.cpu), Msg: t.render(r)}
}

// Scan visits every record in order without copying the trace. Return
// false from fn to stop early. Messages are rendered lazily (then cached),
// so scans that stop early pay only for what they read.
func (t *Trace) Scan(fn func(Record) bool) {
	t.each(0, func(r *record) bool { return fn(t.public(r)) })
}

// ScanMeta visits every record's metadata in order without rendering any
// message — the zero-cost path for readers that only need kinds and
// timestamps. Return false to stop.
func (t *Trace) ScanMeta(fn func(at Time, kind Kind, cpu int) bool) { t.ScanMetaFrom(0, fn) }

// ScanMetaFrom is ScanMeta starting at record from.
func (t *Trace) ScanMetaFrom(from int, fn func(at Time, kind Kind, cpu int) bool) {
	t.each(from, func(r *record) bool { return fn(r.at, r.kind, int(r.cpu)) })
}

// ScanKindsFrom is ScanMetaFrom restricted to the records whose kind is
// in kinds (e.g. detection-latency measurement). Published records
// whose log holds none of those kinds are skipped without being read.
func (t *Trace) ScanKindsFrom(from int, kinds KindSet, fn func(at Time, kind Kind, cpu int) bool) {
	t.chunks(from, func(recs []record, l *TraceLog, _ []foldStep) bool {
		if l != nil && l.kinds&kinds == 0 {
			return true
		}
		for i := range recs {
			r := &recs[i]
			if kinds.Has(r.kind) && !fn(r.at, r.kind, int(r.cpu)) {
				return false
			}
		}
		return true
	})
}

// Records returns a copy of all records (copy keeps callers from mutating
// the trace). Prefer Scan/ScanMeta on hot paths; Records renders every
// message and clones the slice.
func (t *Trace) Records() []Record {
	out := make([]Record, 0, t.Len())
	t.each(0, func(r *record) bool {
		out = append(out, t.public(r))
		return true
	})
	return out
}

// Filter returns records of the given kind, in order.
func (t *Trace) Filter(kind Kind) []Record {
	var out []Record
	t.each(0, func(r *record) bool {
		if r.kind == kind {
			out = append(out, t.public(r))
		}
		return true
	})
	return out
}

// Count returns how many records have the given kind.
func (t *Trace) Count(kind Kind) int {
	n := 0
	t.each(0, func(r *record) bool {
		if r.kind == kind {
			n++
		}
		return true
	})
	return n
}

// CountsByKind returns a map kind → record count.
func (t *Trace) CountsByKind() map[Kind]int {
	m := make(map[Kind]int)
	t.each(0, func(r *record) bool {
		m[r.kind]++
		return true
	})
	return m
}

// Contains reports whether any record's message contains substr.
func (t *Trace) Contains(substr string) bool {
	found := false
	t.each(0, func(r *record) bool {
		found = strings.Contains(t.render(r), substr)
		return !found
	})
	return found
}

// FNV-1a 64-bit parameters (identical to hash/fnv, kept inline so the
// running digest is a plain uint64 the trace can carry between appends).
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// fold folds the records past hashed into the running digest: own
// records through foldOwn, published ones from their fold plan
// (foldPlan). FNV-1a is a sequential fold, so hashing a prefix and
// continuing later equals hashing the whole stream at once.
func (t *Trace) fold() {
	t.chunks(t.hashed, func(recs []record, l *TraceLog, plan []foldStep) bool {
		if l != nil {
			t.hstate = t.foldPlan(t.hstate, l.tabs.Items(), recs, plan)
		} else {
			t.foldOwn(recs)
		}
		return true
	})
	t.hashed = t.Len()
}

// suffixOf splits a rendered record's hash line "at|kind|cpu|text\n"
// into its whole-millisecond head (the timestamp itself below one
// millisecond) and the suffix key naming the rest.
func suffixOf(r *record) (suffixKey, int64) {
	key := suffixKey{text: r.text, kind: r.kind, cpu: r.cpu, sub: -1}
	head := int64(r.at)
	if head >= int64(Millisecond) {
		key.sub = int32(head % int64(Millisecond))
		head /= int64(Millisecond)
	}
	return key, head
}

// appendLine appends a rendered record's hash line.
func appendLine(buf []byte, r *record) []byte {
	buf = strconv.AppendInt(buf, int64(r.at), 10)
	buf = appendKindCPU(buf, r.kind, r.cpu)
	buf = append(buf, r.text...)
	return append(buf, '\n')
}

// foldOwn folds recs, a run of the trace's own records. Each record
// contributes the line "at|kind|cpu|text\n". For a record whose text is
// already final, only the timestamp's whole-millisecond digits fold byte
// by byte, from a rendering the trace advances in place (decimalCache);
// the rest of the line — six sub-millisecond digits, kind, cpu and text
// — folds through the trace's suffix memo (see suffixTable), which turns
// a repeated suffix into one multiply-add. Periodic interrupts recur at
// the same sub-millisecond offset, so their suffixes repeat exactly.
func (t *Trace) foldOwn(recs []record) {
	h := t.hstate
	for i := range recs {
		r := &recs[i]
		if r.argN == 0 {
			key, head := suffixOf(r)
			h = fnvFold(h, t.head.digits(head))
			tab := t.memo.lookup(key)
			if tab != nil {
				if out, ok := tab.fold(h); ok {
					h = out
					continue
				}
			}
			buf := key.appendTo(t.hbuf[:0])
			if tab == nil {
				tab = t.memo.admit(key, len(buf))
			}
			if tab != nil {
				h = tab.learn(h, buf)
			} else {
				h = fnvFold(h, buf)
			}
			t.hbuf = buf
			continue
		}
		buf := strconv.AppendInt(t.hbuf[:0], int64(r.at), 10)
		// Format straight into the hash buffer: byte-identical to
		// render()'s fmt.Sprintf, but no message string is retained.
		buf = appendKindCPU(buf, r.kind, r.cpu)
		argv := t.argv[:0]
		for j := 0; j < int(r.argN); j++ {
			argv = append(argv, t.args[int(r.argPos)+j].value())
		}
		buf = fmt.Appendf(buf, r.text, argv...)
		for j := range argv {
			argv[j] = nil // drop boxed values, keep capacity
		}
		t.argv = argv[:0]
		buf = append(buf, '\n')
		t.hbuf = buf
		h = fnvFold(h, buf)
	}
	t.hstate = h
}

// foldPlan continues h over recs, published records, from plan, their
// fold steps naming tables in tabs: per record, the packed head digits
// fold byte by byte and the suffix is one multiply-add through its
// table. Steps without a table fold their line byte by byte.
func (t *Trace) foldPlan(h uint64, tabs []*suffixTable, recs []record, plan []foldStep) uint64 {
	for i, s := range plan {
		if s.tab == 0 || s.n == 0 {
			t.hbuf = appendLine(t.hbuf[:0], &recs[i])
			h = fnvFold(h, t.hbuf)
			continue
		}
		for d, n := s.head, s.n; n > 0; d, n = d>>4, n-1 {
			h = (h ^ uint64('0'+d&0xf)) * fnvPrime64
		}
		tab := tabs[s.tab-1]
		h = h*tab.pn + tab.c[uint8(h)]
	}
	return h
}

// Hash returns a stable FNV-1a digest of the full trace. Two runs with the
// same seed and configuration must produce identical hashes; the
// determinism property tests rely on this. The digest is computed over the
// rendered records and is unchanged from the eager-formatting engine;
// records already folded (a checkpoint's prefix or a previous Hash call)
// are not folded again, and records are never rendered for it: deferred
// messages are formatted into a scratch buffer, so later Dump/Scan
// reads still see their format and arguments.
func (t *Trace) Hash() uint64 {
	t.fold()
	return t.hstate
}

// Dump renders the whole trace as a multi-line string, optionally limited
// to the given kinds (no kinds = everything).
func (t *Trace) Dump(kinds ...Kind) string {
	want := make(map[Kind]bool, len(kinds))
	for _, k := range kinds {
		want[k] = true
	}
	var b strings.Builder
	t.each(0, func(r *record) bool {
		if len(kinds) == 0 || want[r.kind] {
			b.WriteString(t.public(r).String())
			b.WriteByte('\n')
		}
		return true
	})
	return b.String()
}

// Summary renders "KIND=count" pairs sorted by kind for quick inspection.
func (t *Trace) Summary() string {
	counts := t.CountsByKind()
	keys := make([]int, 0, len(counts))
	for k := range counts {
		keys = append(keys, int(k))
	}
	sort.Ints(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", Kind(k), counts[Kind(k)]))
	}
	return strings.Join(parts, " ")
}
