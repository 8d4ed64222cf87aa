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
	// text is the rendered message when rendered is set, otherwise the
	// pending format string. One field for both keeps the record at 40
	// bytes, which matters: the arena holds tens of thousands of records
	// and every append crosses the write barrier once per string field.
	text     string
	argPos   uint32 // index into Trace.args
	argN     uint16
	kind     Kind
	cpu      int16
	rendered bool
}

// Trace accumulates records for one run. It is deliberately append-only;
// classifiers and analytics read it after the run completes. Records store
// their format string and small typed args instead of a rendered message,
// so the per-event hot path performs no fmt work and no allocation beyond
// the amortised growth of the reusable record/argument buffers.
type Trace struct {
	recs []record
	args []Arg

	// Incremental hash state. hstate is the running FNV-1a digest over
	// records [0, hashed); Hash folds the remainder on demand. When
	// incremental is set (SetIncrementalHash), every append folds its
	// record immediately, so end-of-run hashing is O(1) and no rendered
	// message string is ever allocated for hash-only readers.
	hstate      uint64
	hashed      int
	incremental bool
	hbuf        []byte       // reusable per-record hash line buffer
	argv        []any        // reusable boxed-operand scratch for fmt.Appendf
	memo        suffixMemo   // suffix tables; kept across rewinds
	head        decimalCache // digits of the last folded millisecond head
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

// TraceMark is a trace position captured into a checkpoint: record and
// argument counts plus the running digest over exactly those records.
// The records themselves live once in the golden TraceLog, not in every
// checkpoint.
type TraceMark struct {
	recs, args int
	hstate     uint64
}

// Mark returns the trace's current position with the digest fully
// folded (hashed == Len), so a trace rewound to the mark never re-folds
// its prefix, whatever hashing mode the restored run uses.
func (t *Trace) Mark() TraceMark {
	t.foldTo(len(t.recs))
	return TraceMark{recs: len(t.recs), args: len(t.args), hstate: t.hstate}
}

// TraceLog is the published fault-free prefix of a trace, shared
// read-only by every machine on one golden trajectory (see Prefix).
// Records are rendered before publication, so the copies a restore
// takes carry their final text and never render again — and render()
// only ever writes into a machine's own copy.
type TraceLog struct {
	recs *Prefix[record]
	args *Prefix[Arg]
}

// Len returns how many records the log holds.
func (l *TraceLog) Len() int {
	if l == nil {
		return 0
	}
	return l.recs.Len()
}

// Publish returns l extended with this trace's records past l's end,
// rendered first. The trace must be a later state of the run l was
// published from — the same golden trajectory. A nil l starts a log.
func (t *Trace) Publish(l *TraceLog) *TraceLog {
	if l.Len() >= len(t.recs) {
		return l
	}
	for i := l.Len(); i < len(t.recs); i++ {
		t.render(i)
	}
	out := &TraceLog{}
	if l != nil {
		*out = *l
	}
	out.recs = out.recs.Extend(t.recs, len(t.recs))
	out.args = out.args.Extend(t.args, len(t.args))
	return out
}

// Rewind rewrites the trace to the golden prefix ending at mark to.
// from is the mark of the machine's last capture or restore on the same
// golden lineage (the zero mark when unknown): the trace's content up to
// from is already golden, so only the difference is copied — restoring
// an earlier mark is a truncation. Incremental hashing is switched off;
// the run harness re-enables it per run.
func (t *Trace) Rewind(l *TraceLog, to, from TraceMark) {
	var golden TraceLog
	if l != nil {
		golden = *l
	}
	t.recs = Rewind(t.recs, golden.recs, from.recs, to.recs)
	t.args = Rewind(t.args, golden.args, from.args, to.args)
	t.hstate = to.hstate
	t.hashed = to.recs
	t.incremental = false
}

// Add appends a record whose message needs no formatting.
func (t *Trace) Add(at Time, kind Kind, cpu int, msg string) {
	t.recs = append(t.recs, record{
		at: at, text: msg, kind: kind, cpu: int16(cpu), rendered: true,
	})
	if t.incremental {
		t.foldTo(len(t.recs))
	}
}

// Addf appends a record with deferred formatting: format and args are
// stored as-is and rendered only if Dump, Hash, Contains or a scan reads
// the message. args must render byte-identically to the values the call
// site would have passed to fmt.Sprintf (use Str(x.String()) for %v/%s of
// Stringers, Str(fmt.Sprint(x)) for exotic values).
func (t *Trace) Addf(at Time, kind Kind, cpu int, format string, args ...Arg) {
	if len(args) == 0 {
		t.Add(at, kind, cpu, format)
		return
	}
	pos := uint32(len(t.args))
	t.args = append(t.args, args...)
	t.recs = append(t.recs, record{
		at: at, text: format, argPos: pos, argN: uint16(len(args)),
		kind: kind, cpu: int16(cpu),
	})
	if t.incremental {
		t.foldTo(len(t.recs))
	}
}

// render materialises (and caches) the message of record i.
func (t *Trace) render(i int) string {
	r := &t.recs[i]
	if r.rendered {
		return r.text
	}
	if r.argN > 0 {
		av := make([]any, r.argN)
		for j := range av {
			av[j] = t.args[int(r.argPos)+j].value()
		}
		r.text = fmt.Sprintf(r.text, av...)
	}
	r.rendered = true
	return r.text
}

// Len returns the number of records.
func (t *Trace) Len() int { return len(t.recs) }

// ArgLen returns the number of deferred-format arguments held — the
// occupancy of the argument arena TraceBudget provisions.
func (t *Trace) ArgLen() int { return len(t.args) }

// at builds the public view of record i, rendering its message.
func (t *Trace) at(i int) Record {
	r := &t.recs[i]
	return Record{At: r.at, Kind: r.kind, CPU: int(r.cpu), Msg: t.render(i)}
}

// Scan visits every record in order without copying the trace. Return
// false from fn to stop early. Messages are rendered lazily (then cached),
// so scans that stop early pay only for what they read.
func (t *Trace) Scan(fn func(Record) bool) {
	for i := range t.recs {
		if !fn(t.at(i)) {
			return
		}
	}
}

// ScanMeta visits every record's metadata in order without rendering any
// message — the zero-cost path for readers that only need kinds and
// timestamps (e.g. detection-latency measurement). Return false to stop.
func (t *Trace) ScanMeta(fn func(at Time, kind Kind, cpu int) bool) { t.ScanMetaFrom(0, fn) }

// ScanMetaFrom is ScanMeta starting at record from.
func (t *Trace) ScanMetaFrom(from int, fn func(at Time, kind Kind, cpu int) bool) {
	for i := from; i < len(t.recs); i++ {
		r := &t.recs[i]
		if !fn(r.at, r.kind, int(r.cpu)) {
			return
		}
	}
}

// Records returns a copy of all records (copy keeps callers from mutating
// the trace). Prefer Scan/ScanMeta on hot paths; Records renders every
// message and clones the slice.
func (t *Trace) Records() []Record {
	out := make([]Record, len(t.recs))
	for i := range t.recs {
		out[i] = t.at(i)
	}
	return out
}

// Filter returns records of the given kind, in order.
func (t *Trace) Filter(kind Kind) []Record {
	var out []Record
	for i := range t.recs {
		if t.recs[i].kind == kind {
			out = append(out, t.at(i))
		}
	}
	return out
}

// Count returns how many records have the given kind.
func (t *Trace) Count(kind Kind) int {
	n := 0
	for i := range t.recs {
		if t.recs[i].kind == kind {
			n++
		}
	}
	return n
}

// CountsByKind returns a map kind → record count.
func (t *Trace) CountsByKind() map[Kind]int {
	m := make(map[Kind]int)
	for i := range t.recs {
		m[t.recs[i].kind]++
	}
	return m
}

// Contains reports whether any record's message contains substr.
func (t *Trace) Contains(substr string) bool {
	for i := range t.recs {
		if strings.Contains(t.render(i), substr) {
			return true
		}
	}
	return false
}

// FNV-1a 64-bit parameters (identical to hash/fnv, kept inline so the
// running digest is a plain uint64 the trace can carry between appends).
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// SetIncrementalHash switches the trace to maintaining its digest on
// append. Enabling folds every record already present (rendering them
// once), then each Add/Addf folds its own record as it lands, so Hash
// becomes a constant-time read at end of run — the render pass the
// streaming-artefact campaigns used to pay per run disappears. Records
// folded on append are formatted straight into the hash buffer; their
// deferred format/args stay in place, so later Dump/Scan reads still
// work. Rewind disables incremental mode again.
func (t *Trace) SetIncrementalHash(on bool) {
	t.incremental = on
	if on {
		t.foldTo(len(t.recs))
	}
}

// foldTo folds records [hashed, upTo) into the running digest. The byte
// stream is identical to the eager full-trace hash: FNV-1a is a
// sequential fold, so hashing a prefix and continuing later equals
// hashing the whole stream at once. Each record contributes the line
// "at|kind|cpu|text\n". For a record whose text is already final, only
// the timestamp's whole-millisecond digits fold byte by byte, from a
// rendering the trace advances in place (decimalCache); the rest
// of the line — six sub-millisecond digits, kind, cpu and text — folds
// through the trace's suffix memo (see suffixTable), which turns a
// repeated suffix into one multiply-add. Periodic interrupts recur at
// the same sub-millisecond offset, so their suffixes repeat exactly.
func (t *Trace) foldTo(upTo int) {
	h := t.hstate
	for i := t.hashed; i < upTo; i++ {
		r := &t.recs[i]
		if r.rendered || r.argN == 0 {
			key := suffixKey{text: r.text, kind: r.kind, cpu: r.cpu, sub: -1}
			head := int64(r.at)
			if head >= int64(Millisecond) {
				key.sub = int32(head % int64(Millisecond))
				head /= int64(Millisecond)
			}
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
	t.hashed = upTo
}

// Hash returns a stable FNV-1a digest of the full trace. Two runs with the
// same seed and configuration must produce identical hashes; the
// determinism property tests rely on this. The digest is computed over the
// rendered records and is unchanged from the eager-formatting engine;
// records already folded (incremental mode or a previous Hash call) are
// not re-rendered.
func (t *Trace) Hash() uint64 {
	t.foldTo(len(t.recs))
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
	for i := range t.recs {
		if len(kinds) == 0 || want[t.recs[i].kind] {
			b.WriteString(t.at(i).String())
			b.WriteByte('\n')
		}
	}
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

// Splice appends the golden records between marks from and to of log l
// — the stretch a run skipped after rejoining the golden trajectory at
// from — and folds them into the running digest when hashing is
// incremental. The records are published, hence rendered, so their
// argument positions only need shifting to this trace's arena.
func (t *Trace) Splice(l *TraceLog, from, to TraceMark) {
	shift := len(t.args) - from.args
	t.args = append(t.args, l.args.items[from.args:to.args]...)
	for _, r := range l.recs.items[from.recs:to.recs] {
		r.argPos = uint32(int(r.argPos) + shift)
		t.recs = append(t.recs, r)
	}
	if t.incremental {
		t.foldTo(len(t.recs))
	}
}
