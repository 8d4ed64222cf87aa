package sim

// Prefix is one published version of the fault-free prefix of an
// append-only log — UART lines and bytes, LED toggles, the hypervisor
// console. Machines that replay the same golden trajectory share it
// read-only instead of each keeping a copy in every checkpoint: a
// checkpoint stores only its logs' lengths, and a restore copies the
// prefix back from here. (Trace records are published as a TraceLog,
// which a restored trace reads in place.)
//
// A longer version is derived with Extend. Versions of one lineage share
// a backing array, but Extend only writes past the end of the version it
// extends, so the items of a published version never change and readers
// need no lock. Callers serialise Extend per lineage and always extend
// the newest version.
type Prefix[T any] struct{ items []T }

// Len returns how many items the version holds; a nil version is empty.
func (p *Prefix[T]) Len() int {
	if p == nil {
		return 0
	}
	return len(p.items)
}

// Items returns the version's items, which must not be modified.
func (p *Prefix[T]) Items() []T {
	if p == nil {
		return nil
	}
	return p.items
}

// Extend returns the version covering log[:n]. log[:p.Len()] must equal
// p's items — the log is a later state of the same golden run. A version
// that already covers n is returned unchanged.
func (p *Prefix[T]) Extend(log []T, n int) *Prefix[T] {
	if have := p.Len(); n > have {
		return p.Append(log[have:n]...)
	}
	return p
}

// Append returns the version holding p's items followed by items; p
// itself when items is empty.
func (p *Prefix[T]) Append(items ...T) *Prefix[T] {
	if len(items) == 0 {
		return p
	}
	return &Prefix[T]{items: append(p.Items(), items...)}
}

// Rewind returns log rewritten to p's first n items, reusing log's
// buffer. Items dropped from the tail are zeroed so the strings and
// pointers they hold are released.
func Rewind[T any](log []T, p *Prefix[T], n int) []T {
	old := len(log)
	log = append(log[:0], p.Items()[:n]...)
	if n < old {
		clear(log[n:old])
	}
	return log
}
