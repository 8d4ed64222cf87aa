// Package gpio models the Banana Pi's LED port. The paper's FreeRTOS
// workload includes "a task to blink an onboard led"; the toggle trace is
// a liveness signal the classifier can use alongside the USART transcript.
package gpio

import "github.com/dessertlab/certify/internal/sim"

// LEDGreen is the Banana Pi M1 green LED pin (PH24 on the A20).
const LEDGreen = 24

// Toggle records one LED state change.
type Toggle struct {
	At sim.Time
	On bool
}

// Port is a bank of GPIO lines with per-line toggle capture.
type Port struct {
	now     func() sim.Time
	state   map[int]bool
	toggles map[int][]Toggle
}

// New returns an all-low port.
func New(now func() sim.Time) *Port {
	return &Port{
		now:     now,
		state:   make(map[int]bool),
		toggles: make(map[int][]Toggle),
	}
}

// Snapshot is the port's line levels and toggle-history lengths at one
// instant. The histories are append-only and live once in the golden
// Log the restore is handed.
type Snapshot struct {
	state   map[int]bool
	toggles map[int]int
}

// Log is the published fault-free prefix of every pin's toggle history,
// shared read-only by every machine on one golden trajectory (see
// sim.Prefix). A published Log map is never written again: Publish
// returns a new one.
type Log map[int]*sim.Prefix[Toggle]

// CaptureSnapshot records the line levels and history lengths.
func (p *Port) CaptureSnapshot() *Snapshot {
	s := &Snapshot{
		state:   make(map[int]bool, len(p.state)),
		toggles: make(map[int]int, len(p.toggles)),
	}
	for pin, on := range p.state {
		s.state[pin] = on
	}
	for pin, ts := range p.toggles {
		s.toggles[pin] = len(ts)
	}
	return s
}

// Publish returns l extended with the toggles past l's end on every pin.
// The port must be a later state of the run l was published from.
func (p *Port) Publish(l Log) Log {
	out := make(Log, len(l)+len(p.toggles))
	for pin, pre := range l {
		out[pin] = pre
	}
	for pin, ts := range p.toggles {
		out[pin] = l[pin].Extend(ts, len(ts))
	}
	return out
}

// RestoreSnapshot rewinds the port to a captured state, rewriting each
// pin's history from the golden log l and reusing the live capture
// buffers. from is the snapshot the port last captured or restored on
// the same golden lineage: history up to its lengths is already golden
// and is not copied again.
func (p *Port) RestoreSnapshot(s *Snapshot, l Log, from *Snapshot) {
	clear(p.state)
	for pin, on := range s.state {
		p.state[pin] = on
	}
	for pin, ts := range p.toggles {
		if _, ok := s.toggles[pin]; !ok {
			clear(ts)
			p.toggles[pin] = ts[:0]
		}
	}
	for pin, n := range s.toggles {
		p.toggles[pin] = sim.Rewind(p.toggles[pin], l[pin], from.toggles[pin], n)
	}
}

// Matches reports whether every line level equals the snapshot's. The
// toggle histories are logs, not state, and are not compared.
func (p *Port) Matches(s *Snapshot) bool {
	for pin, on := range p.state {
		if s.state[pin] != on {
			return false
		}
	}
	for pin, on := range s.state {
		if p.state[pin] != on {
			return false
		}
	}
	return true
}

// Splice moves a port whose levels match golden snapshot from to the
// later golden snapshot to: the levels become to's, and each pin's
// history gains the golden toggles between the two snapshots from l,
// after this run's own.
func (p *Port) Splice(from, to *Snapshot, l Log) {
	clear(p.state)
	for pin, on := range to.state {
		p.state[pin] = on
	}
	for pin, n := range to.toggles {
		p.toggles[pin] = append(p.toggles[pin], l[pin].Items()[from.toggles[pin]:n]...)
	}
}

// Set drives pin to level on.
func (p *Port) Set(pin int, on bool) {
	if p.state[pin] == on {
		return
	}
	p.state[pin] = on
	p.toggles[pin] = append(p.toggles[pin], Toggle{At: p.now(), On: on})
}

// Get reads the current level of pin.
func (p *Port) Get(pin int) bool { return p.state[pin] }

// Toggles returns the recorded transitions of pin.
func (p *Port) Toggles(pin int) []Toggle {
	src := p.toggles[pin]
	out := make([]Toggle, len(src))
	copy(out, src)
	return out
}

// ToggleCount returns how many transitions pin has made.
func (p *Port) ToggleCount(pin int) int { return len(p.toggles[pin]) }

// LastToggle returns the time of pin's most recent transition, and whether
// it ever toggled.
func (p *Port) LastToggle(pin int) (sim.Time, bool) {
	ts := p.toggles[pin]
	if len(ts) == 0 {
		return 0, false
	}
	return ts[len(ts)-1].At, true
}
