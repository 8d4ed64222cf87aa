// Package gpio models the Banana Pi's LED port. The paper's FreeRTOS
// workload includes "a task to blink an onboard led"; the per-pin toggle
// count is a liveness signal the classifier can use alongside the USART
// transcript.
package gpio

// LEDGreen is the Banana Pi M1 green LED pin (PH24 on the A20).
const LEDGreen = 24

// Port is a bank of GPIO lines with a per-line toggle count.
type Port struct {
	state   map[int]bool
	toggles map[int]int
}

// New returns an all-low port.
func New() *Port {
	return &Port{
		state:   make(map[int]bool),
		toggles: make(map[int]int),
	}
}

// Snapshot is the port's line levels and toggle counts at one instant.
type Snapshot struct {
	state   map[int]bool
	toggles map[int]int
}

// CaptureSnapshot records the line levels and toggle counts.
func (p *Port) CaptureSnapshot() *Snapshot {
	s := &Snapshot{
		state:   make(map[int]bool, len(p.state)),
		toggles: make(map[int]int, len(p.toggles)),
	}
	for pin, on := range p.state {
		s.state[pin] = on
	}
	for pin, n := range p.toggles {
		s.toggles[pin] = n
	}
	return s
}

// RestoreSnapshot rewinds the port to a captured state.
func (p *Port) RestoreSnapshot(s *Snapshot) {
	clear(p.state)
	for pin, on := range s.state {
		p.state[pin] = on
	}
	clear(p.toggles)
	for pin, n := range s.toggles {
		p.toggles[pin] = n
	}
}

// Matches reports whether every line level equals the snapshot's. The
// toggle counts are a log's length, not state, and are not compared.
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
// later golden snapshot to: the levels become to's, and each pin's count
// gains the golden toggles between the two snapshots, on top of this
// run's own.
func (p *Port) Splice(from, to *Snapshot) {
	clear(p.state)
	for pin, on := range to.state {
		p.state[pin] = on
	}
	for pin, n := range to.toggles {
		p.toggles[pin] += n - from.toggles[pin]
	}
}

// Set drives pin to level on.
func (p *Port) Set(pin int, on bool) {
	if p.state[pin] == on {
		return
	}
	p.state[pin] = on
	p.toggles[pin]++
}

// Get reads the current level of pin.
func (p *Port) Get(pin int) bool { return p.state[pin] }

// ToggleCount returns how many transitions pin has made.
func (p *Port) ToggleCount(pin int) int { return p.toggles[pin] }
