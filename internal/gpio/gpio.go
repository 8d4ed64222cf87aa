// Package gpio models the Banana Pi's green LED line (PH24 on the A20).
// The paper's FreeRTOS workload includes "a task to blink an onboard
// led"; the line's toggle count is a liveness signal the classifier can
// use alongside the USART transcript.
package gpio

// Port is the LED line: its level and how many transitions it has made,
// one comparable value. A checkpoint copies it and a restore assigns
// it.
type Port struct {
	on      bool
	toggles int
}

// Matches reports whether the level equals s's. The toggle count is a
// log's length, not state, and is not compared.
func (p *Port) Matches(s Port) bool { return p.on == s.on }

// Splice moves a port whose level matches golden snapshot from to the
// later golden snapshot to: the level becomes to's, and the count gains
// the golden toggles between the two snapshots, on top of this run's
// own.
func (p *Port) Splice(from, to Port) {
	p.on = to.on
	p.toggles += to.toggles - from.toggles
}

// Set drives the line to level on.
func (p *Port) Set(on bool) {
	if p.on == on {
		return
	}
	p.on = on
	p.toggles++
}

// Get reads the current level of the line.
func (p *Port) Get() bool { return p.on }

// ToggleCount returns how many transitions the line has made.
func (p *Port) ToggleCount() int { return p.toggles }
