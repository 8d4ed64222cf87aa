// Package uart models the 8250/16550-class serial ports of the Allwinner
// A20. The serial line is the paper's only observation channel: every
// outcome in Figure 3 was classified from what did — or did not — appear
// on the board's UARTs. The model therefore captures completed lines
// with virtual timestamps so the classifier can ask questions like "did
// the non-root cell produce any output after the injection?".
package uart

import (
	"strings"

	"github.com/dessertlab/certify/internal/sim"
)

// 16550 register offsets (in 32-bit register units ×4, as the A20 maps them).
const (
	RegTHR = 0x00 // transmit holding (write)
	RegRBR = 0x00 // receive buffer (read)
	RegIER = 0x04 // interrupt enable
	RegFCR = 0x08 // FIFO control (write)
	RegLCR = 0x0C // line control
	RegLSR = 0x14 // line status
)

// LSR bits.
const (
	LSRDataReady    = 1 << 0
	LSRTHREmpty     = 1 << 5
	LSRTransmitDone = 1 << 6
)

// RegionSize is the MMIO window size of one UART.
const RegionSize = 0x400

// Line is one captured output line with the virtual time of its final byte.
type Line struct {
	At   sim.Time
	Text string
}

// UART is a functional serial port. Transmission is instantaneous (the
// experiments measure liveness, not baud rates); every completed line is
// captured.
type UART struct {
	now func() sim.Time
	// regs is the register state: a restore assigns it, and a rejoin
	// check compares it with ==.
	regs
	lines []Line
	cur   strings.Builder
}

// regs is a UART's register state, one comparable value.
type regs struct {
	ier uint32
	lcr uint32
}

// New returns a UART. now supplies virtual time for capture timestamps.
func New(now func() sim.Time) *UART {
	return &UART{now: now}
}

// Snapshot is a UART's register and capture state at one instant. The
// captured lines are an append-only log and are not copied: the snapshot
// keeps their count, and the content lives once in the golden Log the
// restore is handed.
type Snapshot struct {
	regs
	lines int
	cur   string
}

// Log is the published fault-free prefix of a UART's line capture,
// shared read-only by every machine on one golden trajectory (see
// sim.Prefix). The zero value is an empty log.
type Log struct {
	lines *sim.Prefix[Line]
}

// CaptureSnapshot records the UART state and its line count.
func (u *UART) CaptureSnapshot() *Snapshot {
	return &Snapshot{
		regs:  u.regs,
		lines: len(u.lines),
		cur:   u.cur.String(),
	}
}

// Publish returns l extended with this UART's lines past l's end. The
// UART must be a later state of the run l was published from.
func (u *UART) Publish(l Log) Log {
	return Log{lines: l.lines.Extend(u.lines, len(u.lines))}
}

// RestoreSnapshot rewinds the UART to a captured state, reusing the live
// line buffer: the capture is rewritten from the golden log l. Lines
// the run appended beyond the snapshot are zeroed so their strings are
// released.
func (u *UART) RestoreSnapshot(s *Snapshot, l Log) {
	u.regs = s.regs
	u.lines = sim.Rewind(u.lines, l.lines, s.lines)
	u.cur.Reset()
	u.cur.WriteString(s.cur)
}

// Matches reports whether the UART's register state and the line in
// progress equal the snapshot's. The captured lines are a log, not
// state, and are not compared.
func (u *UART) Matches(s *Snapshot) bool {
	return u.regs == s.regs && u.cur.String() == s.cur
}

// Splice moves a UART whose state matches golden snapshot from to the
// later golden snapshot to: the registers and the line in progress
// become to's, and the capture gains the golden lines between the two
// snapshots from l, after this run's own.
func (u *UART) Splice(from, to *Snapshot, l Log) {
	u.regs = to.regs
	u.lines = append(u.lines, l.lines.Items()[from.lines:to.lines]...)
	u.cur.Reset()
	u.cur.WriteString(to.cur)
}

// PutByte transmits one byte.
func (u *UART) PutByte(b byte) {
	if b == '\n' {
		u.lines = append(u.lines, Line{At: u.now(), Text: u.cur.String()})
		u.cur.Reset()
		return
	}
	if b != '\r' {
		u.cur.WriteByte(b)
	}
}

// PutString transmits a string.
func (u *UART) PutString(s string) {
	for i := 0; i < len(s); i++ {
		u.PutByte(s[i])
	}
}

// ReadReg implements the MMIO read interface.
func (u *UART) ReadReg(offset uint64) (uint32, error) {
	switch offset {
	case RegRBR:
		return 0, nil // no receive path modelled
	case RegIER:
		return u.ier, nil
	case RegLCR:
		return u.lcr, nil
	case RegLSR:
		// Always ready to transmit: guests never need to spin.
		return LSRTHREmpty | LSRTransmitDone, nil
	default:
		return 0, nil // unmodelled registers read as zero
	}
}

// WriteReg implements the MMIO write interface.
func (u *UART) WriteReg(offset uint64, value uint32) error {
	switch offset {
	case RegTHR:
		u.PutByte(byte(value))
	case RegIER:
		u.ier = value
	case RegLCR:
		u.lcr = value
	}
	return nil
}

// Lines returns a copy of all completed output lines. Debug/test
// convenience — hot paths use ScanLines to avoid the per-call copy.
func (u *UART) Lines() []Line {
	out := make([]Line, len(u.lines))
	copy(out, u.lines)
	return out
}

// ScanLines visits every completed line in order without copying the
// backing slice. Return false from fn to stop early.
func (u *UART) ScanLines(fn func(Line) bool) {
	for _, l := range u.lines {
		if !fn(l) {
			return
		}
	}
}

// ScanLinesAfter visits the completed lines with timestamps strictly
// after t, in order, without allocating. Return false from fn to stop.
func (u *UART) ScanLinesAfter(t sim.Time, fn func(Line) bool) {
	for _, l := range u.lines {
		if l.At > t && !fn(l) {
			return
		}
	}
}

// LineCount returns the number of completed lines.
func (u *UART) LineCount() int { return len(u.lines) }

// LastActivity returns the timestamp of the most recent completed line and
// whether any line has completed at all. A blank USART — the paper's E2
// signature — shows up as ok == false.
func (u *UART) LastActivity() (sim.Time, bool) {
	if len(u.lines) == 0 {
		return 0, false
	}
	return u.lines[len(u.lines)-1].At, true
}

// Contains reports whether any completed line contains substr.
func (u *UART) Contains(substr string) bool {
	for _, l := range u.lines {
		if strings.Contains(l.Text, substr) {
			return true
		}
	}
	return false
}

// Transcript renders all completed lines, newline-separated — the "log
// file" of the paper's framework.
func (u *UART) Transcript() string {
	// A stamp is 11 bytes below 100000 s; a line adds a space and '\n'.
	n := 0
	for _, l := range u.lines {
		n += len(l.Text) + 13
	}
	var b strings.Builder
	b.Grow(n)
	var stamp [24]byte
	for _, l := range u.lines {
		b.Write(l.At.AppendString(stamp[:0]))
		b.WriteByte(' ')
		b.WriteString(l.Text)
		b.WriteByte('\n')
	}
	return b.String()
}
