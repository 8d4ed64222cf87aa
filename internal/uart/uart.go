// Package uart models the 8250/16550-class serial ports of the Allwinner
// A20. The serial line is the paper's only observation channel: every
// outcome in Figure 3 was classified from what did — or did not — appear
// on the board's UARTs. The model therefore captures transmitted bytes
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
// experiments measure liveness, not baud rates); every byte is captured.
type UART struct {
	name string
	now  func() sim.Time
	// regs is the register state: a restore assigns it, and a rejoin
	// check compares it with ==.
	regs
	txLog []byte
	lines []Line
	cur   strings.Builder

	// OnLine, when set, is called for each completed output line.
	OnLine func(Line)
}

// regs is a UART's register state, one comparable value.
type regs struct {
	ier     uint32
	lcr     uint32
	noBytes bool // when set, the raw byte log is not kept
}

// New returns a UART named name (e.g. "uart0"). now supplies virtual time
// for capture timestamps.
func New(name string, now func() sim.Time) *UART {
	return &UART{name: name, now: now}
}

// Name returns the device name.
func (u *UART) Name() string { return u.name }

// SetCaptureBytes toggles the raw transmitted-byte log. Line capture (the
// classifier's observation channel) is unaffected. Campaigns that only
// need outcome distributions disable byte capture to skip the copy.
func (u *UART) SetCaptureBytes(on bool) {
	u.noBytes = !on
	if !on {
		u.txLog = u.txLog[:0]
	}
}

// Snapshot is a UART's register and capture state at one instant. The
// captured lines and bytes are append-only logs and are not copied: the
// snapshot keeps their lengths, and the content lives once in the golden
// Log the restore is handed. The line hook is captured as a func value:
// the machine's boot wires it to objects the snapshot belongs to, so
// restoring the same value is exact.
type Snapshot struct {
	regs
	lines  int
	bytes  int
	cur    string
	onLine func(Line)
}

// Log is the published fault-free prefix of a UART's line and byte
// captures, shared read-only by every machine on one golden trajectory
// (see sim.Prefix). The zero value is an empty log.
type Log struct {
	lines *sim.Prefix[Line]
	bytes *sim.Prefix[byte]
}

// CaptureSnapshot records the UART state and its log lengths.
func (u *UART) CaptureSnapshot() *Snapshot {
	return &Snapshot{
		regs:   u.regs,
		lines:  len(u.lines),
		bytes:  len(u.txLog),
		cur:    u.cur.String(),
		onLine: u.OnLine,
	}
}

// Publish returns l extended with this UART's captures past l's end. The
// UART must be a later state of the run l was published from.
func (u *UART) Publish(l Log) Log {
	return Log{
		lines: l.lines.Extend(u.lines, len(u.lines)),
		bytes: l.bytes.Extend(u.txLog, len(u.txLog)),
	}
}

// RestoreSnapshot rewinds the UART to a captured state, reusing the live
// line/byte buffers: the captures are rewritten from the golden log l,
// copying only what lies past from (the snapshot this UART last captured
// or restored on the same golden lineage). Lines the
// run appended beyond the snapshot are zeroed so their strings are
// released.
func (u *UART) RestoreSnapshot(s *Snapshot, l Log, from *Snapshot) {
	u.regs = s.regs
	u.txLog = sim.Rewind(u.txLog, l.bytes, from.bytes, s.bytes)
	u.lines = sim.Rewind(u.lines, l.lines, from.lines, s.lines)
	u.cur.Reset()
	u.cur.WriteString(s.cur)
	u.OnLine = s.onLine
}

// Matches reports whether the UART's register state and the line in
// progress equal the snapshot's. The captured lines and bytes are logs,
// not state, and are not compared.
func (u *UART) Matches(s *Snapshot) bool {
	return u.regs == s.regs && u.cur.String() == s.cur
}

// Splice moves a UART whose state matches golden snapshot from to the
// later golden snapshot to: the registers and the line in progress
// become to's, and the captures gain the golden lines and bytes between
// the two snapshots from l, after this run's own.
func (u *UART) Splice(from, to *Snapshot, l Log) {
	u.regs = to.regs
	u.txLog = append(u.txLog, l.bytes.Items()[from.bytes:to.bytes]...)
	u.lines = append(u.lines, l.lines.Items()[from.lines:to.lines]...)
	u.cur.Reset()
	u.cur.WriteString(to.cur)
}

// PutByte transmits one byte.
func (u *UART) PutByte(b byte) {
	if !u.noBytes {
		u.txLog = append(u.txLog, b)
	}
	if b == '\n' {
		line := Line{At: u.now(), Text: u.cur.String()}
		u.lines = append(u.lines, line)
		u.cur.Reset()
		if u.OnLine != nil {
			u.OnLine(line)
		}
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

// Bytes returns a copy of everything transmitted so far.
func (u *UART) Bytes() []byte {
	out := make([]byte, len(u.txLog))
	copy(out, u.txLog)
	return out
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

// LinesAfter returns the completed lines with timestamps strictly after
// t. Debug/test convenience — hot paths use ScanLinesAfter.
func (u *UART) LinesAfter(t sim.Time) []Line {
	var out []Line
	for _, l := range u.lines {
		if l.At > t {
			out = append(out, l)
		}
	}
	return out
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
