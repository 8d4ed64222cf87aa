package uart

import (
	"strings"
	"testing"

	"github.com/dessertlab/certify/internal/sim"
)

func fixedClock(t sim.Time) func() sim.Time {
	return func() sim.Time { return t }
}

func TestWriteStringCapturesLines(t *testing.T) {
	now := sim.Time(0)
	u := New(func() sim.Time { return now })
	u.PutString("hello\n")
	now = 5 * sim.Second
	u.PutString("world")
	if u.LineCount() != 1 {
		t.Fatalf("LineCount = %d, want 1 (second line incomplete)", u.LineCount())
	}
	u.PutByte('\n')
	lines := u.Lines()
	if len(lines) != 2 || lines[0].Text != "hello" || lines[1].Text != "world" {
		t.Fatalf("Lines = %v", lines)
	}
	if lines[0].At != 0 || lines[1].At != 5*sim.Second {
		t.Fatalf("timestamps = %v %v", lines[0].At, lines[1].At)
	}
}

func TestCarriageReturnStripped(t *testing.T) {
	u := New(fixedClock(0))
	u.PutString("abc\r\n")
	if got := u.Lines()[0].Text; got != "abc" {
		t.Fatalf("line = %q", got)
	}
}

func TestMMIOTHRWrite(t *testing.T) {
	u := New(fixedClock(0))
	for _, b := range []byte("ok\n") {
		if err := u.WriteReg(RegTHR, uint32(b)); err != nil {
			t.Fatal(err)
		}
	}
	if !u.Contains("ok") {
		t.Fatal("MMIO path did not capture")
	}
}

func TestMMIORegisters(t *testing.T) {
	u := New(fixedClock(0))
	if err := u.WriteReg(RegIER, 0x5); err != nil {
		t.Fatal(err)
	}
	v, err := u.ReadReg(RegIER)
	if err != nil || v != 0x5 {
		t.Fatalf("IER = %#x, %v", v, err)
	}
	lsr, _ := u.ReadReg(RegLSR)
	if lsr&LSRTHREmpty == 0 {
		t.Fatal("LSR must report THR empty")
	}
	if v, _ := u.ReadReg(RegRBR); v != 0 {
		t.Fatalf("RBR = %#x", v)
	}
	if v, _ := u.ReadReg(0x3C); v != 0 {
		t.Fatal("unmodelled register must read 0")
	}
}

func TestLastActivityAndScanLinesAfter(t *testing.T) {
	now := sim.Time(0)
	u := New(func() sim.Time { return now })
	if _, ok := u.LastActivity(); ok {
		t.Fatal("fresh UART reports activity — the E2 'blank USART' check depends on this")
	}
	u.PutString("boot\n")
	now = 10 * sim.Second
	u.PutString("tick\n")
	at, ok := u.LastActivity()
	if !ok || at != 10*sim.Second {
		t.Fatalf("LastActivity = %v %v", at, ok)
	}
	var after []Line
	u.ScanLinesAfter(5*sim.Second, func(l Line) bool { after = append(after, l); return true })
	if len(after) != 1 || after[0].Text != "tick" {
		t.Fatalf("ScanLinesAfter = %v", after)
	}
}

func TestTranscript(t *testing.T) {
	u := New(fixedClock(1042 * sim.Millisecond))
	u.PutString("Kernel panic - not syncing\n")
	tr := u.Transcript()
	if !strings.Contains(tr, "[    1.042]") || !strings.Contains(tr, "not syncing") {
		t.Fatalf("Transcript = %q", tr)
	}
}

// TestTranscriptStampsMatchTimeString: the transcript formats its
// stamps without fmt, so every line must still read exactly
// "<l.At.String()> <text>" — at 0, below one second, at the width's
// edges and past 100000 s, where the seconds overflow their padding.
func TestTranscriptStampsMatchTimeString(t *testing.T) {
	stamps := []sim.Time{
		0, 1, sim.Millisecond - 1, sim.Millisecond, 999 * sim.Millisecond,
		sim.Second, 1042 * sim.Millisecond, sim.Minute + 7*sim.Millisecond,
		99999*sim.Second + 999*sim.Millisecond, 100000 * sim.Second,
		123456*sim.Second + 5*sim.Millisecond, 9_000_000_000 * sim.Second,
	}
	now := sim.Time(0)
	u := New(func() sim.Time { return now })
	var want strings.Builder
	for i, at := range stamps {
		now = at
		text := strings.Repeat("x", i)
		u.PutString(text + "\n")
		want.WriteString(at.String() + " " + text + "\n")
	}
	if got := u.Transcript(); got != want.String() {
		t.Fatalf("Transcript =\n%s\nwant\n%s", got, want.String())
	}
}

// TestRestoreRewritesCaptureFromGoldenLog: a restore rewrites the whole
// capture from the golden log, so a UART whose lines diverged from the
// golden run from the first one on — another run on a pooled machine —
// reads exactly the golden lines up to the snapshot, with the golden
// registers and line in progress, and nothing of its own.
func TestRestoreRewritesCaptureFromGoldenLog(t *testing.T) {
	golden := New(fixedClock(3))
	if err := golden.WriteReg(RegIER, 0x5); err != nil {
		t.Fatal(err)
	}
	golden.PutString("boot\nready\npart")
	snap := golden.CaptureSnapshot()
	golden.PutString("ial\nlater\n")
	log := golden.Publish(Log{})

	run := New(fixedClock(9))
	run.PutString("x\ny\nz\nw\nv\ndangling")
	run.RestoreSnapshot(snap, log)

	if !run.Matches(snap) {
		t.Fatal("restored UART does not match its snapshot")
	}
	if v, _ := run.ReadReg(RegIER); v != 0x5 {
		t.Fatalf("IER = %#x after restore, want 0x5", v)
	}
	lines := run.Lines()
	if len(lines) != 2 || lines[0] != (Line{3, "boot"}) || lines[1] != (Line{3, "ready"}) {
		t.Fatalf("Lines after restore = %v, want the two golden lines before the snapshot", lines)
	}
	run.PutString("ial\n")
	if got := run.Lines(); len(got) != 3 || got[2].Text != "partial" {
		t.Fatalf("Lines after finishing the line in progress = %v", got)
	}
}
