package gpio

import "testing"

func TestSetCountsToggles(t *testing.T) {
	p := New()
	p.Set(LEDGreen, true)
	p.Set(LEDGreen, false)
	if p.ToggleCount(LEDGreen) != 2 {
		t.Fatalf("ToggleCount = %d", p.ToggleCount(LEDGreen))
	}
	if p.Get(LEDGreen) {
		t.Fatal("Get lost state")
	}
}

func TestRedundantSetIsNoToggle(t *testing.T) {
	p := New()
	p.Set(5, true)
	p.Set(5, true)
	if p.ToggleCount(5) != 1 {
		t.Fatalf("redundant Set recorded: %d", p.ToggleCount(5))
	}
	if !p.Get(5) {
		t.Fatal("Get lost state")
	}
}

// TestSnapshotRestoreAndSplice: a restore puts back the captured levels
// and counts, dropping pins first driven after the capture; a splice
// takes the later snapshot's levels and adds the golden toggles between
// the two snapshots to the port's own count.
func TestSnapshotRestoreAndSplice(t *testing.T) {
	p := New()
	p.Set(LEDGreen, true)
	from := p.CaptureSnapshot()
	p.Set(LEDGreen, false)
	p.Set(LEDGreen, true)
	p.Set(LEDGreen, false)
	to := p.CaptureSnapshot()

	p.RestoreSnapshot(from)
	if !p.Matches(from) || p.ToggleCount(LEDGreen) != 1 {
		t.Fatalf("after restore: count %d, matches %v", p.ToggleCount(LEDGreen), p.Matches(from))
	}
	p.Set(3, true)
	p.RestoreSnapshot(from)
	if p.Get(3) || p.ToggleCount(3) != 0 {
		t.Fatalf("restore kept pin 3: count %d", p.ToggleCount(3))
	}

	// A run that toggled twice more than golden, with the level back
	// where golden had it, splices onto to with its excess kept.
	p.Set(LEDGreen, false)
	p.Set(LEDGreen, true)
	p.Splice(from, to)
	if !p.Matches(to) || p.Get(LEDGreen) {
		t.Fatal("splice did not take to's levels")
	}
	if got, want := p.ToggleCount(LEDGreen), to.toggles[LEDGreen]+2; got != want {
		t.Fatalf("spliced count = %d, want %d", got, want)
	}
}
