package gpio

import "testing"

func TestSetCountsToggles(t *testing.T) {
	var p Port
	p.Set(true)
	p.Set(false)
	if p.ToggleCount() != 2 {
		t.Fatalf("ToggleCount = %d", p.ToggleCount())
	}
	if p.Get() {
		t.Fatal("Get lost state")
	}
}

func TestRedundantSetIsNoToggle(t *testing.T) {
	var p Port
	p.Set(true)
	p.Set(true)
	if p.ToggleCount() != 1 {
		t.Fatalf("redundant Set recorded: %d", p.ToggleCount())
	}
	if !p.Get() {
		t.Fatal("Get lost state")
	}
}

// TestSnapshotRestoreAndSplice: a restore puts back the captured level
// and count; a splice takes the later snapshot's level and adds the
// golden toggles between the two snapshots to the port's own count.
func TestSnapshotRestoreAndSplice(t *testing.T) {
	var p Port
	p.Set(true)
	from := p
	p.Set(false)
	p.Set(true)
	p.Set(false)
	to := p

	p = from
	if !p.Matches(from) || p.Matches(to) || p.ToggleCount() != 1 {
		t.Fatalf("after restore: count %d, matches from %v, to %v", p.ToggleCount(), p.Matches(from), p.Matches(to))
	}

	// A run that toggled twice more than golden, with the level back
	// where golden had it, splices onto to with its excess kept.
	p.Set(false)
	p.Set(true)
	p.Splice(from, to)
	if !p.Matches(to) || p.Get() {
		t.Fatal("splice did not take to's level")
	}
	if got, want := p.ToggleCount(), to.ToggleCount()+2; got != want {
		t.Fatalf("spliced count = %d, want %d", got, want)
	}
}
