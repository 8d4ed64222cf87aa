package sim

import (
	"fmt"
	"testing"
)

// segmentLoad drives a random event workload on e: periodic timers,
// one-shot chains that reschedule (some in the past, clamped to now),
// same-instant bursts and cancellations, all drawing from one RNG and
// tracing what they do. If wedgeAt > 0, an event at that instant starts
// a zero-delay self-rescheduling storm that trips the wedge watchdog.
func segmentLoad(e *Engine, seed uint64, wedgeAt Time) {
	cb := callbacks(e)
	rng := NewRNG(seed)
	var pending []Event
	for i := 0; i < 4; i++ {
		id := i
		period := Time(1+rng.Intn(300)) * Millisecond
		cb.Every(period, func() {
			e.Trace().Addf(e.Now(), KindIRQ, id, "tick %d", Int(int64(id)))
		})
	}
	var chain func(depth int)
	chain = func(depth int) {
		e.Trace().Addf(e.Now(), KindTask, -1, "chain depth %d", Int(int64(depth)))
		switch rng.Intn(5) {
		case 0:
			cb.After(0, func() { chain(depth + 1) }) // same instant
		case 1:
			cb.Schedule(e.Now()-Millisecond, func() { chain(depth + 1) }) // clamped
		case 2:
			if n := len(pending); n > 0 {
				pending[n-1].Cancel()
				pending = pending[:n-1]
			}
			fallthrough
		default:
			ev := cb.After(Time(rng.Intn(700))*Millisecond, func() { chain(depth + 1) })
			pending = append(pending, ev)
		}
	}
	for i := 0; i < 3; i++ {
		cb.After(Time(rng.Intn(900))*Millisecond, func() { chain(0) })
	}
	if wedgeAt > 0 {
		var spin func()
		spin = func() { cb.After(0, spin) }
		cb.Schedule(wedgeAt, spin)
	}
}

// TestSegmentedRunMatchesSingleRun: running the engine to a horizon in
// segments — the golden timeline's capture path — must be
// indistinguishable from one Run call: same trace, clock, halt state,
// delivered-event count and queue, including runs the wedge watchdog
// halts exactly at a boundary or between boundaries.
func TestSegmentedRunMatchesSingleRun(t *testing.T) {
	const horizon = 8 * Second
	for seed := uint64(1); seed <= 12; seed++ {
		for _, wedgeAt := range []Time{0, 3 * Second, 3*Second + 250*Millisecond} {
			t.Run(fmt.Sprintf("seed%d/wedge%v", seed, wedgeAt), func(t *testing.T) {
				single := NewEngine(seed)
				single.SetWedgeLimit(500)
				segmentLoad(single, seed, wedgeAt)
				errSingle := single.Run(horizon)

				seg := NewEngine(seed)
				seg.SetWedgeLimit(500)
				segmentLoad(seg, seed, wedgeAt)
				var errSeg error
				for b := Second; b < horizon; b += Second {
					if errSeg = seg.Run(b); errSeg != nil {
						break
					}
				}
				if errSeg == nil {
					errSeg = seg.Run(horizon)
				}

				if (errSingle == nil) != (errSeg == nil) {
					t.Fatalf("single run err %v, segmented %v", errSingle, errSeg)
				}
				hs, ms := single.Halted()
				hg, mg := seg.Halted()
				if hs != hg || ms != mg {
					t.Fatalf("halt: single (%v %q), segmented (%v %q)", hs, ms, hg, mg)
				}
				if single.Now() != seg.Now() || single.Executed() != seg.Executed() || len(single.heap) != len(seg.heap) {
					t.Fatalf("single now=%v executed=%d pending=%d, segmented now=%v executed=%d pending=%d",
						single.Now(), single.Executed(), len(single.heap), seg.Now(), seg.Executed(), len(seg.heap))
				}
				if single.Trace().Hash() != seg.Trace().Hash() || single.Trace().Len() != seg.Trace().Len() {
					t.Fatalf("trace: single %d records %#x, segmented %d records %#x",
						single.Trace().Len(), single.Trace().Hash(), seg.Trace().Len(), seg.Trace().Hash())
				}
				if wedgeAt > 0 && !hs {
					t.Fatal("the storm did not trip the wedge watchdog")
				}
			})
		}
	}
}

// TestPrefixRewind covers the shared-log primitive: Extend publishes
// only past a version's end (older versions never change), and Rewind
// rewrites the whole prefix and zeroes the dropped tail.
func TestPrefixRewind(t *testing.T) {
	log := []int{1, 2, 3}
	v1 := (*Prefix[int])(nil).Extend(log, 3)
	log = append(log, 4, 5)
	v2 := v1.Extend(log, 5)
	if v1.Len() != 3 || v2.Len() != 5 || v2.Extend(log, 4) != v2 {
		t.Fatalf("versions: %d, %d", v1.Len(), v2.Len())
	}
	v3 := v2.Extend(append(log, 6), 6)
	if got := v1.items[:v1.Len()]; fmt.Sprint(got) != "[1 2 3]" {
		t.Fatalf("extending rewrote an older version: %v", got)
	}

	// A machine log that diverged from the golden one at its first item.
	mine := []int{7, 2, 9, 9, 9, 9, 9}
	mine = Rewind(mine, v3, 4)
	if fmt.Sprint(mine) != "[1 2 3 4]" {
		t.Fatalf("rewind forward: %v", mine)
	}
	if full := mine[:7]; fmt.Sprint(full[4:]) != "[0 0 0]" {
		t.Fatalf("dropped tail not zeroed: %v", full)
	}
	mine = Rewind(mine, v3, 1) // backwards: a truncation
	if fmt.Sprint(mine) != "[1]" {
		t.Fatalf("rewind back: %v", mine)
	}
	mine = Rewind(mine, nil, 0)
	if len(mine) != 0 {
		t.Fatalf("rewind to empty: %v", mine)
	}
}
