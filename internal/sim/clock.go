// Package sim provides the deterministic discrete-event simulation kernel
// underlying every experiment in the certify framework.
//
// A single goroutine owns an Engine. Components (CPUs, devices, guests)
// schedule callbacks on the engine's event queue, keyed by virtual time with
// sequence-number tie-breaking, so a run is a pure function of its inputs and
// its 64-bit seed. Campaign-level parallelism happens across independent
// engines, never inside one.
package sim

import (
	"fmt"
	"strconv"
	"time"
)

// Time is virtual time in nanoseconds since machine power-on.
//
// Virtual time is completely decoupled from wall-clock time: a 60-second
// experiment completes in milliseconds of host time.
type Time int64

// Common virtual durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
)

// Duration converts a virtual timespan to a time.Duration for reporting.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// String renders the virtual instant with millisecond precision, in the
// bracketed style kernel logs use, e.g. "[    1.042]".
func (t Time) String() string {
	return fmt.Sprintf("[%5d.%03d]", int64(t/Second), int64(t%Second)/int64(Millisecond))
}

// AppendString appends t.String() to b. Non-negative instants, the only
// ones a run produces, are formatted without fmt.
func (t Time) AppendString(b []byte) []byte {
	if t < 0 {
		return append(b, t.String()...)
	}
	var d [20]byte
	secs := strconv.AppendInt(d[:0], int64(t/Second), 10)
	b = append(b, "[     "[:1+max(5-len(secs), 0)]...)
	b = append(b, secs...)
	ms := int64(t%Second) / int64(Millisecond)
	return append(b, '.', byte('0'+ms/100), byte('0'+ms/10%10), byte('0'+ms%10), ']')
}
