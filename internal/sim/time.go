// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel advances a virtual clock by executing events in (time,
// sequence) order. Model code can be written either as plain event
// callbacks or as blocking processes (Proc): coroutines that the kernel
// resumes one at a time with strict hand-off, so simulations are fully
// deterministic and free of data races by construction.
package sim

import "fmt"

// Time is a point on (or a span of) the simulated clock, in nanoseconds.
// The zero Time is the instant the simulation starts.
type Time int64

// Convenient durations, mirroring time.Duration's constants.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Seconds converts a floating-point number of seconds to a Time.
func Seconds(s float64) Time { return Time(s * float64(Second)) }

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time with an adaptive unit, e.g. "1.500ms".
func (t Time) String() string {
	switch {
	case t == 0:
		return "0s"
	case t < Microsecond && t > -Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond && t > -Millisecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case t < Second && t > -Second:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.3fs", t.Seconds())
	}
}
