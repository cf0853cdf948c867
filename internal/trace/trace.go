// Package trace records a timeline of file system events — read calls,
// stripe requests, prefetch decisions — for debugging models and
// explaining performance. Tracing is off unless a Log is attached
// (pfs.FileSystem.SetTrace, prefetch.Config.Trace), and a bounded log
// keeps memory use flat on long runs.
package trace

import (
	"fmt"
	"hash/fnv"
	"io"

	"repro/internal/sim"
)

// Kind classifies an event.
type Kind int

const (
	ReadStart      Kind = iota // application read call entered
	ReadEnd                    // application read call returned
	StripeSend                 // a declustered piece sent to an I/O node
	StripeReply                // a piece's data arrived back
	PrefetchIssue              // read-ahead queued on the ART
	PrefetchHit                // read served from a completed buffer
	PrefetchWait               // read waited on an in-flight prefetch
	PrefetchMiss               // no buffer matched; direct read
	RetryIssue                 // a failed/timed-out piece re-sent to its I/O node
	RetryGiveUp                // retry budget exhausted; the error surfaces
	TimeoutFired               // a piece's reply deadline passed with no reply
	NodeCrash                  // an I/O node crashed; in-flight work vanishes
	NodeRestart                // a crashed I/O node came back up, cache cold
	DegradedRead               // array read reconstructed from parity (member dead)
	RebuildIO                  // one background rebuild copy onto the hot spare
	RebuildDone                // hot spare promoted; the array is healthy again
	PrefetchRetune             // controller moved Depth/MaxBuffers (Off=depth, N=cap)
	QoSArrival                 // open-loop tenant request spawned (Node=tenant, N=bytes)
	QoSShed                    // server shed a request at tenant admission (token bucket)
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case ReadStart:
		return "read-start"
	case ReadEnd:
		return "read-end"
	case StripeSend:
		return "stripe-send"
	case StripeReply:
		return "stripe-reply"
	case PrefetchIssue:
		return "prefetch-issue"
	case PrefetchHit:
		return "prefetch-hit"
	case PrefetchWait:
		return "prefetch-wait"
	case PrefetchMiss:
		return "prefetch-miss"
	case RetryIssue:
		return "retry-issue"
	case RetryGiveUp:
		return "retry-giveup"
	case TimeoutFired:
		return "timeout-fired"
	case NodeCrash:
		return "node-crash"
	case NodeRestart:
		return "node-restart"
	case DegradedRead:
		return "degraded-read"
	case RebuildIO:
		return "rebuild-io"
	case RebuildDone:
		return "rebuild-done"
	case PrefetchRetune:
		return "prefetch-retune"
	case QoSArrival:
		return "qos-arrival"
	case QoSShed:
		return "qos-shed"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one timeline entry.
type Event struct {
	T    sim.Time
	Kind Kind
	Node int    // compute or I/O node involved
	File string // PFS path
	Off  int64
	N    int64
}

// Log is a bounded append-only event log. Not safe for use outside the
// simulation's single-threaded discipline (which is where all producers
// live).
type Log struct {
	events  []Event
	cap     int
	dropped int64
}

// NewLog returns a log that retains at most capacity events; later events
// are counted but dropped.
func NewLog(capacity int) *Log {
	if capacity <= 0 {
		panic("trace: capacity must be positive")
	}
	// Preallocate the ring up front (bounded: huge caps start at 1024 and
	// grow amortized) so steady-state Add is a plain append with no
	// per-event garbage.
	pre := capacity
	if pre > 1024 {
		pre = 1024
	}
	return &Log{events: make([]Event, 0, pre), cap: capacity}
}

// Add appends an event (dropping it if the log is full).
func (l *Log) Add(e Event) {
	if len(l.events) >= l.cap {
		l.dropped++
		return
	}
	l.events = append(l.events, e)
}

// Events returns the retained events in order.
func (l *Log) Events() []Event { return l.events }

// Dropped reports how many events did not fit.
func (l *Log) Dropped() int64 { return l.dropped }

// Count returns how many events of kind k were retained.
func (l *Log) Count(k Kind) int {
	n := 0
	for _, e := range l.events {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// WriteCanonical renders the timeline in the canonical replay format:
// one event per line as tab-separated raw fields (nanosecond time, kind
// number, node, file, offset, length), terminated by a "dropped" footer.
// Unlike WriteText the encoding has no adaptive units or column padding,
// so it is stable across formatting changes — two runs of a simulation
// are byte-identical here if and only if they traced the same events.
func (l *Log) WriteCanonical(w io.Writer) error {
	for _, e := range l.events {
		if _, err := fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n",
			int64(e.T), int(e.Kind), e.Node, e.File, e.Off, e.N); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "dropped\t%d\n", l.dropped)
	return err
}

// Digest hashes the canonical serialization (FNV-64a). Equal digests mean
// the logs retained identical event sequences and drop counts; this is
// the replayable fingerprint simcheck compares across runs of one seed.
func (l *Log) Digest() uint64 {
	h := fnv.New64a()
	// WriteCanonical cannot fail on a hash.Hash.
	l.WriteCanonical(h) //nolint:errcheck
	return h.Sum64()
}

// WriteText renders the timeline, one event per line.
func (l *Log) WriteText(w io.Writer) error {
	for _, e := range l.events {
		if _, err := fmt.Fprintf(w, "%12v  %-14s node=%-3d %s [%d,+%d)\n",
			e.T, e.Kind, e.Node, e.File, e.Off, e.N); err != nil {
			return err
		}
	}
	if l.dropped > 0 {
		if _, err := fmt.Fprintf(w, "(%d further events dropped)\n", l.dropped); err != nil {
			return err
		}
	}
	return nil
}
