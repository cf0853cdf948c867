package sim

import (
	"fmt"
	"hash/fnv"
)

// event is a scheduled callback. Events are pooled on the kernel's free
// list: every simulated event crosses Schedule (At/After) and the run
// loop, so reusing the structs removes one heap allocation per event —
// the dominant allocation of a simulation.
//
// An event carries either a plain closure (fn) or a pooled-args callback
// (cfn/ecfn with arg, and err for ecfn). The callback forms exist so hot
// paths can schedule without constructing a closure: a func(any) is a
// shared top-level function and arg is a pointer to pooled state, so the
// whole At/dispatch round trip allocates nothing.
type event struct {
	t    Time
	seq  uint64 // tie-breaker: see the (time, seq) total order below
	fn   func()
	cfn  func(any)
	ecfn func(any, error)
	arg  any
	err  error
}

// Kernel is a discrete-event simulation scheduler. It is not safe for
// concurrent use from multiple OS threads; all concurrency in a simulation
// is expressed through processes, which the kernel interleaves
// deterministically one at a time.
//
// Simultaneous events execute in an explicit documented total order,
// never by queue insertion accident: (time, seq), where seq is the
// kernel's scheduling sequence number — events booked earlier run
// earlier at the same instant.
type Kernel struct {
	now        Time
	seq        uint64
	q          ladderQueue  // pending events, popped in (time, seq) order (see ladder.go)
	coros      []*coroutine // every coroutine created so far (Close stops them)
	idle       []*coroutine // coroutines whose process has ended, ready for the next start
	closed     bool         // Close has run
	live       int          // procs started and not yet finished
	started    uint64       // procs started so far
	executed   uint64       // events run so far
	failed     error        // first process panic, if any
	free       []*event     // recycled event structs (see event)
	maxPending int          // high-water mark of the pending-event count
}

// newKernelHook, when set, runs on every kernel NewKernel returns. It
// is a test seam (see export_test.go): the engine-noise test books no-op
// events into the kernels that workload runs build for themselves.
var newKernelHook func(*Kernel)

// NewKernel returns an empty kernel with the clock at zero.
func NewKernel() *Kernel {
	k := &Kernel{}
	k.q.reset()
	if newKernelHook != nil {
		newKernelHook(k)
	}
	return k
}

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Pending reports the number of events waiting to run.
func (k *Kernel) Pending() int { return k.q.n }

// MaxPending reports the high-water mark of the pending-event count —
// the deepest the event queue ever got. It is a deterministic property
// of the schedule (benchsuite reports it as sim.max_queue_depth).
func (k *Kernel) MaxPending() int { return k.maxPending }

// Live reports the number of processes that have been created and have not
// yet returned. After Run, a nonzero value means some processes are blocked
// forever (a modeling deadlock).
func (k *Kernel) Live() int { return k.live }

// Executed reports the number of events the kernel has run. Together with
// the clock and the sequence counter it summarizes the whole schedule: two
// runs of the same model that disagree anywhere disagree here.
func (k *Kernel) Executed() uint64 { return k.executed }

// Stats is the kernel's engine census: how it booked a run, as opposed
// to what the simulated machine did. A refactor that books fewer events
// for the same model behaviour moves Stats but no model digest, so Stats
// is observational — compared between two runs of one build, never
// pinned by a golden.
type Stats struct {
	Executed   uint64 // events run
	Scheduled  uint64 // events booked (the last sequence number)
	MaxPending int    // deepest the event queue got
	Live       int    // processes started and not finished
	Started    uint64 // processes started
}

// Stats returns the kernel's engine census.
func (k *Kernel) Stats() Stats {
	return Stats{Executed: k.executed, Scheduled: k.seq, MaxPending: k.maxPending,
		Live: k.live, Started: k.started}
}

// fingerprint digests the kernel's terminal state — clock, total events
// scheduled, events executed, and live processes — for run-twice
// determinism checks. It is not a hash of the event history itself; the
// per-event record lives in the trace log, which has its own digest.
func (k *Kernel) fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range []uint64{uint64(k.now), k.seq, k.executed, uint64(k.live)} {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// schedule books a pooled event at absolute time t, inserts it, and
// returns it for the caller to attach a callback. The queue orders
// events by (t, seq) only, so pushing before the callback fields are
// set is safe. Scheduling in the past (t < Now) panics: it would
// silently reorder causality.
func (k *Kernel) schedule(t Time) *event {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	k.seq++
	var e *event
	if n := len(k.free); n > 0 {
		e = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
	} else {
		e = &event{}
	}
	e.t, e.seq = t, k.seq
	k.q.push(e)
	if k.q.n > k.maxPending {
		k.maxPending = k.q.n
	}
	return e
}

// At schedules fn to run at absolute time t.
func (k *Kernel) At(t Time, fn func()) {
	k.schedule(t).fn = fn
}

// After schedules fn to run d after the current time. Negative d panics.
func (k *Kernel) After(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	k.At(k.now+d, fn)
}

// AtCall schedules fn(arg) to run at absolute time t. It is At without
// the closure: fn is typically a shared top-level function and arg a
// pointer to pooled state, so the call allocates nothing. Scheduling
// order, timing, and fingerprint accounting are identical to At.
func (k *Kernel) AtCall(t Time, fn func(any), arg any) {
	e := k.schedule(t)
	e.cfn, e.arg = fn, arg
}

// AfterCall is AtCall relative to the current time. Negative d panics.
func (k *Kernel) AfterCall(d Time, fn func(any), arg any) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	k.AtCall(k.now+d, fn, arg)
}

// AfterCallErr schedules fn(arg, err) d after the current time, carrying
// an error value in the event itself. It exists for completion paths
// (signal callbacks, device done notifications) that deliver an error to
// pooled state without closing over it. Negative d panics.
func (k *Kernel) AfterCallErr(d Time, fn func(any, error), arg any, err error) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e := k.schedule(k.now + d)
	e.ecfn, e.arg, e.err = fn, arg, err
}

// Run executes events until none remain, then returns the first process
// failure (panic) if any occurred. Processes still blocked when the event
// queue drains are reported as a deadlock error.
func (k *Kernel) Run() error { return k.RunUntil(Time(1)<<62 - 1) }

// RunUntil executes events with time ≤ deadline. The clock stops at the
// last executed event (or the deadline if nothing ran past it). Unlike Run,
// a drained queue with live processes is not an error when the deadline
// cut the run short.
func (k *Kernel) RunUntil(deadline Time) error {
	for {
		t, ok := k.q.peek()
		if !ok {
			break
		}
		if t > deadline {
			k.now = deadline
			return k.failed
		}
		e := k.q.pop()
		k.now = e.t
		k.executed++
		fn, cfn, ecfn, arg, err := e.fn, e.cfn, e.ecfn, e.arg, e.err
		// Recycle before dispatch: the callback's own Schedule calls can
		// reuse the struct immediately. Clearing the callback fields drops
		// closure and arg references so pooled events do not pin dead state.
		e.fn, e.cfn, e.ecfn, e.arg, e.err = nil, nil, nil, nil, nil
		k.free = append(k.free, e)
		switch {
		case fn != nil:
			fn()
		case ecfn != nil:
			ecfn(arg, err)
		default:
			cfn(arg)
		}
		if k.failed != nil {
			return k.failed
		}
	}
	if k.live > 0 && deadline >= Time(1)<<62-1 {
		return fmt.Errorf("sim: deadlock: %d process(es) blocked with no pending events at %v",
			k.live, k.now)
	}
	return k.failed
}
