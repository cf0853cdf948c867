// The constraint sets this file's language version for iter.Pull; go.mod stays at 1.22 (see Proc).
//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
)

// Proc is a simulated process: code that the kernel runs on a coroutine
// (iter.Pull) and resumes from event callbacks, so at most one process
// (or event callback) executes at any real instant. Blocking methods
// (Sleep, Signal.Wait, Semaphore.Acquire, ...) must only be called from
// the process itself.
//
// A switch is a direct coroutine hand-off, not a round trip through a
// channel pair between two goroutines. iter.Pull is the module's only
// go1.23 API, so proc.go carries a go1.23 build constraint instead of a
// go.mod bump: benchsuite's module says go 1.22 and requires this one,
// and a go 1.23 directive here would make its build demand a go.mod
// update.
type Proc struct {
	k    *Kernel
	name string
	fn   func(p *Proc)
	co   *coroutine // the coroutine running the process; nil before it starts and after it ends

	parked  bool  // blocked in Park
	resumed bool  // Resume ran and Park has not yet returned its error
	parkErr error // the error Resume delivered
}

// coroutine runs processes one after another. When its process ends it
// waits in k.idle, and the next start event reuses it: a short-lived
// process costs a switch in and out, not a new coroutine. Every
// coroutine lives until Kernel.Close.
type coroutine struct {
	next  func() (struct{}, bool) // runs the process until it blocks or ends
	stop  func()                  // ends the coroutine (Kernel.Close)
	yield func(struct{}) bool     // suspends the process; false once stopped
	p     *Proc                   // the process it runs; nil while idle
}

// errStopped is the sentinel panic that unwinds a process ended by
// Kernel.Close.
var errStopped = new(int)

// Go creates a process named name and schedules it to start at the current
// simulated time. fn runs on a coroutine under kernel hand-off; when fn
// returns the process ends. A panic in fn aborts the whole simulation and
// is reported by Run. The process gets its coroutine only when its start
// event runs: a machine that is built but never run holds no coroutine.
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name, fn: fn}
	k.live++
	k.started++
	k.AfterCall(0, startProc, p)
	return p
}

// startProc is the start event: put the process on an idle coroutine (or
// a new one) and run it until it first blocks or finishes.
func startProc(a any) {
	p := a.(*Proc)
	k := p.k
	var c *coroutine
	if n := len(k.idle); n > 0 {
		c = k.idle[n-1]
		k.idle = k.idle[:n-1]
	} else {
		c = &coroutine{}
		c.next, c.stop = iter.Pull(c.loop)
		k.coros = append(k.coros, c)
	}
	c.p, p.co = p, c
	c.next()
}

// loop is the coroutine body: run the assigned process, go idle, and wait
// for the next one.
func (c *coroutine) loop(yield func(struct{}) bool) {
	c.yield = yield
	for {
		p := c.p
		p.run()
		c.p, p.co = nil, nil
		p.k.idle = append(p.k.idle, c)
		if !yield(struct{}{}) {
			return
		}
	}
}

// run runs the process body to its end.
func (p *Proc) run() {
	defer p.exit()
	p.fn(p)
}

// exit ends the process. The recover runs on the process's own stack, so
// a panic's report carries the frames of the code that panicked rather
// than iter.Pull's re-panic in the kernel goroutine. A process ended by
// Close leaves the live count as it was: fingerprint folds it.
func (p *Proc) exit() {
	r := recover()
	k := p.k
	if k.closed {
		return
	}
	if r != nil && k.failed == nil {
		k.failed = fmt.Errorf("sim: process %q panicked at %v: %v\n%s",
			p.name, k.now, r, debug.Stack())
	}
	k.live--
}

// Close ends every coroutine: the idle ones kept for reuse, and the
// processes left blocked by a deadlock, a panic or a RunUntil deadline,
// whose deferred functions run. Without it a parked coroutine stays
// reachable, and with it everything its machine holds. Close leaves the
// clock, the event counts and the live count untouched, so fingerprint
// reads the same before and after. It must be called from outside the simulation, after the last
// Run; the kernel must not run again. Calling it twice is a no-op.
func (k *Kernel) Close() {
	k.closed = true
	for _, c := range k.coros {
		c.stop()
	}
	k.coros, k.idle = nil, nil
}

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.k.now }

// block suspends the process, returning control to the kernel, until an
// event runs wakeProc on it. If Close ends the process instead, block
// unwinds it.
func (p *Proc) block() {
	if !p.co.yield(struct{}{}) {
		panic(errStopped)
	}
}

// Park blocks p until Resume delivers the outcome of the callback
// operation p started, and returns its error. When the operation already
// completed (Resume ran before Park), Park returns at once without
// blocking.
func (p *Proc) Park() error {
	if !p.resumed {
		p.parked = true
		p.block()
	}
	err := p.parkErr
	p.resumed, p.parkErr = false, nil
	return err
}

// Resume is the done callback that ends a Park: pass it, with the *Proc
// as its arg, to a pooled callback operation. If p is parked, Resume
// runs it in the current event until it blocks again or ends, so the
// process costs no event of its own (a parked p must be resumed from an
// event); if p has not parked yet, Resume only records err for Park to
// return.
func Resume(a any, err error) {
	p := a.(*Proc)
	if p.resumed {
		panic(fmt.Sprintf("sim: process %q resumed twice", p.name))
	}
	p.resumed, p.parkErr = true, err
	if p.parked {
		p.parked = false
		p.co.next()
	}
}

// wakeProc is the shared pooled-args callback that resumes a blocked
// process until it blocks again or finishes; scheduling it with
// AfterCall(d, wakeProc, p) wakes p after d without allocating. It must
// run in kernel context (an event callback).
func wakeProc(a any) { a.(*Proc).co.next() }

// Sleep suspends the process for d of simulated time.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: process %q sleeping negative duration %v", p.name, d))
	}
	p.k.AfterCall(d, wakeProc, p)
	p.block()
}
