package sim

// sigCallback is one registered completion callback (see OnFireCall and
// WaitCall).
type sigCallback struct {
	cfn func(any, error)
	arg any
}

// Signal is a one-shot completion event. Processes wait on it; once fired
// (at most once), all current and future waiters proceed immediately.
// A Signal carries an optional error so that asynchronous operations can
// report failure to their waiters.
type Signal struct {
	k         *Kernel
	fired     bool
	firedAt   Time
	err       error
	waiters   []sigCallback // Wait's wakes and WaitCall's continuations, in arrival order
	callbacks []sigCallback
}

// NewSignal returns an unfired signal on kernel k.
func NewSignal(k *Kernel) *Signal { return &Signal{k: k} }

// Reset returns the signal to the unfired state, keeping the waiter and
// callback storage for reuse. It exists so pooled operation structs can
// embed a Signal by value and recycle it across operations; resetting a
// signal that still has waiters or callbacks panics, because they would
// be silently dropped.
func (s *Signal) Reset(k *Kernel) {
	if len(s.waiters) != 0 || len(s.callbacks) != 0 {
		panic("sim: Reset on a Signal with pending waiters or callbacks")
	}
	s.k = k
	s.fired = false
	s.firedAt = 0
	s.err = nil
}

// Fired reports whether the signal has fired.
func (s *Signal) Fired() bool { return s.fired }

// FiredAt returns the time the signal fired; meaningless before Fired.
func (s *Signal) FiredAt() Time { return s.firedAt }

// Err returns the error the signal fired with (nil for success or unfired).
func (s *Signal) Err() error { return s.err }

// Fire marks the signal complete with err and wakes all waiters at the
// current instant: the waiters first, in arrival order, then the
// OnFireCall callbacks. Firing twice panics: a completion happens once.
func (s *Signal) Fire(err error) {
	if s.fired {
		panic("sim: Signal fired twice")
	}
	s.fired = true
	s.firedAt = s.k.now
	s.err = err
	for i, w := range s.waiters {
		s.k.AfterCallErr(0, w.cfn, w.arg, err)
		s.waiters[i] = sigCallback{}
	}
	s.waiters = s.waiters[:0]
	for i, cb := range s.callbacks {
		s.k.AfterCallErr(0, cb.cfn, cb.arg, err)
		s.callbacks[i] = sigCallback{}
	}
	s.callbacks = s.callbacks[:0]
}

// OnFireCall registers fn(arg, err) to run (in event context, at the
// firing instant) when the signal fires; if it already fired, it is
// scheduled immediately. Like the kernel's AfterCallErr it takes its
// state as arg, so callers that keep their state in pooled structs
// construct no closure.
func (s *Signal) OnFireCall(fn func(any, error), arg any) {
	if s.fired {
		s.k.AfterCallErr(0, fn, arg, s.err)
		return
	}
	s.callbacks = append(s.callbacks, sigCallback{cfn: fn, arg: arg})
}

// WaitCall is Wait for a callback continuation: fn(arg, err) takes a
// waiter's place, booked when the signal fires with the processes
// blocked in Wait, in arrival order and ahead of every OnFireCall
// callback. On a fired signal it runs fn at once, as Wait returns at
// once.
func (s *Signal) WaitCall(fn func(any, error), arg any) {
	if s.fired {
		fn(arg, s.err)
		return
	}
	s.waiters = append(s.waiters, sigCallback{cfn: fn, arg: arg})
}

// Wait blocks p until the signal fires (returning immediately if it
// already has) and returns the signal's error.
func (s *Signal) Wait(p *Proc) error {
	s.WaitCall(Resume, p)
	return p.Park()
}

// semWaiter is a pending AcquireCall: the units it asks for and the
// continuation a Release books once they are granted.
type semWaiter struct {
	n   int64
	cfn func(any, error)
	arg any
}

// Semaphore is a counting semaphore with FIFO granting: a large request at
// the head of the line is not starved by smaller requests behind it.
type Semaphore struct {
	k       *Kernel
	avail   int64
	waiters []semWaiter
	whead   int
}

// NewSemaphore returns a semaphore holding n units.
func NewSemaphore(k *Kernel, n int64) *Semaphore {
	if n < 0 {
		panic("sim: negative semaphore capacity")
	}
	return &Semaphore{k: k, avail: n}
}

// AcquireCall takes n units and then runs fn(arg, nil). When the units
// are free and nobody waits ahead, it takes them and runs fn at once,
// booking nothing; otherwise fn joins the FIFO line, and the Release
// that grants its units books it as a zero-delay event.
func (s *Semaphore) AcquireCall(n int64, fn func(any, error), arg any) {
	if n < 0 {
		panic("sim: negative semaphore acquire")
	}
	if s.whead == len(s.waiters) && s.avail >= n {
		s.avail -= n
		fn(arg, nil)
		return
	}
	s.waiters = append(s.waiters, semWaiter{n: n, cfn: fn, arg: arg})
}

// Acquire blocks p until n units are available, then takes them.
func (s *Semaphore) Acquire(p *Proc, n int64) {
	s.AcquireCall(n, Resume, p)
	p.Park()
}

// Release returns n units and grants as many head-of-line waiters as now
// fit, booking each one's continuation at the current instant.
func (s *Semaphore) Release(n int64) {
	if n < 0 {
		panic("sim: negative semaphore release")
	}
	s.avail += n
	for s.whead < len(s.waiters) && s.avail >= s.waiters[s.whead].n {
		w := s.waiters[s.whead]
		s.waiters[s.whead] = semWaiter{}
		s.whead++
		if s.whead == len(s.waiters) {
			s.waiters = s.waiters[:0]
			s.whead = 0
		}
		s.avail -= w.n
		s.k.AfterCallErr(0, w.cfn, w.arg, nil)
	}
}

// Mutex is a mutual-exclusion lock with FIFO hand-off.
type Mutex struct{ s *Semaphore }

// NewMutex returns an unlocked mutex.
func NewMutex(k *Kernel) *Mutex { return &Mutex{s: NewSemaphore(k, 1)} }

// LockCall takes the mutex and then runs fn(arg, nil): at once when it
// is free, else as the event the Unlock that hands it over books.
func (m *Mutex) LockCall(fn func(any, error), arg any) { m.s.AcquireCall(1, fn, arg) }

// Lock blocks p until the mutex is held.
func (m *Mutex) Lock(p *Proc) {
	m.LockCall(Resume, p)
	p.Park()
}

// Unlock releases the mutex.
func (m *Mutex) Unlock() { m.s.Release(1) }

// Barrier synchronizes a fixed party of n arrivals: each waits until all
// n have arrived, then all are released and the barrier resets for the
// next round.
type Barrier struct {
	k       *Kernel
	n       int
	arrived int
	waiters []sigCallback
}

// NewBarrier returns a barrier for n parties.
func NewBarrier(k *Kernel, n int) *Barrier {
	if n <= 0 {
		panic("sim: barrier needs at least one party")
	}
	return &Barrier{k: k, n: n}
}

// WaitCall arrives at the barrier and runs fn(arg, nil) once the current
// round is complete. The last arrival books the earlier arrivals'
// continuations as zero-delay events, in arrival order, and then runs
// its own fn at once, in the event it arrived in.
func (b *Barrier) WaitCall(fn func(any, error), arg any) {
	b.arrived++
	if b.arrived < b.n {
		b.waiters = append(b.waiters, sigCallback{cfn: fn, arg: arg})
		return
	}
	b.arrived = 0
	for i, w := range b.waiters {
		b.k.AfterCallErr(0, w.cfn, w.arg, nil)
		b.waiters[i] = sigCallback{}
	}
	b.waiters = b.waiters[:0]
	fn(arg, nil)
}

// Wait blocks p until all parties of the current round have arrived.
func (b *Barrier) Wait(p *Proc) {
	b.WaitCall(Resume, p)
	p.Park()
}
