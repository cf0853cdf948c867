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

// Queue is an unbounded FIFO channel between processes. Put never blocks;
// Get blocks until an item is available. Items are delivered in insertion
// order and waiters are served in arrival order. Both item and waiter
// storage are head-indexed rings over a reused backing slice, so a
// steady-state producer/consumer pair allocates nothing.
type Queue[T any] struct {
	k       *Kernel
	items   []T
	head    int
	waiters []*Proc
	whead   int
}

// NewQueue returns an empty queue on kernel k.
func NewQueue[T any](k *Kernel) *Queue[T] { return &Queue[T]{k: k} }

// Len reports the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

// Put appends v and wakes the longest-waiting getter, if any. It may be
// called from process or event context.
func (q *Queue[T]) Put(v T) {
	q.items = append(q.items, v)
	if q.whead < len(q.waiters) {
		p := q.waiters[q.whead]
		q.waiters[q.whead] = nil
		q.whead++
		if q.whead == len(q.waiters) {
			q.waiters = q.waiters[:0]
			q.whead = 0
		}
		q.k.AfterCall(0, wakeProc, p)
	}
}

func (q *Queue[T]) pop() T {
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return v
}

// Get removes and returns the head item, blocking while the queue is
// empty.
func (q *Queue[T]) Get(p *Proc) T {
	for q.head == len(q.items) {
		q.waiters = append(q.waiters, p)
		p.block()
	}
	return q.pop()
}

// TryGet removes and returns the head item without blocking. ok is false
// if the queue is empty.
func (q *Queue[T]) TryGet() (v T, ok bool) {
	if q.head == len(q.items) {
		return v, false
	}
	return q.pop(), true
}

// semWaiter is a pending Acquire.
type semWaiter struct {
	p       *Proc
	n       int64
	granted bool
}

// Semaphore is a counting semaphore with FIFO granting: a large request at
// the head of the line is not starved by smaller requests behind it.
type Semaphore struct {
	k       *Kernel
	avail   int64
	waiters []*semWaiter
	whead   int
}

// NewSemaphore returns a semaphore holding n units.
func NewSemaphore(k *Kernel, n int64) *Semaphore {
	if n < 0 {
		panic("sim: negative semaphore capacity")
	}
	return &Semaphore{k: k, avail: n}
}

// Acquire blocks p until n units are available, then takes them.
func (s *Semaphore) Acquire(p *Proc, n int64) {
	if n < 0 {
		panic("sim: negative semaphore acquire")
	}
	if s.whead == len(s.waiters) && s.avail >= n {
		s.avail -= n
		return
	}
	w := &semWaiter{p: p, n: n}
	s.waiters = append(s.waiters, w)
	for !w.granted {
		p.block()
	}
}

// Release returns n units and grants as many head-of-line waiters as now
// fit.
func (s *Semaphore) Release(n int64) {
	if n < 0 {
		panic("sim: negative semaphore release")
	}
	s.avail += n
	for s.whead < len(s.waiters) && s.avail >= s.waiters[s.whead].n {
		w := s.waiters[s.whead]
		s.waiters[s.whead] = nil
		s.whead++
		if s.whead == len(s.waiters) {
			s.waiters = s.waiters[:0]
			s.whead = 0
		}
		s.avail -= w.n
		w.granted = true
		s.k.AfterCall(0, wakeProc, w.p)
	}
}

// Mutex is a mutual-exclusion lock with FIFO hand-off.
type Mutex struct{ s *Semaphore }

// NewMutex returns an unlocked mutex.
func NewMutex(k *Kernel) *Mutex { return &Mutex{s: NewSemaphore(k, 1)} }

// Lock blocks p until the mutex is held.
func (m *Mutex) Lock(p *Proc) { m.s.Acquire(p, 1) }

// Unlock releases the mutex.
func (m *Mutex) Unlock() { m.s.Release(1) }

// Barrier synchronizes a fixed party of n processes: each Wait blocks
// until all n have arrived, then all are released and the barrier resets
// for the next round.
type Barrier struct {
	k       *Kernel
	n       int
	arrived int
	waiters []*Proc
}

// NewBarrier returns a barrier for n parties.
func NewBarrier(k *Kernel, n int) *Barrier {
	if n <= 0 {
		panic("sim: barrier needs at least one party")
	}
	return &Barrier{k: k, n: n}
}

// Wait blocks p until all parties of the current round have arrived.
func (b *Barrier) Wait(p *Proc) {
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		for i, w := range b.waiters {
			b.k.AfterCall(0, wakeProc, w)
			b.waiters[i] = nil
		}
		b.waiters = b.waiters[:0]
		return
	}
	b.waiters = append(b.waiters, p)
	p.block()
}
