package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// syncOp is one step of a syncActor's script.
type syncOp struct {
	kind byte // 's'leep, 'a'cquire, 'r'elease, 'l'ock, 'u'nlock, 'b'arrier, 'c'redit
	d    Time
	n    int64
}

// syncStep is one completed step: who, which, and where the kernel's
// clock and sequence counter stood.
type syncStep struct {
	actor, pc int
	t         Time
	seq       uint64
}

// syncWorld is what the actors share.
type syncWorld struct {
	k       *Kernel
	sem     *Semaphore
	mu      *Mutex
	bar     *Barrier
	credits *Semaphore // starts empty; timed events release its units
	log     []syncStep
	waits   map[byte]int // callback steps that did not complete at once, by kind
}

func (w *syncWorld) note(actor, pc int) {
	w.log = append(w.log, syncStep{actor, pc, w.k.now, w.k.seq})
}

// syncScript draws a seeded world: actor scripts of rounds that each
// hold the semaphore, the mutex or a credit (never two at once, so no
// run can deadlock) between zero and short sleeps, then meet at the
// barrier; and the credit releases, one timed event per unit a script
// takes. Zero sleeps dominate, so most steps land in the same instant.
func syncScript(seed int64) (scripts [][]syncOp, capacity int64, releases []Time) {
	rng := rand.New(rand.NewSource(seed))
	capacity = 1 + rng.Int63n(3)
	sleep := func() syncOp { return syncOp{kind: 's', d: Time(rng.Intn(4)/3) * Time(1+rng.Intn(3)) * Millisecond} }
	actors, rounds := 2+rng.Intn(4), 1+rng.Intn(4)
	for a := 0; a < actors; a++ {
		var s []syncOp
		for r := 0; r < rounds; r++ {
			for op := rng.Intn(4); op > 0; op-- {
				switch rng.Intn(4) {
				case 0:
					s = append(s, sleep())
				case 1:
					n := 1 + rng.Int63n(capacity)
					s = append(s, syncOp{kind: 'a', n: n}, sleep(), syncOp{kind: 'r', n: n})
				case 2:
					s = append(s, syncOp{kind: 'l'}, sleep(), syncOp{kind: 'u'})
				default:
					s = append(s, syncOp{kind: 'c'})
					releases = append(releases, Time(rng.Intn(3))*Millisecond)
				}
			}
			s = append(s, syncOp{kind: 'b'})
		}
		scripts = append(scripts, s)
	}
	return scripts, capacity, releases
}

func newSyncWorld(actors int, capacity int64, releases []Time) *syncWorld {
	k := NewKernel()
	w := &syncWorld{k: k, sem: NewSemaphore(k, capacity), mu: NewMutex(k),
		bar: NewBarrier(k, actors), credits: NewSemaphore(k, 0)}
	for _, t := range releases {
		k.AfterCall(t, func(any) { w.credits.Release(1) }, nil)
	}
	return w
}

// runSyncProcs runs the scripts as processes on the blocking forms.
func runSyncProcs(t *testing.T, seed int64) ([]syncStep, Stats) {
	scripts, capacity, releases := syncScript(seed)
	w := newSyncWorld(len(scripts), capacity, releases)
	for a, s := range scripts {
		a, s := a, s
		w.k.Go(fmt.Sprintf("actor%d", a), func(p *Proc) {
			for pc, op := range s {
				switch op.kind {
				case 's':
					p.Sleep(op.d)
				case 'a':
					w.sem.Acquire(p, op.n)
				case 'r':
					w.sem.Release(op.n)
				case 'l':
					w.mu.Lock(p)
				case 'u':
					w.mu.Unlock()
				case 'b':
					w.bar.Wait(p)
				case 'c':
					w.credits.Acquire(p, 1)
				}
				w.note(a, pc)
			}
		})
	}
	if err := w.k.Run(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return w.log, w.k.Stats()
}

// syncActor runs a script as a callback state machine on the …Call
// forms.
type syncActor struct {
	w      *syncWorld
	id, pc int
	script []syncOp
}

func (a *syncActor) run() {
	if a.pc == len(a.script) {
		return
	}
	w, op, pc := a.w, a.script[a.pc], a.pc
	defer func() {
		if a.pc == pc && op.kind != 's' {
			w.waits[op.kind]++
		}
	}()
	switch op.kind {
	case 's':
		w.k.AfterCall(op.d, func(x any) { syncNext(x, nil) }, a)
	case 'a':
		w.sem.AcquireCall(op.n, syncNext, a)
	case 'r':
		w.sem.Release(op.n)
		syncNext(a, nil)
	case 'l':
		w.mu.LockCall(syncNext, a)
	case 'u':
		w.mu.Unlock()
		syncNext(a, nil)
	case 'b':
		w.bar.WaitCall(syncNext, a)
	case 'c':
		w.credits.AcquireCall(1, syncNext, a)
	}
}

func syncNext(x any, _ error) {
	a := x.(*syncActor)
	a.w.note(a.id, a.pc)
	a.pc++
	a.run()
}

func runSyncCalls(t *testing.T, seed int64, waits map[byte]int) ([]syncStep, Stats) {
	scripts, capacity, releases := syncScript(seed)
	w := newSyncWorld(len(scripts), capacity, releases)
	w.waits = waits
	for a, s := range scripts {
		w.k.AfterCall(0, func(x any) { x.(*syncActor).run() }, &syncActor{w: w, id: a, script: s})
	}
	if err := w.k.Run(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	for _, n := range []int{len(w.sem.waiters), len(w.credits.waiters), len(w.bar.waiters)} {
		if n != 0 {
			t.Fatalf("seed %d: %d continuations never ran", seed, n)
		}
	}
	return w.log, w.k.Stats()
}

// TestSyncCallFormsMatchBlockingForms: over seeded interleavings of
// semaphore acquires and releases, mutex locks and unlocks, credits
// released from events and barrier rounds, the blocking forms run by
// processes and the …Call forms run by callback state machines complete
// every step at the same (time, seq) and book the same events.
func TestSyncCallFormsMatchBlockingForms(t *testing.T) {
	waits := map[byte]int{}
	for seed := int64(1); seed <= 300; seed++ {
		procs, ps := runSyncProcs(t, seed)
		calls, cs := runSyncCalls(t, seed, waits)
		if len(procs) != len(calls) {
			t.Fatalf("seed %d: %d steps under processes, %d under callbacks", seed, len(procs), len(calls))
		}
		for i := range procs {
			if procs[i] != calls[i] {
				t.Fatalf("seed %d: step %d: process %+v, callback %+v", seed, i, procs[i], calls[i])
			}
		}
		if ps.Executed != cs.Executed || ps.Scheduled != cs.Scheduled {
			t.Fatalf("seed %d: process run executed %d of %d events, callback run %d of %d",
				seed, ps.Executed, ps.Scheduled, cs.Executed, cs.Scheduled)
		}
	}
	for _, kind := range []byte("alcb") {
		if waits[kind] == 0 {
			t.Fatalf("no %q step ever waited: %v", kind, waits)
		}
	}
}
