package sim

import (
	"runtime"
	"strings"
	"testing"
)

// TestCloseEndsParkedProcs: once a run is over, Close ends every parked
// process — a service loop waiting for work, a process left blocked by a
// deadlock — running its deferred functions, and the goroutine count
// returns to what it was before the kernel existed. A second Close is a
// no-op.
func TestCloseEndsParkedProcs(t *testing.T) {
	before := runtime.NumGoroutine()
	k := NewKernel()
	q := NewQueue[int](k)
	deferred := 0
	k.Go("server", func(p *Proc) {
		defer func() { deferred++ }()
		for {
			q.Get(p)
		}
	})
	k.Go("stuck", func(p *Proc) {
		defer func() { deferred++ }()
		NewQueue[int](k).Get(p) // nobody ever puts
	})
	k.Go("client", func(p *Proc) {
		q.Put(1)
		p.Sleep(Millisecond)
	})
	if err := k.Run(); err == nil {
		t.Fatal("blocked processes not reported as deadlock")
	}
	parked := runtime.NumGoroutine()
	if parked < before+2 {
		t.Fatalf("%d goroutines with two procs parked, %d before the kernel", parked, before)
	}
	k.Close()
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("%d goroutines after Close, %d before the kernel", g, before)
	}
	if deferred != 2 {
		t.Fatalf("Close ran %d deferred functions, want 2", deferred)
	}
	k.Close()
	if g := runtime.NumGoroutine(); g > before || deferred != 2 {
		t.Fatalf("second Close: %d goroutines (want %d), %d deferred runs (want 2)", g, before, deferred)
	}
}

// TestCloseKeepsFingerprint: Close touches neither the clock, the event
// counts nor the live count, so the kernel's terminal fingerprint reads
// the same before and after — here with a service loop left parked by a
// RunUntil deadline.
func TestCloseKeepsFingerprint(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k)
	k.Go("server", func(p *Proc) {
		for {
			q.Get(p)
			p.Sleep(Millisecond)
		}
	})
	k.Go("client", func(p *Proc) {
		for i := 0; i < 3; i++ {
			q.Put(i)
			p.Sleep(Millisecond)
		}
	})
	if err := k.RunUntil(Second); err != nil {
		t.Fatal(err)
	}
	fp, live := k.Fingerprint(), k.Live()
	if live != 1 {
		t.Fatalf("%d processes live after the client ended, want the parked server", live)
	}
	k.Close()
	if k.Fingerprint() != fp || k.Live() != live {
		t.Fatalf("Close moved the kernel: fingerprint %016x -> %016x, live %d -> %d",
			fp, k.Fingerprint(), live, k.Live())
	}
}

// TestWorkerBlockedIsStillDeadlock: a process blocked with no event left
// to wake it is a deadlock, even next to processes that ended cleanly.
func TestWorkerBlockedIsStillDeadlock(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k)
	k.Go("server", func(p *Proc) { q.Get(p) })
	k.Go("client", func(p *Proc) { q.Put(1) })
	other := NewQueue[int](k)
	k.Go("stuck-worker", func(p *Proc) {
		other.Get(p) // nobody ever puts
	})
	if err := k.Run(); err == nil {
		t.Fatal("blocked worker not reported as deadlock")
	}
}

// TestServiceLoopPanicReported: a service loop that panics mid-request
// aborts the run, and Run returns the panic rather than a deadlock.
func TestServiceLoopPanicReported(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k)
	k.Go("bad", func(p *Proc) {
		for {
			q.Get(p)
			p.Sleep(Second)
			panic("service loop crashed")
		}
	})
	k.Go("client", func(p *Proc) { q.Put(1) })
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "service loop crashed") {
		t.Fatalf("service loop panic not reported: %v", err)
	}
	k.Close()
}

// TestEndedProcCoroutineIsReused: a process that starts after another
// has ended runs on the ended one's coroutine, so sequential short-lived
// processes share one coroutine.
func TestEndedProcCoroutineIsReused(t *testing.T) {
	k := NewKernel()
	ran := 0
	spawn := func() {
		k.Go("short", func(p *Proc) {
			p.Sleep(Millisecond)
			ran++
		})
	}
	for i := 0; i < 10; i++ {
		k.At(Time(i)*Second, spawn)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != 10 || k.Live() != 0 {
		t.Fatalf("%d of 10 processes ran, %d still live", ran, k.Live())
	}
	if len(k.coros) != 1 {
		t.Fatalf("10 sequential processes made %d coroutines, want 1", len(k.coros))
	}
	k.Close()
}
