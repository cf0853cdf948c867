package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	k := NewKernel()
	var got []int
	k.At(20, func() { got = append(got, 2) })
	k.At(10, func() { got = append(got, 1) })
	k.At(30, func() { got = append(got, 3) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if k.Now() != 30 {
		t.Fatalf("Now = %v, want 30", k.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(5, func() { got = append(got, i) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	k := NewKernel()
	var fired Time
	k.At(10, func() {
		k.After(5, func() { fired = k.Now() })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 15 {
		t.Fatalf("nested event fired at %v, want 15", fired)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	k := NewKernel()
	k.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(5, func() {})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestProcSleep(t *testing.T) {
	k := NewKernel()
	var wakes []Time
	k.Go("sleeper", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(7 * Millisecond)
			wakes = append(wakes, p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{7 * Millisecond, 14 * Millisecond, 21 * Millisecond}
	for i := range want {
		if wakes[i] != want[i] {
			t.Fatalf("wakes = %v, want %v", wakes, want)
		}
	}
	if k.Live() != 0 {
		t.Fatalf("Live = %d after completion", k.Live())
	}
}

// panicker is a named process body, so its frame is recognizable in the
// failure's stack.
func panicker(p *Proc) {
	p.Sleep(Second)
	panic("kaboom")
}

// TestProcPanicReported: a panicking process's error names the process
// and carries the panicking function's own frame, not only the kernel's.
func TestProcPanicReported(t *testing.T) {
	k := NewKernel()
	k.Go("boom", panicker)
	err := k.Run()
	if err == nil {
		t.Fatal("Run returned nil for panicking process")
	}
	for _, want := range []string{`"boom"`, "kaboom", "sim.panicker"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("panic report lacks %q:\n%v", want, err)
		}
	}
	k.Close()
}

func TestDeadlockDetected(t *testing.T) {
	k := NewKernel()
	q := NewSemaphore(k, 0)
	k.Go("stuck", func(p *Proc) { q.Acquire(p, 1) })
	err := k.Run()
	if err == nil {
		t.Fatal("Run returned nil for deadlocked process")
	}
}

func TestRunUntil(t *testing.T) {
	k := NewKernel()
	count := 0
	k.Go("ticker", func(p *Proc) {
		for {
			p.Sleep(Second)
			count++
		}
	})
	if err := k.RunUntil(5 * Second); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Fatalf("ticks = %d, want 5", count)
	}
	if k.Now() != 5*Second {
		t.Fatalf("Now = %v, want 5s", k.Now())
	}
	// Resume where we left off.
	if err := k.RunUntil(7 * Second); err != nil {
		t.Fatal(err)
	}
	if count != 7 {
		t.Fatalf("ticks = %d after resume, want 7", count)
	}
}

func TestSignal(t *testing.T) {
	k := NewKernel()
	s := NewSignal(k)
	var waited []Time
	for i := 0; i < 3; i++ {
		k.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			if err := s.Wait(p); err != nil {
				t.Errorf("Wait: %v", err)
			}
			waited = append(waited, p.Now())
		})
	}
	k.Go("firer", func(p *Proc) {
		p.Sleep(9 * Millisecond)
		s.Fire(nil)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(waited) != 3 {
		t.Fatalf("%d waiters released, want 3", len(waited))
	}
	for _, w := range waited {
		if w != 9*Millisecond {
			t.Fatalf("waiter released at %v, want 9ms", w)
		}
	}
	if !s.Fired() || s.FiredAt() != 9*Millisecond {
		t.Fatalf("Fired=%v FiredAt=%v", s.Fired(), s.FiredAt())
	}
}

func TestSignalErrorAndLateWait(t *testing.T) {
	k := NewKernel()
	s := NewSignal(k)
	sentinel := errors.New("io failed")
	k.Go("firer", func(p *Proc) { s.Fire(sentinel) })
	k.Go("late", func(p *Proc) {
		p.Sleep(Second)
		if err := s.Wait(p); !errors.Is(err, sentinel) {
			t.Errorf("late Wait err = %v, want sentinel", err)
		}
		if p.Now() != Second {
			t.Errorf("late Wait blocked until %v", p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSignalDoubleFirePanics(t *testing.T) {
	k := NewKernel()
	s := NewSignal(k)
	k.At(0, func() {
		s.Fire(nil)
		defer func() {
			if recover() == nil {
				t.Error("double Fire did not panic")
			}
		}()
		s.Fire(nil)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSemaphoreLimitsConcurrency(t *testing.T) {
	k := NewKernel()
	sem := NewSemaphore(k, 2)
	inside, peak := 0, 0
	for i := 0; i < 6; i++ {
		k.Go(fmt.Sprintf("g%d", i), func(p *Proc) {
			sem.Acquire(p, 1)
			inside++
			if inside > peak {
				peak = inside
			}
			p.Sleep(Millisecond)
			inside--
			sem.Release(1)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if peak != 2 {
		t.Fatalf("peak concurrency %d, want 2", peak)
	}
	if sem.avail != 2 {
		t.Fatalf("%d units free at end, want 2", sem.avail)
	}
}

func TestSemaphoreFIFONoStarvation(t *testing.T) {
	k := NewKernel()
	sem := NewSemaphore(k, 4)
	var order []string
	k.Go("big", func(p *Proc) {
		p.Sleep(Microsecond)
		sem.Acquire(p, 4) // arrives first among the blocked
		order = append(order, "big")
		sem.Release(4)
	})
	k.Go("holder", func(p *Proc) {
		sem.Acquire(p, 3)
		p.Sleep(Millisecond)
		sem.Release(3)
	})
	k.Go("small", func(p *Proc) {
		p.Sleep(2 * Microsecond)
		sem.Acquire(p, 1) // would fit, but big is ahead in line
		order = append(order, "small")
		sem.Release(1)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "big" {
		t.Fatalf("grant order %v, want big first", order)
	}
}

func TestMutexExcludes(t *testing.T) {
	k := NewKernel()
	mu := NewMutex(k)
	holders := 0
	for i := 0; i < 5; i++ {
		k.Go(fmt.Sprintf("g%d", i), func(p *Proc) {
			mu.LockCall(Resume, p)
			p.Park()
			holders++
			if holders != 1 {
				t.Errorf("mutex held by %d", holders)
			}
			p.Sleep(Millisecond)
			holders--
			mu.Unlock()
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBarrierRounds(t *testing.T) {
	k := NewKernel()
	const n = 4
	b := NewBarrier(k, n)
	released := make([][]Time, 2)
	for i := 0; i < n; i++ {
		i := i
		k.Go(fmt.Sprintf("g%d", i), func(p *Proc) {
			for round := 0; round < 2; round++ {
				p.Sleep(Time(i+1) * Millisecond)
				b.Wait(p)
				released[round] = append(released[round], p.Now())
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for round, rel := range released {
		if len(rel) != n {
			t.Fatalf("round %d released %d, want %d", round, len(rel), n)
		}
		for _, ti := range rel {
			if ti != rel[0] {
				t.Fatalf("round %d released at differing times %v", round, rel)
			}
		}
	}
}

// runSchedule executes a randomized mix of sleeps on several processes and
// returns the observed wake ordering. Used to check determinism.
func runSchedule(seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	k := NewKernel()
	var log []string
	for i := 0; i < 8; i++ {
		i := i
		delays := make([]Time, 20)
		for j := range delays {
			delays[j] = Time(rng.Intn(1000)) * Microsecond
		}
		k.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			for _, d := range delays {
				p.Sleep(d)
				log = append(log, fmt.Sprintf("%d@%d", i, p.Now()))
			}
		})
	}
	if err := k.Run(); err != nil {
		panic(err)
	}
	return log
}

func TestDeterminism(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		a := runSchedule(seed)
		b := runSchedule(seed)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: time never goes backwards inside a run, whatever mix of events
// is scheduled.
func TestMonotonicClock(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := NewKernel()
		last := Time(-1)
		ok := true
		var schedule func(depth int)
		schedule = func(depth int) {
			if k.Now() < last {
				ok = false
			}
			last = k.Now()
			if depth > 4 {
				return
			}
			for i := 0; i < rng.Intn(3); i++ {
				k.After(Time(rng.Intn(100)), func() { schedule(depth + 1) })
			}
		}
		for i := 0; i < 10; i++ {
			k.At(Time(rng.Intn(1000)), func() { schedule(0) })
		}
		if err := k.Run(); err != nil {
			return false
		}
		return ok
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{0, "0s"},
		{500, "500ns"},
		{1500, "1.500us"},
		{2500 * Microsecond, "2.500ms"},
		{3 * Second, "3.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestSecondsRoundTrip(t *testing.T) {
	if err := quick.Check(func(ms uint16) bool {
		s := float64(ms) / 1000
		diff := Seconds(s).Seconds() - s
		return diff < 2e-9 && diff > -2e-9
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEventPoolRecyclesAllocations(t *testing.T) {
	// Warm the free list, then verify a steady-state schedule+run cycle
	// allocates nothing per event: the pool absorbs every Schedule call.
	k := NewKernel()
	fn := func() {}
	for i := 0; i < 64; i++ {
		k.At(k.Now(), fn)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 32; i++ {
			k.At(k.Now(), fn)
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0.5 {
		t.Fatalf("steady-state schedule/run allocates %.1f objects per cycle, want 0", avg)
	}
}

func TestEventPoolPreservesOrdering(t *testing.T) {
	// Interleave scheduling and running so recycled structs carry many
	// different (t, seq) pairs; the observed order must stay (time, FIFO).
	k := NewKernel()
	var got []int
	for round := 0; round < 3; round++ {
		r := round
		k.At(k.Now()+Time(10-r), func() { got = append(got, 100+r) })
		k.At(k.Now()+Time(10-r), func() { got = append(got, 200+r) })
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	want := []int{100, 200, 101, 201, 102, 202}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("execution order %v, want %v", got, want)
		}
	}
}
