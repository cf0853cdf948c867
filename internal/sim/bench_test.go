package sim

import "testing"

// BenchmarkSchedule measures the Schedule (At) + dispatch cycle in the
// steady state, where every event struct comes off the kernel free list:
// allocs/op is the number to watch (0 once the pool is warm).
func BenchmarkSchedule(b *testing.B) {
	k := NewKernel()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.At(k.Now(), fn)
		if k.q.n >= 1024 {
			if err := k.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEventThroughput measures raw scheduler throughput: how many
// events per second the kernel retires.
func BenchmarkEventThroughput(b *testing.B) {
	k := NewKernel()
	b.ReportAllocs()
	var fire func()
	n := 0
	fire = func() {
		n++
		if n < b.N {
			k.After(1, fire)
		}
	}
	b.ResetTimer()
	k.After(1, fire)
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkQueuePushPop measures the event queue on the classic hold
// model — pop the earliest event, reschedule it a pseudo-random
// increment later — at three resident depths. The ladder is amortized
// O(1), and its steady state must allocate nothing (the 1k/100k
// variants are gated at 0 allocs/op by detgate -allocs).
func BenchmarkQueuePushPop(b *testing.B) {
	depths := []struct {
		name string
		n    int
	}{{"1k", 1 << 10}, {"100k", 100_000}, {"1M", 1 << 20}}
	for _, d := range depths {
		b.Run("depth="+d.name, func(b *testing.B) {
			benchQueuePushPop(b, d.n)
		})
	}
}

func benchQueuePushPop(b *testing.B, depth int) {
	q := newLadderQueue()
	// Deterministic xorshift increments; no wall clock or math/rand so
	// the run is pinned and alloc-gateable.
	rnd := uint64(0x9e3779b97f4a7c15)
	next := func() Time {
		rnd ^= rnd << 13
		rnd ^= rnd >> 7
		rnd ^= rnd << 17
		return Time(rnd%100_003 + 1)
	}
	var seq uint64
	var now Time
	for i := 0; i < depth; i++ {
		seq++
		q.push(&event{t: now + next(), seq: seq})
	}
	hold := func() {
		e := q.pop()
		now = e.t
		seq++
		e.t, e.seq = now+next(), seq
		q.push(e)
	}
	// One full cycle over the resident set warms every bucket, the
	// bottom run, and the sort scratch to steady-state capacity.
	for i := 0; i < depth; i++ {
		hold()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hold()
	}
}

// BenchmarkKernelChurn exercises the kernel's event queue with a wide
// pending set.
func BenchmarkKernelChurn(b *testing.B) {
	k := NewKernel()
	for i := 0; i < 1024; i++ {
		i := i
		var refire func()
		count := 0
		refire = func() {
			count++
			if count*1024 < b.N {
				k.After(Time(1+i%7), refire)
			}
		}
		k.After(Time(i), refire)
	}
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcSwitch measures a full block/wake round trip through the
// coroutine hand-off. detgate -allocs pins it at 0 allocs/op.
func BenchmarkProcSwitch(b *testing.B) {
	k := NewKernel()
	k.Go("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcSpawn measures a process's whole life: start, one
// block/wake, finish.
func BenchmarkProcSpawn(b *testing.B) {
	k := NewKernel()
	body := func(p *Proc) { p.Sleep(1) }
	for i := 0; i < b.N; i++ {
		k.Go("short", body)
		if k.q.n >= 64 {
			if err := k.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSemaphore measures contended acquire/release cycles.
func BenchmarkSemaphore(b *testing.B) {
	k := NewKernel()
	sem := NewSemaphore(k, 2)
	for g := 0; g < 4; g++ {
		k.Go("worker", func(p *Proc) {
			for i := 0; i < b.N/4; i++ {
				sem.Acquire(p, 1)
				p.Sleep(1)
				sem.Release(1)
			}
		})
	}
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}
