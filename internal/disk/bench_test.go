package disk

import (
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// BenchmarkSequentialStream measures simulating a sequential read stream
// through one disk.
func BenchmarkSequentialStream(b *testing.B) {
	k := sim.NewKernel()
	g := testGeo()
	d := New(k, "d0", g, FIFO)
	max := g.Capacity() / g.SectorSize
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		readSig(d, (int64(i)*64)%max, 8)
		if i%1024 == 1023 {
			b.StopTimer()
			if err := k.Run(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
	b.StopTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSCANQueue measures elevator picking with a deep random queue.
func BenchmarkSCANQueue(b *testing.B) {
	k := sim.NewKernel()
	g := testGeo()
	d := New(k, "d0", g, SCAN)
	rng := rand.New(rand.NewSource(1))
	max := g.Capacity()/g.SectorSize - 8
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		readSig(d, rng.Int63n(max), 4)
		if i%512 == 511 {
			b.StopTimer()
			if err := k.Run(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
	b.StopTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// arrayChains keeps a fixed number of ReadCalls outstanding on one
// array: each completion issues the next read until total reads have
// been served.
type arrayChains struct {
	a             *Array
	issued, total int
	err           error
}

func (c *arrayChains) next() {
	if c.issued < c.total {
		c.issued++
		c.a.ReadCall(int64(c.issued*7919%4096)*(64<<10), 64<<10, arrayChainDone, c)
	}
}

func arrayChainDone(v any, err error) {
	c := v.(*arrayChains)
	if err != nil && c.err == nil {
		c.err = err
	}
	c.next()
}

// BenchmarkArrayRead pins a healthy array's lockstep path — ReadCall,
// the controller issue, the lead's start, service and finish, and the
// one completion — at 0 allocs/op. Four reads stay outstanding. A
// warm-up fills the event and op pools; the lead's histograms reserve
// their samples. detgate runs this with -benchtime=100x as part of the
// allocation gate.
func BenchmarkArrayRead(b *testing.B) {
	k := sim.NewKernel()
	a := NewArray(k, "raid", 4, testGeo(), FIFO, sim.Millisecond)
	c := &arrayChains{a: a}
	run := func(n int) {
		c.issued, c.total = 0, n
		for range 4 {
			c.next()
		}
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
		if c.err != nil {
			b.Fatal(c.err)
		}
	}
	run(512)
	lead := a.members[0]
	lead.QueueLen.Reserve(512 + b.N)
	lead.SeekDist.Reserve(512 + b.N)
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
	b.StopTimer()
	if !a.lock {
		b.Fatal("the array left lockstep")
	}
}

// diskChains keeps a fixed number of pooled requests outstanding on one
// drive: each completion resubmits its request elsewhere on the disk
// until total requests have been served.
type diskChains struct {
	d             *Disk
	links         [4]diskLink
	issued, total int
	err           error
}

// diskLink is one chain's pooled request.
type diskLink struct {
	req Request
	c   *diskChains
}

func diskChainDone(a any, err error) {
	l := a.(*diskLink)
	c := l.c
	if err != nil && c.err == nil {
		c.err = err
	}
	if c.issued < c.total {
		c.issued++
		l.req.Sector = int64(c.issued*7919%4096) * 64
		c.d.Submit(&l.req)
	}
}

// BenchmarkDiskServe pins the drive's callback server — Submit, the
// booked start, SCAN pick, service, and the pooled OnDone completion —
// at 0 allocs/op. Four requests stay outstanding, so the server both
// wakes from idle and starts queued requests straight from a finish. A
// warm-up fills the event pool; the histograms reserve their samples.
// detgate runs this with -benchtime=100x as part of the allocation gate.
func BenchmarkDiskServe(b *testing.B) {
	k := sim.NewKernel()
	d := New(k, "d0", testGeo(), SCAN)
	c := &diskChains{d: d}
	for i := range c.links {
		l := &c.links[i]
		l.c, l.req = c, Request{Count: 64, OnDone: diskChainDone, DoneArg: l}
	}
	run := func(n int) {
		c.issued, c.total = 0, n
		for i := range c.links {
			if c.issued < c.total {
				c.issued++
				c.links[i].req.Sector = int64(i) * 64
				d.Submit(&c.links[i].req)
			}
		}
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
		if c.err != nil {
			b.Fatal(c.err)
		}
	}
	run(512)
	d.QueueLen.Reserve(512 + b.N)
	d.SeekDist.Reserve(512 + b.N)
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
}
