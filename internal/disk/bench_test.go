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
		d.Read((int64(i)*64)%max, 8)
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
		d.Read(rng.Int63n(max), 4)
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

// BenchmarkArrayRead measures a striped array request end to end.
func BenchmarkArrayRead(b *testing.B) {
	k := sim.NewKernel()
	a := NewArray(k, "raid", 4, testGeo(), FIFO, sim.Millisecond)
	max := a.Capacity() - 64<<10
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Read((int64(i)*64<<10)%max, 64<<10)
		if i%256 == 255 {
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
