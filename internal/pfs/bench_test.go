package pfs

import (
	"io"
	"testing"

	"repro/internal/sim"
)

// BenchmarkDecluster measures the striping arithmetic on the hot path.
func BenchmarkDecluster(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		decluster(int64(i)*64<<10, 1<<20, 64<<10, 8)
	}
}

// BenchmarkClientSteadyRead pins the client steady-state read path —
// decluster, per-piece request fan-out over the mesh, I/O node service,
// and completion delivery — at 0 allocs/op. One warm-up pass fills every
// pool (events, signals, stripe ops, piece attempts, server ops, ufs read
// ops, disk requests) and the histogram sample storage; after that a
// blocking stripe read must not allocate. detgate runs this with
// -benchtime=100x as part of the allocation gate.
func BenchmarkClientSteadyRead(b *testing.B) {
	r := newRig(b, 1, 4)
	const su = 64 << 10
	if err := r.fsys.Create("bench", 1<<20); err != nil {
		b.Fatal(err)
	}
	f, err := r.fsys.Open("bench", 0, MUnix, nil)
	if err != nil {
		b.Fatal(err)
	}
	run := func(reads int) {
		r.k.Go("reader", func(p *sim.Proc) {
			for i := 0; i < reads; i++ {
				if err := f.BlockingIO(p, int64(i%16)*su, su); err != nil {
					b.Error(err)
					return
				}
			}
		})
		if err := r.k.Run(); err != nil {
			b.Fatal(err)
		}
	}
	run(512) // warm the pools and sample storage
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
}

// asyncChains keeps two pooled asynchronous reads queued on one file's
// ART: each completion re-issues its request until total reads are done.
type asyncChains struct {
	f             *File
	links         [2]asyncLink
	issued, total int
	err           error
}

// asyncLink is one chain's reused request.
type asyncLink struct {
	req *Async
	c   *asyncChains
}

func (l *asyncLink) issue() {
	c := l.c
	off := int64(c.issued%16) * 64 << 10
	c.issued++
	l.req = c.f.IReadAtReusing(l.req, off, 64<<10)
	l.req.Done.OnFireCall(asyncChainDone, l)
}

func asyncChainDone(a any, err error) {
	l := a.(*asyncLink)
	if err != nil && l.c.err == nil {
		l.c.err = err
	}
	if l.c.issued < l.c.total {
		l.issue()
	}
}

// BenchmarkAsyncRead pins the asynchronous read path — IReadAtReusing,
// the ART's start/post/done callbacks, the stripe fan-out and the
// completion — at 0 allocs/op. Two requests stay queued, so the ART both
// wakes from idle and posts straight from a completion. One warm-up pass
// fills the pools and sample storage. detgate runs this with
// -benchtime=100x as part of the allocation gate.
func BenchmarkAsyncRead(b *testing.B) {
	r := newRig(b, 1, 4)
	if err := r.fsys.Create("bench", 1<<20); err != nil {
		b.Fatal(err)
	}
	f, err := r.fsys.Open("bench", 0, MAsync, nil)
	if err != nil {
		b.Fatal(err)
	}
	c := &asyncChains{f: f}
	run := func(reads int) {
		c.issued, c.total = 0, reads
		for i := range c.links {
			c.links[i].c = c
			if c.issued < c.total {
				c.links[i].issue()
			}
		}
		if err := r.k.Run(); err != nil {
			b.Fatal(err)
		}
		if c.err != nil {
			b.Fatal(c.err)
		}
	}
	run(512) // warm the pools and sample storage
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
}

// readAtChain keeps one pooled ReadAtCall in flight on a file: each
// completion issues the next read until total reads are done.
type readAtChain struct {
	f             *File
	issued, total int
	err           error
}

func (c *readAtChain) issue() {
	off := int64(c.issued%16) * 64 << 10
	c.issued++
	c.f.ReadAtCall(off, 64<<10, readAtChainDone, c)
}

func readAtChainDone(a any, _ int64, err error) {
	c := a.(*readAtChain)
	if err != nil && c.err == nil {
		c.err = err
	}
	if c.issued < c.total {
		c.issue()
	}
}

// BenchmarkReadAtCall pins the callback positioned read — ReadAtCall's
// client-call event, the stripe fan-out, the signal callback and the
// completion accounting — at 0 allocs/op on a file with no prefetcher,
// the open-loop QoS workload's read path. One warm-up pass fills the
// pools and sample storage. detgate runs this with -benchtime=100x as
// part of the allocation gate.
func BenchmarkReadAtCall(b *testing.B) {
	r := newRig(b, 1, 4)
	if err := r.fsys.Create("bench", 1<<20); err != nil {
		b.Fatal(err)
	}
	f, err := r.fsys.Open("bench", 0, MAsync, nil)
	if err != nil {
		b.Fatal(err)
	}
	c := &readAtChain{f: f}
	run := func(reads int) {
		c.issued, c.total = 0, reads
		c.issue()
		if err := r.k.Run(); err != nil {
			b.Fatal(err)
		}
		if c.err != nil {
			b.Fatal(c.err)
		}
	}
	run(512) // warm the pools and sample storage
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
}

// BenchmarkCollectiveRead measures an end-to-end M_RECORD whole-file scan
// on a small machine: the cost of simulating one evaluation data point.
func BenchmarkCollectiveRead(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := newRig(b, 4, 4)
		if err := r.fsys.Create("f", 4<<20); err != nil {
			b.Fatal(err)
		}
		group := NewOpenGroup(r.k, 4)
		for n := 0; n < 4; n++ {
			node := n
			r.k.Go("reader", func(p *sim.Proc) {
				f, err := r.fsys.Open("f", node, MRecord, group)
				if err != nil {
					b.Error(err)
					return
				}
				for {
					if _, err := f.Read(p, 64<<10); err == io.EOF {
						return
					} else if err != nil {
						b.Error(err)
						return
					}
				}
			})
		}
		if err := r.k.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
