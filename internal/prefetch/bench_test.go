package prefetch_test

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/pfs"
	"repro/internal/prefetch"
	"repro/internal/sim"
)

// serveChain reads a file sequentially through ServeReadCall, one read
// in flight, with a compute gap long enough for each read-ahead to land
// before the read that wants it.
type serveChain struct {
	k             *sim.Kernel
	pf            *prefetch.Prefetcher
	f             *pfs.File
	issued, total int
	err           error
}

func (c *serveChain) issue() {
	off := int64(c.issued%64) * 64 << 10
	c.issued++
	c.pf.ServeReadCall(c.f, off, 64<<10, serveChainDone, c)
}

func serveChainDone(a any, err error) {
	c := a.(*serveChain)
	if err != nil && c.err == nil {
		c.err = err
	}
	if c.issued < c.total {
		c.k.AfterCall(50*sim.Millisecond, serveChainNext, c)
	}
}

func serveChainNext(a any) { a.(*serveChain).issue() }

// BenchmarkServeReadCall pins the prefetcher's steady state — a hit on a
// landed buffer, the buffer copy, and the next read-ahead through the
// ART — at 0 allocs/op. One read in 64 wraps to the file's start and
// misses. One warm-up pass fills the pools. detgate runs this with
// -benchtime=100x as part of the allocation gate.
func BenchmarkServeReadCall(b *testing.B) {
	cfg := machine.DefaultConfig()
	cfg.ComputeNodes = 1
	cfg.IONodes = 4
	cfg.UFS.Fragmentation = 0
	m := machine.Build(cfg)
	defer m.Close()
	if err := m.FS.Create("bench", 4<<20); err != nil {
		b.Fatal(err)
	}
	f, err := m.FS.Open("bench", m.Compute[0], pfs.MAsync, nil)
	if err != nil {
		b.Fatal(err)
	}
	pf := prefetch.New(m.K, prefetch.DefaultConfig())
	pf.Attach(f)
	c := &serveChain{k: m.K, pf: pf, f: f}
	run := func(reads int) {
		c.issued, c.total = 0, reads
		c.issue()
		if err := m.K.Run(); err != nil {
			b.Fatal(err)
		}
		if c.err != nil {
			b.Fatal(c.err)
		}
	}
	run(512) // warm the pools
	hits := pf.Hits
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
	b.StopTimer()
	if b.N >= 64 && pf.Hits-hits < int64(b.N)*7/8 {
		b.Fatalf("%d hits in %d reads", pf.Hits-hits, b.N)
	}
}
