package ufs

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/disk"
	"repro/internal/sim"
)

func testFS(k *sim.Kernel, cfg Config) *FS {
	a := disk.NewArray(k, "raid", 4, disk.Seagate94601(), disk.FIFO, 500*sim.Microsecond)
	return New(k, a, cfg)
}

func noFragConfig() Config {
	cfg := DefaultConfig()
	cfg.Fragmentation = 0
	return cfg
}

// fireSig is a completion callback that fires the signal carried as
// its arg, so a test can wait on or inspect an I/O after the fact.
func fireSig(v any, err error) { v.(*sim.Signal).Fire(err) }

// readSig looks name up and starts a ReadCall on it, returning a signal
// fired from the callback.
func readSig(fs *FS, name string, off, n int64, opt ReadOptions) (*sim.Signal, error) {
	h, err := fs.Lookup(name)
	if err != nil {
		return nil, err
	}
	sig := sim.NewSignal(fs.k)
	if err := fs.ReadCall(h, off, n, opt, fireSig, sig); err != nil {
		return nil, err
	}
	return sig, nil
}

// writeSig is readSig for WriteCall.
func writeSig(fs *FS, name string, off, n int64) (*sim.Signal, error) {
	h, err := fs.Lookup(name)
	if err != nil {
		return nil, err
	}
	sig := sim.NewSignal(fs.k)
	if err := fs.WriteCall(h, off, n, fireSig, sig); err != nil {
		return nil, err
	}
	return sig, nil
}

func TestCreateAndSize(t *testing.T) {
	k := sim.NewKernel()
	fs := testFS(k, noFragConfig())
	if err := fs.Create("f", 1<<20); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("f", 1); err == nil {
		t.Fatal("duplicate Create succeeded")
	}
	sz, err := fs.Size("f")
	if err != nil || sz != 1<<20 {
		t.Fatalf("Size = %d, %v", sz, err)
	}
	if _, err := fs.Size("nope"); err == nil {
		t.Fatal("Size of missing file succeeded")
	}
}

func TestReadValidation(t *testing.T) {
	k := sim.NewKernel()
	fs := testFS(k, noFragConfig())
	if err := fs.Create("f", 128<<10); err != nil {
		t.Fatal(err)
	}
	cases := []struct{ off, n int64 }{
		{-1, 10}, {0, 0}, {0, -4}, {128 << 10, 1}, {100 << 10, 100 << 10},
	}
	for _, c := range cases {
		if _, err := readSig(fs, "f", c.off, c.n, ReadOptions{}); err == nil {
			t.Errorf("Read(%d,%d) succeeded, want error", c.off, c.n)
		}
	}
	if _, err := readSig(fs, "ghost", 0, 1, ReadOptions{}); err == nil {
		t.Error("Read of missing file succeeded")
	}
}

func TestContiguousReadCoalesces(t *testing.T) {
	k := sim.NewKernel()
	fs := testFS(k, noFragConfig())
	if err := fs.Create("f", 1<<20); err != nil {
		t.Fatal(err)
	}
	// 8 blocks, contiguous on disk (no fragmentation): one array request.
	sig, err := readSig(fs, "f", 0, 512<<10, ReadOptions{FastPath: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !sig.Fired() {
		t.Fatal("read never completed")
	}
	if fs.DiskOps != 1 {
		t.Fatalf("DiskOps = %d, want 1 (coalesced)", fs.DiskOps)
	}
}

func TestFragmentationSplitsRuns(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultConfig()
	cfg.Fragmentation = 1 // every block discontiguous
	fs := testFS(k, cfg)
	if err := fs.Create("f", 512<<10); err != nil {
		t.Fatal(err)
	}
	if _, err := readSig(fs, "f", 0, 512<<10, ReadOptions{FastPath: true}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fs.DiskOps != 8 {
		t.Fatalf("DiskOps = %d, want 8 (fully fragmented)", fs.DiskOps)
	}
}

func TestCacheHitAvoidsDisk(t *testing.T) {
	k := sim.NewKernel()
	fs := testFS(k, noFragConfig())
	if err := fs.Create("f", 1<<20); err != nil {
		t.Fatal(err)
	}
	s1, err := readSig(fs, "f", 0, 64<<10, ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	t1 := s1.FiredAt()
	opsAfterFirst := fs.DiskOps
	s2, err := readSig(fs, "f", 0, 64<<10, ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fs.DiskOps != opsAfterFirst {
		t.Fatalf("cached re-read issued %d extra disk ops", fs.DiskOps-opsAfterFirst)
	}
	if fs.CacheHits != 1 || fs.CacheMisses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", fs.CacheHits, fs.CacheMisses)
	}
	if hitTime := s2.FiredAt() - t1; hitTime >= t1 {
		t.Fatalf("cache hit (%v) not faster than miss (%v)", hitTime, t1)
	}
	if fs.CacheHitRate() != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", fs.CacheHitRate())
	}
}

func TestFastPathBypassesCache(t *testing.T) {
	k := sim.NewKernel()
	fs := testFS(k, noFragConfig())
	if err := fs.Create("f", 1<<20); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := readSig(fs, "f", 0, 64<<10, ReadOptions{FastPath: true}); err != nil {
			t.Fatal(err)
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if fs.CacheHits != 0 || fs.CacheMisses != 0 {
		t.Fatalf("fast path touched the cache: hits=%d misses=%d", fs.CacheHits, fs.CacheMisses)
	}
	if fs.DiskOps != 2 {
		t.Fatalf("DiskOps = %d, want 2 (no caching)", fs.DiskOps)
	}
}

func TestCacheEviction(t *testing.T) {
	k := sim.NewKernel()
	cfg := noFragConfig()
	cfg.CacheBlocks = 2
	fs := testFS(k, cfg)
	if err := fs.Create("f", 1<<20); err != nil {
		t.Fatal(err)
	}
	read := func(block int64) {
		if _, err := readSig(fs, "f", block*64<<10, 64<<10, ReadOptions{}); err != nil {
			t.Fatal(err)
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	read(0)
	read(1)
	read(2) // evicts block 0
	read(0) // must miss again
	if fs.CacheMisses != 4 || fs.CacheHits != 0 {
		t.Fatalf("hits=%d misses=%d, want 0/4 with LRU eviction", fs.CacheHits, fs.CacheMisses)
	}
}

func TestPartialBlockCostsMore(t *testing.T) {
	g := func(off, n int64) sim.Time {
		k := sim.NewKernel()
		fs := testFS(k, noFragConfig())
		if err := fs.Create("f", 1<<20); err != nil {
			t.Fatal(err)
		}
		sig, err := readSig(fs, "f", off, n, ReadOptions{FastPath: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return sig.FiredAt()
	}
	aligned := g(0, 64<<10)
	unaligned := g(1<<10, 64<<10) // same size, crosses a block boundary
	if unaligned <= aligned {
		t.Fatalf("unaligned read (%v) not slower than aligned (%v)", unaligned, aligned)
	}
}

func TestWrite(t *testing.T) {
	k := sim.NewKernel()
	fs := testFS(k, noFragConfig())
	if err := fs.Create("f", 1<<20); err != nil {
		t.Fatal(err)
	}
	sig, err := writeSig(fs, "f", 0, 128<<10)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !sig.Fired() {
		t.Fatal("write never completed")
	}
	if _, err := writeSig(fs, "f", 1<<20, 1); err == nil {
		t.Fatal("out-of-range write succeeded")
	}
	if _, err := writeSig(fs, "ghost", 0, 1); err == nil {
		t.Fatal("write to missing file succeeded")
	}
}

func TestVolumeFull(t *testing.T) {
	k := sim.NewKernel()
	fs := testFS(k, noFragConfig())
	if err := fs.Create("huge", 1<<40); err == nil {
		t.Fatal("creating a 1 TB file on a ~7 GB array succeeded")
	}
}

func TestCoalesce(t *testing.T) {
	cases := []struct {
		in   []int64
		want int
	}{
		{nil, 0},
		{[]int64{5}, 1},
		{[]int64{1, 2, 3}, 1},
		{[]int64{1, 2, 4}, 2},
		{[]int64{1, 3, 5}, 3},
		{[]int64{3, 2, 1}, 3},    // reverse order does not merge
		{[]int64{1, 2, 2, 3}, 2}, // duplicate restarts a run, then merges forward
	}
	for _, c := range cases {
		if got := coalesceInto(nil, c.in); len(got) != c.want {
			t.Errorf("coalesceInto(%v) = %d runs, want %d", c.in, len(got), c.want)
		}
	}
}

// Property: coalesced runs cover exactly the input blocks, in order.
func TestCoalesceCoversInput(t *testing.T) {
	if err := quick.Check(func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw % 64)
		blocks := make([]int64, n)
		cur := int64(rng.Intn(100))
		for i := range blocks {
			if rng.Float64() < 0.3 {
				cur += int64(1 + rng.Intn(10))
			}
			blocks[i] = cur
			cur++
		}
		var flat []int64
		for _, r := range coalesceInto(nil, blocks) {
			for i := int64(0); i < r.count; i++ {
				flat = append(flat, r.start+i)
			}
		}
		if len(flat) != len(blocks) {
			return false
		}
		for i := range flat {
			if flat[i] != blocks[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: LRU never exceeds capacity and get-after-put within capacity
// always hits.
func TestLRUProperties(t *testing.T) {
	if err := quick.Check(func(keys []uint8, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		c := newLRU(capacity)
		for _, kk := range keys {
			c.put(blockKey{string(rune('a' + kk%26)), 0})
			if c.len() > capacity {
				return false
			}
		}
		c.put(blockKey{"fresh", 0})
		return c.get(blockKey{"fresh", 0})
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReadDeterminism(t *testing.T) {
	runOnce := func() sim.Time {
		k := sim.NewKernel()
		cfg := DefaultConfig()
		cfg.Fragmentation = 0.3
		cfg.Seed = 99
		fs := testFS(k, cfg)
		if err := fs.Create("f", 4<<20); err != nil {
			t.Fatal(err)
		}
		var last *sim.Signal
		k.Go("reader", func(p *sim.Proc) {
			for off := int64(0); off < 4<<20; off += 256 << 10 {
				sig, err := readSig(fs, "f", off, 256<<10, ReadOptions{FastPath: true})
				if err != nil {
					t.Error(err)
					return
				}
				sig.Wait(p)
				last = sig
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return last.FiredAt()
	}
	if a, b := runOnce(), runOnce(); a != b {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
}
