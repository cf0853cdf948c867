package ufs

import (
	"testing"

	"repro/internal/disk"
	"repro/internal/sim"
)

// TestConcurrentReadsShareOneFill: two buffered reads of the same cold
// block, the second issued while the first's fill is in flight, must
// produce exactly one disk operation — and the second read must not
// complete before the data actually exists.
func TestConcurrentReadsShareOneFill(t *testing.T) {
	k := sim.NewKernel()
	fs := testFS(k, noFragConfig())
	if err := fs.Create("f", 1<<20); err != nil {
		t.Fatal(err)
	}
	s1, err := readSig(fs, "f", 0, 64<<10, ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var s2 *sim.Signal
	// Issue the second read 1 ms in — well inside the first fill.
	k.After(sim.Millisecond, func() {
		var err error
		s2, err = readSig(fs, "f", 0, 64<<10, ReadOptions{})
		if err != nil {
			t.Error(err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fs.DiskOps != 1 {
		t.Fatalf("DiskOps = %d, want 1 (shared fill)", fs.DiskOps)
	}
	if fs.FillWaits != 1 || fs.CacheMisses != 1 || fs.CacheHits != 0 {
		t.Fatalf("waits=%d misses=%d hits=%d, want 1/1/0", fs.FillWaits, fs.CacheMisses, fs.CacheHits)
	}
	// The waiter cannot finish before the fill itself.
	if s2.FiredAt() < s1.FiredAt() {
		t.Fatalf("waiter finished at %v, before the fill at %v", s2.FiredAt(), s1.FiredAt())
	}
}

// TestResidencyOnlyAfterFill: a read issued during another's fill, for a
// DIFFERENT block, must not see phantom residency.
func TestResidencyOnlyAfterFill(t *testing.T) {
	k := sim.NewKernel()
	fs := testFS(k, noFragConfig())
	if err := fs.Create("f", 1<<20); err != nil {
		t.Fatal(err)
	}
	if _, err := readSig(fs, "f", 0, 64<<10, ReadOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Block 0 is resident only now that its fill completed.
	s, err := readSig(fs, "f", 0, 64<<10, ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !s.Fired() || fs.CacheHits != 1 {
		t.Fatalf("re-read after fill: hits=%d", fs.CacheHits)
	}
}

// TestFailedFillLeavesNoResidue: a fill that dies at the disk must not
// leave the block marked resident, and its waiters see the error too.
func TestFailedFillLeavesNoResidue(t *testing.T) {
	k := sim.NewKernel()
	a := disk.NewArray(k, "raid", 4, disk.Seagate94601(), disk.FIFO, 500*sim.Microsecond)
	cfg := DefaultConfig()
	cfg.Fragmentation = 0
	fs := New(k, a, cfg)
	if err := fs.Create("f", 1<<20); err != nil {
		t.Fatal(err)
	}
	for i, d := range a.Members() {
		d.InjectFaultProfile(disk.FaultProfile{Rate: 1, Seed: int64(i)})
	}
	s1, err := readSig(fs, "f", 0, 64<<10, ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var s2 *sim.Signal
	k.After(sim.Millisecond, func() {
		s2, _ = readSig(fs, "f", 0, 64<<10, ReadOptions{})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if s1.Err() == nil || s2.Err() == nil {
		t.Fatalf("fill error not propagated: %v / %v", s1.Err(), s2.Err())
	}
	// Heal the disks; the block must be re-read from disk, not served
	// from a phantom cache entry.
	for _, d := range a.Members() {
		d.InjectFaultProfile(disk.FaultProfile{})
	}
	opsBefore := fs.DiskOps
	s3, err := readSig(fs, "f", 0, 64<<10, ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if s3.Err() != nil {
		t.Fatalf("read after heal failed: %v", s3.Err())
	}
	if fs.DiskOps != opsBefore+1 {
		t.Fatalf("healed read issued %d ops, want 1 (no phantom residency)", fs.DiskOps-opsBefore)
	}
}

// TestWriteInvalidatesCache: write-through must evict overlapping cached
// blocks so later reads fetch fresh data.
func TestWriteInvalidatesCache(t *testing.T) {
	k := sim.NewKernel()
	fs := testFS(k, noFragConfig())
	if err := fs.Create("f", 1<<20); err != nil {
		t.Fatal(err)
	}
	if _, err := readSig(fs, "f", 0, 64<<10, ReadOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := writeSig(fs, "f", 0, 64<<10); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	opsBefore := fs.DiskOps
	if _, err := readSig(fs, "f", 0, 64<<10, ReadOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fs.DiskOps != opsBefore+1 {
		t.Fatalf("read after write hit stale cache (ops +%d, want +1)", fs.DiskOps-opsBefore)
	}
}
