package ufs

import (
	"errors"
	"testing"

	"repro/internal/sim"
)

// TestCrashResetFailsInFlightFills: a crash while a fill is in flight must
// error every read WAITING on that fill with ErrCrashed, and the block
// must NOT become resident when the orphaned disk operation later
// completes. (The read that issued the fill settles from the disk
// completion itself; its reply is dropped one layer up, by the I/O-node
// server's crash epoch guard.)
func TestCrashResetFailsInFlightFills(t *testing.T) {
	k := sim.NewKernel()
	fs := testFS(k, noFragConfig())
	if err := fs.Create("f", 1<<20); err != nil {
		t.Fatal(err)
	}
	if _, err := readSig(fs, "f", 0, 64<<10, ReadOptions{}); err != nil {
		t.Fatal(err)
	}
	var waiter *sim.Signal
	k.After(500*sim.Microsecond, func() { // piggybacks on the fill in flight
		var err error
		waiter, err = readSig(fs, "f", 0, 64<<10, ReadOptions{})
		if err != nil {
			t.Error(err)
		}
	})
	k.After(sim.Millisecond, func() { fs.CrashReset() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fs.FillWaits != 1 {
		t.Fatalf("FillWaits = %d, want 1", fs.FillWaits)
	}
	if !waiter.Fired() {
		t.Fatal("fill waiter not failed by CrashReset")
	}
	if !errors.Is(waiter.Err(), ErrCrashed) {
		t.Fatalf("waiter error = %v, want ErrCrashed", waiter.Err())
	}
	// The orphaned disk completion must not have cached the block: the
	// re-read goes to disk again.
	opsBefore := fs.DiskOps
	s2, err := readSig(fs, "f", 0, 64<<10, ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if s2.Err() != nil {
		t.Fatalf("read after restart failed: %v", s2.Err())
	}
	if fs.DiskOps != opsBefore+1 {
		t.Fatalf("post-crash read issued %d ops, want 1 (no phantom residency)", fs.DiskOps-opsBefore)
	}
}

// TestCrashResetDropsCache: a restart comes up cold — blocks resident
// before the crash must be re-read from disk.
func TestCrashResetDropsCache(t *testing.T) {
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
	fs.CrashReset()
	opsBefore := fs.DiskOps
	s, err := readSig(fs, "f", 0, 64<<10, ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Err() != nil {
		t.Fatalf("read after restart failed: %v", s.Err())
	}
	if fs.DiskOps != opsBefore+1 {
		t.Fatalf("cold-cache read issued %d ops, want 1", fs.DiskOps-opsBefore)
	}
}

// TestCrashResetStaleFillDoesNotCorruptNewFill: a fill re-issued after
// the crash for the same block must not be settled early by the
// pre-crash disk completion — the identity guard compares signal
// pointers, not keys.
func TestCrashResetStaleFillDoesNotCorruptNewFill(t *testing.T) {
	k := sim.NewKernel()
	fs := testFS(k, noFragConfig())
	if err := fs.Create("f", 1<<20); err != nil {
		t.Fatal(err)
	}
	if _, err := readSig(fs, "f", 0, 64<<10, ReadOptions{}); err != nil {
		t.Fatal(err)
	}
	var s2 *sim.Signal
	k.After(sim.Millisecond, func() {
		fs.CrashReset()
		// Immediately re-read the same block: a fresh fill for the key the
		// orphaned completion will soon try to settle.
		var err error
		s2, err = readSig(fs, "f", 0, 64<<10, ReadOptions{})
		if err != nil {
			t.Error(err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if s2 == nil || !s2.Fired() || s2.Err() != nil {
		t.Fatal("post-crash read did not complete cleanly")
	}
	if fs.DiskOps != 2 {
		t.Fatalf("DiskOps = %d, want 2 (orphaned fill + fresh fill)", fs.DiskOps)
	}
	// And the fresh fill really did populate the cache.
	s3, err := readSig(fs, "f", 0, 64<<10, ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if s3.Err() != nil || fs.DiskOps != 2 {
		t.Fatalf("re-read after fresh fill: err=%v ops=%d, want cache hit", s3.Err(), fs.DiskOps)
	}
}
