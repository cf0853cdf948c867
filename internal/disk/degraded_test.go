package disk

import (
	"errors"
	"testing"

	"repro/internal/sim"
)

func TestKillFailsQueuedAndFutureRequests(t *testing.T) {
	k := sim.NewKernel()
	d := New(k, "d0", testGeo(), FIFO)
	first := readSig(d, 0, 8)      // enters service at t=0
	queued := readSig(d, 4096, 8)  // still queued when the drive dies
	k.At(sim.Millisecond, func() { // mid-service of the first request
		d.Kill()
		late := readSig(d, 0, 8)
		// Both failures are booked at the Kill instant, ahead of this
		// check.
		k.After(0, func() {
			var de *Error
			if err := queued.Err(); !queued.Fired() || !errors.As(err, &de) {
				t.Errorf("queued request fired %v with %v at Kill, want a *disk.Error", queued.Fired(), err)
			}
			if !late.Fired() || late.Err() == nil {
				t.Error("submit to a dead disk did not fail at once")
			}
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// The request already in service at Kill time completes normally: the
	// platters kept spinning until the transfer ended.
	if first.Err() != nil {
		t.Fatalf("in-service request failed: %v", first.Err())
	}
	if !d.Dead() {
		t.Fatal("Dead() = false after Kill")
	}
}

func TestDegradedReadReconstructsFromParity(t *testing.T) {
	g := testGeo()
	elapsed := func(degraded bool) (sim.Time, *Array) {
		k := sim.NewKernel()
		a := NewArray(k, "raid", 4, g, FIFO, 0)
		if degraded {
			a.FailMember(2)
		}
		done := arrayReadSig(a, 0, 64<<10)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if err := done.Err(); err != nil {
			t.Fatalf("read failed (degraded=%v): %v", degraded, err)
		}
		return done.FiredAt(), a
	}
	healthy, _ := elapsed(false)
	slow, a := elapsed(true)
	if !a.Degraded() {
		t.Fatal("array not degraded after FailMember")
	}
	if a.DegradedReads != 1 {
		t.Fatalf("DegradedReads = %d, want 1", a.DegradedReads)
	}
	if slow <= healthy {
		t.Fatalf("degraded read (%v) not slower than healthy (%v)", slow, healthy)
	}
	// The penalty is the modeled reconstruction time, not a cliff.
	if slow > 2*healthy {
		t.Fatalf("degraded read %v more than doubled healthy %v", slow, healthy)
	}
}

func TestDegradedWriteSkipsDeadMember(t *testing.T) {
	k := sim.NewKernel()
	a := NewArray(k, "raid", 4, testGeo(), FIFO, 0)
	a.FailMember(0)
	done := arrayWriteSig(a, 0, 64<<10)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if err := done.Err(); err != nil {
		t.Fatalf("degraded write failed: %v", err)
	}
	if a.DegradedReads != 0 {
		t.Fatal("a write counted as a degraded read")
	}
}

func TestNoParityMakesMemberLossFatal(t *testing.T) {
	k := sim.NewKernel()
	a := NewArray(k, "raid", 4, testGeo(), FIFO, 0)
	a.SetParity(false)
	a.FailMember(1)
	done := arrayReadSig(a, 0, 64<<10)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if done.Err() == nil {
		t.Fatal("read off a parity-less degraded array succeeded")
	}
}

func TestRebuildPromotesSpare(t *testing.T) {
	k := sim.NewKernel()
	g := testGeo()
	a := NewArray(k, "raid", 4, g, FIFO, 0)
	// Touch some data so the rebuild has a high-water mark to copy to.
	arrayWriteSig(a, 0, 256<<10)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	a.FailMember(3)
	a.StartRebuild(RebuildPolicy{Chunk: 64 << 10})
	if !a.Rebuilding() {
		t.Fatal("Rebuilding() = false after StartRebuild")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if a.Rebuilding() || a.Degraded() {
		t.Fatalf("array still rebuilding=%v degraded=%v after rebuild drained",
			a.Rebuilding(), a.Degraded())
	}
	if a.RebuildDoneAt == 0 {
		t.Fatal("RebuildDoneAt not stamped")
	}
	if a.RebuildIOs == 0 || a.RebuildBytes == 0 {
		t.Fatalf("rebuild did no work: IOs=%d Bytes=%d", a.RebuildIOs, a.RebuildBytes)
	}
	// The promoted spare serves reads: the array is healthy again.
	done := arrayReadSig(a, 0, 64<<10)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if err := done.Err(); err != nil {
		t.Fatalf("post-rebuild read failed: %v", err)
	}
	if a.DegradedReads != 0 {
		t.Fatal("post-rebuild read ran degraded")
	}
}

func TestRebuildGapTradesTimeForBandwidth(t *testing.T) {
	g := testGeo()
	doneAt := func(gap sim.Time) sim.Time {
		k := sim.NewKernel()
		a := NewArray(k, "raid", 4, g, FIFO, 0)
		arrayWriteSig(a, 0, 1<<20)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		a.FailMember(0)
		a.StartRebuild(RebuildPolicy{Chunk: 64 << 10, Gap: gap})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return a.RebuildDoneAt
	}
	fast := doneAt(0)
	slow := doneAt(50 * sim.Millisecond)
	if slow <= fast {
		t.Fatalf("throttled rebuild (%v) not slower than unthrottled (%v)", slow, fast)
	}
}

func TestRebuildGuards(t *testing.T) {
	k := sim.NewKernel()
	a := NewArray(k, "raid", 2, testGeo(), FIFO, 0)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("rebuild while healthy", func() { a.StartRebuild(RebuildPolicy{Chunk: 4096}) })
	mustPanic("fail out-of-range member", func() { a.FailMember(5) })
	a.FailMember(0)
	mustPanic("double member failure", func() { a.FailMember(1) })
	mustPanic("sub-sector chunk", func() { a.StartRebuild(RebuildPolicy{Chunk: 1}) })
	mustPanic("negative gap", func() { a.StartRebuild(RebuildPolicy{Chunk: 4096, Gap: -1}) })
}
