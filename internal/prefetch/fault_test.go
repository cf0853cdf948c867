package prefetch_test

import (
	"testing"

	"repro/internal/disk"
	"repro/internal/machine"
	"repro/internal/pfs"
	"repro/internal/prefetch"
	"repro/internal/sim"
)

// TestFailedPrefetchRetires arms fault injection exactly while a
// prefetch is in flight: the speculative read fails, its buffer slot is
// reclaimed immediately (not parked until a read happens to match it),
// and the user read it was meant to serve succeeds as a plain miss via
// the direct Fast Path.
func TestFailedPrefetchRetires(t *testing.T) {
	mcfg := smallMachine()
	m := machine.Build(mcfg)
	if err := m.FS.Create("f", 1<<20); err != nil {
		t.Fatal(err)
	}
	pf := prefetch.New(m.K, prefetch.DefaultConfig())
	setFaults := func(rate float64) {
		for _, a := range m.Arrays {
			for i, d := range a.Members() {
				d.InjectFaults(rate, int64(i))
			}
		}
	}
	var outstandingAfterFail int
	m.K.Go("reader", func(p *sim.Proc) {
		f, err := m.FS.Open("f", 0, pfs.MAsync, nil)
		if err != nil {
			t.Error(err)
			return
		}
		pf.Attach(f)
		if _, err := f.Read(p, 64<<10); err != nil {
			t.Errorf("first read: %v", err)
			return
		}
		// The prefetch for the second record is now queued; make every
		// disk request fail while it runs, then heal the disks.
		setFaults(1)
		p.Sleep(sim.Second)
		outstandingAfterFail = pf.Outstanding(f)
		setFaults(0)
		if _, err := f.Read(p, 64<<10); err != nil {
			t.Errorf("read after failed prefetch: %v", err)
		}
	})
	if err := m.K.Run(); err != nil {
		t.Fatal(err)
	}
	if outstandingAfterFail != 0 {
		t.Fatalf("failed prefetch still holds %d buffer slot(s)", outstandingAfterFail)
	}
	if pf.Retired != 1 {
		t.Fatalf("Retired = %d, want 1", pf.Retired)
	}
	// The slot was reclaimed before the read arrived, so the read is an
	// ordinary miss — and certainly not a hit.
	if pf.Misses != 2 || pf.Hits != 0 || pf.Fallbacks != 0 {
		t.Fatalf("Misses/Hits/Fallbacks = %d/%d/%d, want 2/0/0", pf.Misses, pf.Hits, pf.Fallbacks)
	}
}

// TestInFlightPrefetchFailureFallsBack covers the race the retirement
// path cannot shortcut: the reader is already waiting on an in-flight
// prefetch when its stripe requests fail. The reader must fall back to a
// direct read — which succeeds, because the faults are transient and the
// re-read of a transiently faulted sector recovers by construction.
func TestInFlightPrefetchFailureFallsBack(t *testing.T) {
	mcfg := smallMachine()
	m := machine.Build(mcfg)
	if err := m.FS.Create("f", 1<<20); err != nil {
		t.Fatal(err)
	}
	pf := prefetch.New(m.K, prefetch.DefaultConfig())
	m.K.Go("reader", func(p *sim.Proc) {
		f, err := m.FS.Open("f", 0, pfs.MAsync, nil)
		if err != nil {
			t.Error(err)
			return
		}
		pf.Attach(f)
		if _, err := f.Read(p, 64<<10); err != nil {
			t.Errorf("first read: %v", err)
			return
		}
		// Every fresh disk request now soft-fails; re-reads succeed. The
		// just-issued prefetch will fail mid-flight while the next read
		// waits on it.
		for _, a := range m.Arrays {
			for i, d := range a.Members() {
				d.InjectFaultProfile(disk.FaultProfile{Rate: 1, TransientFrac: 1, Seed: int64(i)})
			}
		}
		if _, err := f.Read(p, 64<<10); err != nil {
			t.Errorf("read over failed in-flight prefetch: %v", err)
		}
	})
	if err := m.K.Run(); err != nil {
		t.Fatal(err)
	}
	if pf.Fallbacks != 1 {
		t.Fatalf("Fallbacks = %d, want 1", pf.Fallbacks)
	}
	if pf.Hits != 0 {
		t.Fatalf("Hits = %d; a failed prefetch is not a hit", pf.Hits)
	}
	if pf.BytesDirect != 2*(64<<10) {
		t.Fatalf("BytesDirect = %d, want both reads delivered directly", pf.BytesDirect)
	}
}

// TestPrefetchRetryBudgetExhaustedLeaksNoSlot: a prefetch whose stripe
// requests exhaust the retry budget (permanent faults never heal) must
// give up, retire its buffer slot, and leave the file readable once the
// disks recover.
func TestPrefetchRetryBudgetExhaustedLeaksNoSlot(t *testing.T) {
	mcfg := smallMachine()
	mcfg.PFS.Retry = pfs.RetryPolicy{MaxRetries: 1, Backoff: sim.Millisecond, Seed: 1}
	m := machine.Build(mcfg)
	if err := m.FS.Create("f", 1<<20); err != nil {
		t.Fatal(err)
	}
	pf := prefetch.New(m.K, prefetch.DefaultConfig())
	setProfile := func(p disk.FaultProfile) {
		for _, a := range m.Arrays {
			for i, d := range a.Members() {
				p.Seed = int64(i)
				d.InjectFaultProfile(p)
			}
		}
	}
	var outstandingAfterFail int
	m.K.Go("reader", func(p *sim.Proc) {
		f, err := m.FS.Open("f", 0, pfs.MAsync, nil)
		if err != nil {
			t.Error(err)
			return
		}
		pf.Attach(f)
		if _, err := f.Read(p, 64<<10); err != nil {
			t.Errorf("first read: %v", err)
			return
		}
		// The queued prefetch hits disks that fail every request the same
		// way forever; its one retry cannot help.
		setProfile(disk.FaultProfile{Rate: 1, PermanentFrac: 1})
		p.Sleep(sim.Second)
		outstandingAfterFail = pf.Outstanding(f)
		setProfile(disk.FaultProfile{})
		if _, err := f.Read(p, 64<<10); err != nil {
			t.Errorf("read after exhausted prefetch: %v", err)
		}
	})
	if err := m.K.Run(); err != nil {
		t.Fatal(err)
	}
	if outstandingAfterFail != 0 {
		t.Fatalf("exhausted prefetch still holds %d buffer slot(s)", outstandingAfterFail)
	}
	if m.FS.GiveUps == 0 {
		t.Error("prefetch failure did not consume the retry budget")
	}
	if pf.Retired != 1 {
		t.Errorf("Retired = %d, want 1", pf.Retired)
	}
	if pf.Fallbacks != 0 || pf.Hits != 0 {
		t.Errorf("Fallbacks/Hits = %d/%d, want 0/0 (slot reclaimed before the read)", pf.Fallbacks, pf.Hits)
	}
}

// TestPrefetchIntoCrashRetiresSlot: an in-flight prefetch aimed at an I/O
// node that crashes before replying must fail deterministically
// (ErrUnavailable once the node's restart is past the down deadline) and
// retire its buffer slot; the demand read for the same record succeeds
// once the node is back.
func TestPrefetchIntoCrashRetiresSlot(t *testing.T) {
	mcfg := smallMachine()
	mcfg.PFS.Retry = pfs.RetryPolicy{
		MaxRetries:   4,
		Timeout:      100 * sim.Millisecond,
		Backoff:      sim.Millisecond,
		BackoffMax:   10 * sim.Millisecond,
		Seed:         1,
		DownPoll:     5 * sim.Millisecond,
		DownDeadline: 60 * sim.Millisecond,
	}
	m := machine.Build(mcfg)
	if err := m.FS.Create("f", 1<<20); err != nil {
		t.Fatal(err)
	}
	pf := prefetch.New(m.K, prefetch.DefaultConfig())
	var outstandingAfterCrash int
	m.K.Go("reader", func(p *sim.Proc) {
		f, err := m.FS.Open("f", 0, pfs.MAsync, nil)
		if err != nil {
			t.Error(err)
			return
		}
		pf.Attach(f)
		if _, err := f.Read(p, 64<<10); err != nil {
			t.Errorf("first read: %v", err)
			return
		}
		// The prefetch for record 2 targets the second stripe-group member
		// (64 KB stripe unit, one record per server). Kill that node for
		// 200 ms — far past the 60 ms down deadline, so the prefetch cannot
		// wait it out.
		srv := m.Servers[1]
		until := p.Now() + 200*sim.Millisecond
		m.Mesh.AddOutage(srv.Node(), p.Now(), until)
		srv.Crash(until)
		m.K.At(until, srv.Restart)
		p.Sleep(300 * sim.Millisecond)
		outstandingAfterCrash = pf.Outstanding(f)
		// The node is back: the demand read for the lost record succeeds.
		if _, err := f.Read(p, 64<<10); err != nil {
			t.Errorf("read after crash: %v", err)
		}
	})
	if err := m.K.Run(); err != nil {
		t.Fatal(err)
	}
	if outstandingAfterCrash != 0 {
		t.Fatalf("crashed prefetch still holds %d buffer slot(s)", outstandingAfterCrash)
	}
	if pf.Retired != 1 {
		t.Fatalf("Retired = %d, want 1", pf.Retired)
	}
	if m.FS.Unavailable == 0 {
		t.Fatal("crash did not surface as ErrUnavailable on the retry layer")
	}
	if m.FS.GiveUps != 0 {
		t.Fatalf("GiveUps = %d; unavailability must not count as budget exhaustion", m.FS.GiveUps)
	}
}
