package ionode

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/disk"
	"repro/internal/sim"
)

// TestCrashDropsInFlightAndRestartServes: work in flight when the node
// dies must produce no reply and no accounting; a request arriving while
// down is swallowed; after Restart the node serves again, cold.
func TestCrashDropsInFlightAndRestartServes(t *testing.T) {
	k, _, s := rig(t)
	inFlightReplied := false
	duringDownReplied := false
	var afterErr error = errors.New("never replied")
	k.At(0, func() {
		readReply(s, "stripe", 0, 64<<10, true, func(error) { inFlightReplied = true })
	})
	k.At(sim.Millisecond, func() { s.Crash(50 * sim.Millisecond) })
	k.At(10*sim.Millisecond, func() {
		if !s.Down() {
			t.Error("Down() = false mid-crash")
		}
		if s.DownUntil() != 50*sim.Millisecond {
			t.Errorf("DownUntil = %v, want 50ms", s.DownUntil())
		}
		readReply(s, "stripe", 0, 64<<10, true, func(error) { duringDownReplied = true })
	})
	k.At(50*sim.Millisecond, func() { s.Restart() })
	k.At(60*sim.Millisecond, func() {
		readReply(s, "stripe", 0, 64<<10, true, func(err error) { afterErr = err })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if inFlightReplied {
		t.Error("in-flight request replied across a crash")
	}
	if duringDownReplied {
		t.Error("request to a down node replied")
	}
	if afterErr != nil {
		t.Errorf("read after restart: %v", afterErr)
	}
	if s.Crashes != 1 || s.Restarts != 1 {
		t.Errorf("Crashes=%d Restarts=%d, want 1/1", s.Crashes, s.Restarts)
	}
	// The arrival drop and the in-flight drop (at disk completion).
	if s.Dropped != 2 {
		t.Errorf("Dropped = %d, want 2", s.Dropped)
	}
	// Only the post-restart read counts as served bytes.
	if s.BytesServed != 64<<10 {
		t.Errorf("BytesServed = %d, want %d", s.BytesServed, 64<<10)
	}
}

// TestCrashDropsFairQueue: with the fair scheduler armed, a crash drops
// the request in service (at its disk completion, by epoch) and the two
// queued behind it (at the crash, by the queue drain). No reply runs,
// each request is counted once in Dropped and once in its tenant's
// TenantDropped, and after Restart a new read is admitted and served, so
// no service slot leaked.
func TestCrashDropsFairQueue(t *testing.T) {
	k, _, s := rig(t)
	s.SetFairPolicy(FairPolicy{Tenants: 2, Slots: 1})
	h, err := s.FS().Lookup("stripe")
	if err != nil {
		t.Fatal(err)
	}
	replies := 0
	countReply := func(any, error) { replies++ }
	k.At(0, func() {
		s.ReadCall(0, 0, h, 0, 64<<10, true, countReply, nil)
		s.ReadCall(0, 1, h, 64<<10, 64<<10, true, countReply, nil)
		s.ReadCall(0, 0, h, 128<<10, 64<<10, true, countReply, nil)
	})
	k.At(5*sim.Millisecond, func() {
		if snap := s.FairSnapshot(); snap.InService != 1 || snap.QueueLen != 2 {
			t.Fatalf("before the crash: %d in service, %d queued; want 1 and 2", snap.InService, snap.QueueLen)
		}
		s.Crash(50 * sim.Millisecond)
	})
	k.At(50*sim.Millisecond, func() { s.Restart() })
	var afterErr error = errors.New("never replied")
	k.At(60*sim.Millisecond, func() {
		s.ReadCall(0, 1, h, 0, 64<<10, true, func(_ any, err error) { afterErr = err }, nil)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if replies != 0 {
		t.Errorf("%d replies across the crash, want none", replies)
	}
	if s.Dropped != 3 {
		t.Errorf("Dropped = %d, want 3", s.Dropped)
	}
	if want := []int64{2, 1}; !slices.Equal(s.TenantDropped, want) {
		t.Errorf("TenantDropped = %v, want %v", s.TenantDropped, want)
	}
	if afterErr != nil {
		t.Errorf("read after restart: %v", afterErr)
	}
	if want := []int64{0, 1}; !slices.Equal(s.TenantServed, want) {
		t.Errorf("TenantServed = %v, want %v", s.TenantServed, want)
	}
	if snap := s.FairSnapshot(); snap.InService != 0 || snap.QueueLen != 0 {
		t.Errorf("after the run: %d in service, %d queued; want none", snap.InService, snap.QueueLen)
	}
}

// tripBreaker arms the shed policy, makes every disk request fail, and
// runs two reads far enough apart to complete, tripping the breaker.
// Returns the collected reply errors (appended as replies arrive).
func tripBreaker(t *testing.T, k *sim.Kernel, s *Server) *[]error {
	t.Helper()
	s.SetShedPolicy(ShedPolicy{Threshold: 2, Cooldown: 100 * sim.Millisecond})
	for _, d := range s.FS().Array().Members() {
		d.InjectFaultProfile(disk.FaultProfile{Rate: 1, Seed: 1})
	}
	errs := &[]error{}
	read := func(at sim.Time) {
		k.At(at, func() {
			readReply(s, "stripe", 0, 64<<10, true, func(err error) { *errs = append(*errs, err) })
		})
	}
	read(0)
	read(200 * sim.Millisecond) // sequential: consecutive faults accumulate
	return errs
}

// TestBreakerHalfOpenProbeSuccessCloses: after the cooldown exactly one
// probe is admitted; while it is in flight everything else is shed; its
// success closes the breaker and traffic flows again.
func TestBreakerHalfOpenProbeSuccessCloses(t *testing.T) {
	k, _, s := rig(t)
	errs := tripBreaker(t, k, s)
	var shedErr, probeErr, secondErr, afterErr error
	shedErr = errors.New("no reply")
	probeErr = errors.New("no reply")
	secondErr = errors.New("no reply")
	afterErr = errors.New("no reply")
	// Inside the cooldown (breaker opened ≈220 ms, deadline ≈320 ms).
	k.At(250*sim.Millisecond, func() {
		readReply(s, "stripe", 0, 64<<10, true, func(err error) { shedErr = err })
	})
	// Heal the disks so the probe can succeed.
	k.At(300*sim.Millisecond, func() {
		for _, d := range s.FS().Array().Members() {
			d.InjectFaultProfile(disk.FaultProfile{})
		}
	})
	// Past the deadline: this request is the probe...
	k.At(500*sim.Millisecond, func() {
		readReply(s, "stripe", 0, 64<<10, true, func(err error) { probeErr = err })
	})
	// ...and while it is in flight the breaker stays shut to everyone else.
	k.At(501*sim.Millisecond, func() {
		if s.breaker != bHalfOpen {
			t.Errorf("breaker = %v at probe time, want half-open", s.breaker)
		}
		readReply(s, "stripe", 0, 64<<10, true, func(err error) { secondErr = err })
	})
	k.At(800*sim.Millisecond, func() {
		if s.breaker != bClosed {
			t.Errorf("breaker = %v after successful probe, want closed", s.breaker)
		}
		readReply(s, "stripe", 0, 64<<10, true, func(err error) { afterErr = err })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, e := range *errs {
		if e == nil || errors.Is(e, ErrOverloaded) {
			t.Errorf("tripping read %d error = %v, want a disk error", i, e)
		}
	}
	if !errors.Is(shedErr, ErrOverloaded) {
		t.Errorf("in-cooldown read error = %v, want ErrOverloaded", shedErr)
	}
	if probeErr != nil {
		t.Errorf("probe read error = %v, want success", probeErr)
	}
	if !errors.Is(secondErr, ErrOverloaded) {
		t.Errorf("read during probe error = %v, want ErrOverloaded", secondErr)
	}
	if afterErr != nil {
		t.Errorf("read after close error = %v, want success", afterErr)
	}
	if s.Shed != 2 {
		t.Errorf("Shed = %d, want 2", s.Shed)
	}
}

// TestBreakerHalfOpenProbeFailureReopens: a failed probe re-opens the
// breaker for a fresh cooldown — one request per cooldown hits the disk,
// everything else fast-fails.
func TestBreakerHalfOpenProbeFailureReopens(t *testing.T) {
	k, _, s := rig(t)
	tripBreaker(t, k, s) // disks stay faulty: the probe will fail too
	var probeErr, shedErr error
	k.At(500*sim.Millisecond, func() {
		readReply(s, "stripe", 0, 64<<10, true, func(err error) { probeErr = err })
	})
	// The probe fails ≈520 ms, re-opening until ≈620 ms.
	k.At(560*sim.Millisecond, func() {
		readReply(s, "stripe", 0, 64<<10, true, func(err error) { shedErr = err })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if probeErr == nil || errors.Is(probeErr, ErrOverloaded) {
		t.Errorf("probe error = %v, want a disk error", probeErr)
	}
	if !errors.Is(shedErr, ErrOverloaded) {
		t.Errorf("post-probe read error = %v, want ErrOverloaded", shedErr)
	}
	if s.breaker != bOpen {
		t.Errorf("breaker = %v after failed probe, want open", s.breaker)
	}
}

// TestBreakerProbeAbortReleasesSlot: a probe that dies before reaching
// the disk (bad request) must release the half-open slot so the next
// request becomes the new probe instead of deadlocking the breaker.
func TestBreakerProbeAbortReleasesSlot(t *testing.T) {
	k, _, s := rig(t)
	tripBreaker(t, k, s)
	k.At(300*sim.Millisecond, func() {
		for _, d := range s.FS().Array().Members() {
			d.InjectFaultProfile(disk.FaultProfile{})
		}
	})
	var badErr, retryErr error
	retryErr = errors.New("no reply")
	// The probe slot goes to a request for a missing file: no disk verdict.
	k.At(500*sim.Millisecond, func() {
		readReply(s, "ghost", 0, 64<<10, true, func(err error) { badErr = err })
	})
	// The slot must be free again: this read probes and closes the breaker.
	k.At(600*sim.Millisecond, func() {
		readReply(s, "stripe", 0, 64<<10, true, func(err error) { retryErr = err })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if badErr == nil || errors.Is(badErr, ErrOverloaded) {
		t.Errorf("bad probe error = %v, want a file error", badErr)
	}
	if retryErr != nil {
		t.Errorf("follow-up probe error = %v, want success", retryErr)
	}
	if s.breaker != bClosed {
		t.Errorf("breaker = %v, want closed after recovered probe", s.breaker)
	}
}

// TestCrashClosesBreaker: a restart comes up with a closed breaker — the
// new incarnation has no evidence against its disk.
func TestCrashClosesBreaker(t *testing.T) {
	k, _, s := rig(t)
	tripBreaker(t, k, s)
	k.At(250*sim.Millisecond, func() {
		if s.breaker != bOpen {
			t.Errorf("breaker = %v before crash, want open", s.breaker)
		}
		s.Crash(300 * sim.Millisecond)
	})
	k.At(300*sim.Millisecond, func() {
		s.Restart()
		if s.breaker != bClosed {
			t.Errorf("breaker = %v after restart, want closed", s.breaker)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
