package disk

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sim"
)

const (
	lockstepWidth    = 4
	lockstepOverhead = sim.Millisecond
)

// lockstepAction is what ends lockstep in the middle of a differential
// schedule.
type lockstepAction int

const (
	noDivergence   lockstepAction = iota // stays in lockstep to the end
	failMember                           // FailMember
	failAndRebuild                       // FailMember, then StartRebuild
	injectFaults                         // Members()[i].InjectFaultProfile
	numLockstepActions
)

// arrayOpSpec is one submission of a lockstep schedule.
type arrayOpSpec struct {
	at     sim.Time
	off, n int64
	write  bool
}

// lockstepSchedule is a seeded array workload plus the divergence that
// ends lockstep part-way through it.
type lockstepSchedule struct {
	ops        []arrayOpSpec
	action     lockstepAction
	member     int      // the member the action targets
	at         sim.Time // when the action runs
	late       bool     // run the action after the issue events booked for the same instant
	controller bool     // the action falls between a burst's doCall and its issueArrayOp
}

// lockstepScheduleFor draws a seeded schedule: idle gaps long enough for
// the array to go quiet, bursts submitted at one instant, requests queued
// behind a busy array, and sequential continuations. The action lands
// next to a burst from the middle of the run: between the burst's
// doCall and its issueArrayOp, right after the issue has booked the
// lead's start, or while the burst is in service.
func lockstepScheduleFor(seed int64) lockstepSchedule {
	rng := rand.New(rand.NewSource(seed))
	s := lockstepSchedule{action: lockstepAction(seed % int64(numLockstepActions)), member: rng.Intn(lockstepWidth)}
	g := testGeo()
	ss := g.SectorSize * lockstepWidth
	span := g.Capacity() * lockstepWidth / 8 / ss // keeps a rebuild short
	var now sim.Time
	var bursts []sim.Time
	for len(s.ops) < 100 {
		if rng.Intn(2) == 0 {
			now += sim.Time(rng.Int63n(int64(200 * sim.Millisecond)))
		} else {
			now += sim.Time(rng.Int63n(int64(3 * sim.Millisecond)))
		}
		bursts = append(bursts, now)
		for n := 1 + rng.Intn(5); n > 0; n-- {
			op := arrayOpSpec{at: now, off: rng.Int63n(span) * ss, n: (1 + rng.Int63n(32)) * ss, write: rng.Intn(4) == 0}
			if l := len(s.ops); l > 0 && rng.Intn(3) == 0 {
				if next := s.ops[l-1].off + s.ops[l-1].n; next+op.n <= span*ss {
					op.off = next
				}
			}
			s.ops = append(s.ops, op)
		}
	}
	b := bursts[len(bursts)/4+rng.Intn(len(bursts)/2)]
	switch rng.Intn(3) {
	case 0:
		s.at, s.controller = b+lockstepOverhead/2, true
	case 1:
		s.at, s.late = b+lockstepOverhead, true
	default:
		s.at = b + lockstepOverhead + 1 + sim.Time(rng.Int63n(int64(5*sim.Millisecond)))
	}
	return s
}

// memberCounters is one member's measurements at the end of a run.
type memberCounters struct {
	requests, sectors, errs int64
	busy                    float64
	seekN, qlenN            int
	seekSum, qlenSum        float64
	seek, qlen              uint64
	seekOwn, qlenOwn        uint64 // after each member observed its own sentinel
}

// arrayRun is everything a lockstep differential run observed.
type arrayRun struct {
	done    []diskOutcome
	members []memberCounters
	array   [6]int64 // Requests, Bytes, DegradedReads, RebuildIOs, RebuildBytes, RebuildDoneAt
}

// lockstepCoverage counts the lead's state at the moments lockstep ended.
type lockstepCoverage struct {
	booked, serving, queued, idle, controller int
}

func (c *lockstepCoverage) observe(t *testing.T, a *Array, s lockstepSchedule) {
	t.Helper()
	if !a.lock {
		t.Fatal("the array left lockstep before the schedule's divergence")
	}
	lead := a.members[0]
	switch {
	case lead.booked:
		c.booked++
	case lead.serving != nil && len(lead.queue) > 0:
		c.queued++
	case lead.serving != nil:
		c.serving++
	default:
		c.idle++
	}
	if s.controller {
		c.controller++
	}
}

// runLockstep drives a healthy array through the schedule. With
// perMember set, Members() is called right after NewArray, which forces
// the per-member path from the start: the reference. Otherwise the
// array serves in lockstep until the schedule's action.
func runLockstep(t *testing.T, perMember bool, sched Sched, seed int64, s lockstepSchedule, cov *lockstepCoverage) arrayRun {
	t.Helper()
	k := sim.NewKernel()
	a := NewArray(k, "raid", lockstepWidth, testGeo(), sched, lockstepOverhead)
	if perMember {
		a.Members()
	}
	var out arrayRun
	record := func(v any, err error) {
		o := diskOutcome{op: v.(int), at: k.Now()}
		if err != nil {
			o.err = err.Error()
		}
		out.done = append(out.done, o)
	}
	submit := func(i int, op arrayOpSpec) {
		if op.write {
			a.WriteCall(op.off, op.n, record, i)
		} else {
			a.ReadCall(op.off, op.n, record, i)
		}
	}
	for i, op := range s.ops {
		k.At(op.at, func() { submit(i, op) })
	}
	act := func() {
		if !perMember {
			cov.observe(t, a, s)
		}
		switch s.action {
		case failMember:
			a.FailMember(s.member)
		case failAndRebuild:
			a.FailMember(s.member)
			a.StartRebuild(RebuildPolicy{Chunk: 256 << 10, Gap: sim.Millisecond})
		case injectFaults:
			a.Members()[s.member].InjectFaultProfile(FaultProfile{Rate: 0.3, Seed: seed})
		}
	}
	if s.late {
		// Booked from an event that runs after the burst's doCalls, so it
		// runs after their issueArrayOps and before the lead's start.
		k.At(s.at-lockstepOverhead, func() { k.At(s.at, act) })
	} else {
		k.At(s.at, act)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Close()
	if !perMember && s.action == noDivergence && !a.lock {
		t.Fatal("the array left lockstep with no divergence in the schedule")
	}
	now := k.Now()
	members := a.Members()
	for _, d := range members {
		out.members = append(out.members, memberCounters{
			requests: d.Requests, sectors: d.Sectors, errs: d.Errors, busy: d.Busy.Fraction(now),
			seekN: d.SeekDist.N(), seekSum: d.SeekDist.Sum(), seek: d.SeekDist.Fingerprint(),
			qlenN: d.QueueLen.N(), qlenSum: d.QueueLen.Sum(), qlen: d.QueueLen.Fingerprint(),
		})
	}
	// The members handed out are independent drives: a sample observed
	// on one shows on no other.
	for i, d := range members {
		d.SeekDist.Observe(-1 - float64(i))
		d.QueueLen.Observe(-1 - float64(i))
	}
	for i, d := range members {
		out.members[i].seekOwn, out.members[i].qlenOwn = d.SeekDist.Fingerprint(), d.QueueLen.Fingerprint()
	}
	out.array = [6]int64{a.Requests, a.Bytes, a.DegradedReads, a.RebuildIOs, a.RebuildBytes, int64(a.RebuildDoneAt)}
	return out
}

// TestLockstepMatchesPerMember: on seeded schedules under every
// scheduling policy, a healthy array served in lockstep — and unlocked
// mid-run by FailMember, StartRebuild or a member's InjectFaultProfile —
// completes every request at the same instant, in
// the same order and with the same error as the same array driven member
// by member, and leaves every member with the same counters.
func TestLockstepMatchesPerMember(t *testing.T) {
	var cov lockstepCoverage
	errs := 0
	for _, sched := range []Sched{FIFO, SCAN, CSCAN, SSTF} {
		for seed := int64(1); seed <= 20; seed++ {
			s := lockstepScheduleFor(seed)
			want := runLockstep(t, true, sched, seed, s, nil)
			got := runLockstep(t, false, sched, seed, s, &cov)
			n := len(s.ops)
			if len(want.done) != n {
				t.Fatalf("%v seed %d: the per-member array completed %d of %d requests", sched, seed, len(want.done), n)
			}
			for i := range want.done {
				if i >= len(got.done) || got.done[i] != want.done[i] {
					var g diskOutcome
					if i < len(got.done) {
						g = got.done[i]
					}
					t.Fatalf("%v seed %d (action %d): completion %d is %+v, per-member %+v", sched, seed, s.action, i, g, want.done[i])
				}
				if want.done[i].err != "" {
					errs++
				}
			}
			if len(got.done) != len(want.done) {
				t.Fatalf("%v seed %d (action %d): %d completions, per-member %d", sched, seed, s.action, len(got.done), len(want.done))
			}
			if !slices.Equal(got.members, want.members) {
				t.Fatalf("%v seed %d (action %d): member counters\n%+v\nper-member\n%+v", sched, seed, s.action, got.members, want.members)
			}
			if got.array != want.array {
				t.Fatalf("%v seed %d (action %d): array counters %v, per-member %v", sched, seed, s.action, got.array, want.array)
			}
		}
	}
	if cov.booked == 0 || cov.serving == 0 || cov.queued == 0 || cov.idle == 0 || cov.controller == 0 || errs == 0 {
		t.Fatalf("the schedules missed a case: lockstep ended %+v, %d requests failed", cov, errs)
	}
}
