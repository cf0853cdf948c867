package disk

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/stats"
)

func testGeo() Geometry {
	return Geometry{
		SectorSize:      512,
		SectorsPerTrack: 64,
		Heads:           8,
		Cylinders:       1000,
		RPM:             4500,
		SeekMin:         2 * sim.Millisecond,
		SeekMax:         20 * sim.Millisecond,
		Overhead:        500 * sim.Microsecond,
	}
}

// fireSig is a completion callback that fires the signal carried as
// its arg, so a test can wait on or inspect an I/O after the fact.
func fireSig(v any, err error) { v.(*sim.Signal).Fire(err) }

// readSig submits a read of count sectors at sector to d and returns a
// signal fired at its completion.
func readSig(d *Disk, sector, count int64) *sim.Signal {
	sig := sim.NewSignal(d.k)
	d.Submit(&Request{Sector: sector, Count: count, OnDone: fireSig, DoneArg: sig})
	return sig
}

// arrayReadSig is readSig for an array's ReadCall.
func arrayReadSig(a *Array, off, n int64) *sim.Signal {
	sig := sim.NewSignal(a.k)
	a.ReadCall(off, n, fireSig, sig)
	return sig
}

// arrayWriteSig is readSig for an array's WriteCall.
func arrayWriteSig(a *Array, off, n int64) *sim.Signal {
	sig := sim.NewSignal(a.k)
	a.WriteCall(off, n, fireSig, sig)
	return sig
}

func TestGeometryCapacity(t *testing.T) {
	g := testGeo()
	want := int64(512 * 64 * 8 * 1000)
	if g.Capacity() != want {
		t.Fatalf("Capacity = %d, want %d", g.Capacity(), want)
	}
}

func TestSeekCurve(t *testing.T) {
	g := testGeo()
	if g.seekTime(5, 5) != 0 {
		t.Fatal("zero-distance seek should cost 0")
	}
	one := g.seekTime(0, 1)
	if one < g.SeekMin {
		t.Fatalf("1-cyl seek %v below SeekMin %v", one, g.SeekMin)
	}
	full := g.seekTime(0, g.Cylinders-1)
	if full != g.SeekMax {
		t.Fatalf("full-stroke seek %v, want SeekMax %v", full, g.SeekMax)
	}
	mid := g.seekTime(0, g.Cylinders/2)
	if !(one < mid && mid < full) {
		t.Fatalf("seek curve not monotone: 1cyl=%v mid=%v full=%v", one, mid, full)
	}
	// Sub-linear: half the distance should cost more than half the span.
	if frac := float64(mid-g.SeekMin) / float64(full-g.SeekMin); frac < 0.5 {
		t.Fatalf("seek curve not sub-linear: mid fraction %v", frac)
	}
}

// newtonSqrt is the 20-step Newton iteration seekTime used before it
// called math.Sqrt. The two differ in the last bit on some inputs.
func newtonSqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 20; i++ {
		z = (z + x/z) / 2
	}
	return z
}

// TestSeekTimeMatchesNewton: at every cylinder distance of every
// geometry the repository builds — the Seagate94601 default, the
// sensitivity experiment's doubled seek, and testGeo — seekTime gives
// the same integer time as with the Newton square root it replaced.
func TestSeekTimeMatchesNewton(t *testing.T) {
	doubled := Seagate94601()
	doubled.SeekMin *= 2
	doubled.SeekMax *= 2
	for _, c := range []struct {
		name string
		geo  Geometry
	}{{"Seagate94601", Seagate94601()}, {"doubled seek", doubled}, {"testGeo", testGeo()}} {
		g := c.geo
		for d := int64(1); d < g.Cylinders; d++ {
			frac := newtonSqrt(float64(d) / float64(g.Cylinders-1))
			want := g.SeekMin + sim.Time(float64(g.SeekMax-g.SeekMin)*frac)
			if got := g.seekTime(0, d); got != want {
				t.Fatalf("%s: seek over %d cylinders takes %v, %v with the Newton square root", c.name, d, got, want)
			}
		}
	}
}

func TestSingleRead(t *testing.T) {
	k := sim.NewKernel()
	d := New(k, "d0", testGeo(), FIFO)
	done := readSig(d, 0, 64)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !done.Fired() {
		t.Fatal("read never completed")
	}
	g := testGeo()
	// First request pays overhead + seek(0 cylinders)=0 + half rotation +
	// one full track of transfer.
	want := g.Overhead + g.halfRotation() + 64*g.sectorTime()
	if got := done.FiredAt(); got != want {
		t.Fatalf("completion at %v, want %v", got, want)
	}
}

func TestSequentialSkipsPositioning(t *testing.T) {
	k := sim.NewKernel()
	g := testGeo()
	d := New(k, "d0", g, FIFO)
	first := readSig(d, 0, 64)
	second := readSig(d, 64, 64)  // exactly where the first ended
	third := readSig(d, 1000, 64) // elsewhere: must re-position
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	seq := second.FiredAt() - first.FiredAt()
	pos := third.FiredAt() - second.FiredAt()
	wantSeq := g.Overhead + 64*g.sectorTime()
	if seq != wantSeq {
		t.Fatalf("sequential service = %v, want %v (no seek/rotation)", seq, wantSeq)
	}
	if pos <= seq {
		t.Fatalf("positioned read (%v) not slower than sequential (%v)", pos, seq)
	}
}

func TestFIFOOrder(t *testing.T) {
	k := sim.NewKernel()
	d := New(k, "d0", testGeo(), FIFO)
	far := readSig(d, 400000, 8) // far cylinder, submitted first
	near := readSig(d, 8, 8)     // near cylinder, submitted second
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !(far.FiredAt() < near.FiredAt()) {
		t.Fatal("FIFO did not serve in arrival order")
	}
}

func TestSCANReorders(t *testing.T) {
	k := sim.NewKernel()
	g := testGeo()
	d := New(k, "d0", g, SCAN)
	sectorsPerCyl := g.SectorsPerTrack * g.Heads
	// While the first request is in service, queue one far and one near;
	// SCAN should serve the near one first despite arrival order.
	_ = readSig(d, 0, 8)
	far := readSig(d, 900*sectorsPerCyl, 8)
	near := readSig(d, 10*sectorsPerCyl, 8)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !(near.FiredAt() < far.FiredAt()) {
		t.Fatal("SCAN served far request before near one")
	}
}

func TestSCANServesEverything(t *testing.T) {
	k := sim.NewKernel()
	g := testGeo()
	d := New(k, "d0", g, SCAN)
	rng := rand.New(rand.NewSource(42))
	var sigs []*sim.Signal
	max := g.Capacity()/g.SectorSize - 16
	for i := 0; i < 50; i++ {
		sigs = append(sigs, readSig(d, rng.Int63n(max), 8))
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, s := range sigs {
		if !s.Fired() {
			t.Fatalf("request %d starved under SCAN", i)
		}
	}
	if d.Requests != 50 {
		t.Fatalf("Requests = %d, want 50", d.Requests)
	}
}

func TestUtilizationTracked(t *testing.T) {
	k := sim.NewKernel()
	d := New(k, "d0", testGeo(), FIFO)
	readSig(d, 0, 64)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if b := d.Busy.Busy(k.Now()); b != k.Now() {
		t.Fatalf("busy %v of %v: single request should keep disk busy to completion", b, k.Now())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	k := sim.NewKernel()
	d := New(k, "d0", testGeo(), FIFO)
	cases := []*Request{
		{Sector: -1, Count: 1},
		{Sector: 0, Count: 0},
		{Sector: d.Geometry().Capacity() / 512, Count: 1},
	}
	for _, req := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Submit(%+v) did not panic", req)
				}
			}()
			d.Submit(req)
		}()
	}
}

// Property: total transfer time is at least count*sectorTime for any
// request mix, and all requests complete.
func TestServiceLowerBound(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := sim.NewKernel()
		g := testGeo()
		d := New(k, "d0", g, FIFO)
		var total int64
		n := 1 + rng.Intn(20)
		var sigs []*sim.Signal
		for i := 0; i < n; i++ {
			count := int64(1 + rng.Intn(256))
			sector := rng.Int63n(g.Capacity()/g.SectorSize - count)
			total += count
			sigs = append(sigs, readSig(d, sector, count))
		}
		if err := k.Run(); err != nil {
			return false
		}
		for _, s := range sigs {
			if !s.Fired() {
				return false
			}
		}
		return k.Now() >= sim.Time(total)*g.sectorTime()
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestArrayStripesAcrossMembers(t *testing.T) {
	k := sim.NewKernel()
	g := testGeo()
	a := NewArray(k, "raid", 4, g, FIFO, sim.Millisecond)
	done := arrayReadSig(a, 0, 256<<10) // 256 KiB
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !done.Fired() {
		t.Fatal("array read never completed")
	}
	perMember := int64(256<<10) / 4 / g.SectorSize
	for i, d := range a.Members() {
		if d.Sectors != perMember {
			t.Fatalf("member %d transferred %d sectors, want %d", i, d.Sectors, perMember)
		}
	}
}

func TestArrayFasterThanSingleDisk(t *testing.T) {
	g := testGeo()
	timeFor := func(members int) sim.Time {
		k := sim.NewKernel()
		a := NewArray(k, "raid", members, g, FIFO, 0)
		done := arrayReadSig(a, 0, 1<<20)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return done.FiredAt()
	}
	one, four := timeFor(1), timeFor(4)
	if four >= one {
		t.Fatalf("4-member array (%v) not faster than 1 member (%v)", four, one)
	}
	// Transfer-dominated workload should approach 4x.
	if ratio := one.Seconds() / four.Seconds(); ratio < 2 {
		t.Fatalf("speedup %.2f, want ≥ 2 for a 1 MiB transfer", ratio)
	}
}

func TestArraySequentialStreamsAtMediaRate(t *testing.T) {
	k := sim.NewKernel()
	g := testGeo()
	a := NewArray(k, "raid", 4, g, FIFO, 500*sim.Microsecond)
	const chunk = 64 << 10
	var last *sim.Signal
	k.Go("reader", func(p *sim.Proc) {
		for i := int64(0); i < 32; i++ {
			last = arrayReadSig(a, i*chunk, chunk)
			last.Wait(p)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// 2 MiB over 4 members at ~1.17 MB/s each -> roughly 0.45 s plus
	// per-request overheads; just sanity-check the order of magnitude.
	if got := last.FiredAt(); got > 2*sim.Second || got < 200*sim.Millisecond {
		t.Fatalf("2 MiB sequential stream took %v, outside sane range", got)
	}
}

func TestArrayBadRequestPanics(t *testing.T) {
	k := sim.NewKernel()
	a := NewArray(k, "raid", 2, testGeo(), FIFO, 0)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("oversized array read did not panic")
			}
		}()
		arrayReadSig(a, a.Capacity()-10, 100)
	}()
}

// refDisk serves a Disk with the drive's former service loop: one
// process parked on a wake-up signal while the queue is empty. It is the
// reference the callback server (diskStart/diskFinish) is differentially
// tested against.
type refDisk struct {
	*Disk
	wake *sim.Signal // the parked loop's wake-up; nil while it runs
}

func newRefDisk(k *sim.Kernel, geo Geometry, sched Sched) *refDisk {
	r := &refDisk{Disk: New(k, "ref", geo, sched)}
	k.Go("disk/ref", r.serve)
	return r
}

// submit is Submit with the loop's wake-up instead of a booked diskStart.
func (r *refDisk) submit(req *Request) {
	if r.enqueue(req) && r.wake != nil {
		w := r.wake
		r.wake = nil
		w.Fire(nil)
	}
}

// serve is the former service loop; it parked on a queue of wake
// tokens, which booked the same single wake-up event.
func (r *refDisk) serve(p *sim.Proc) {
	d := r.Disk
	idleGap := true // spin-up counts as a gap
	for {
		if len(d.queue) == 0 {
			idleGap = true
			for len(d.queue) == 0 {
				r.wake = sim.NewSignal(d.k)
				r.wake.Wait(p)
			}
		}
		req := d.pick()
		d.Busy.Begin(p.Now())
		t := d.serviceTime(req, idleGap)
		p.Sleep(t + d.faultJitter(t))
		d.Busy.End(p.Now())
		idleGap = false
		d.Requests++
		d.Sectors += req.Count
		d.cur = (req.Sector + req.Count - 1) / (d.geo.SectorsPerTrack * d.geo.Heads)
		d.nextLBA = req.Sector + req.Count
		d.complete(req, d.injectFault(req))
	}
}

// diskOp is one submission of a differential schedule.
type diskOp struct {
	at            sim.Time
	sector, count int64
	write         bool
}

// diffSchedule draws a seeded submission schedule: idle gaps long
// enough for the drive to go quiet, bursts submitted at one instant,
// sequential continuations, and a Kill one microsecond after a burst,
// while the burst's first request is in service.
func diffSchedule(seed int64, g Geometry) (ops []diskOp, kill sim.Time) {
	rng := rand.New(rand.NewSource(seed))
	max := g.Capacity()/g.SectorSize - 64
	var now sim.Time
	for len(ops) < 120 {
		if rng.Intn(2) == 0 {
			now += sim.Time(rng.Int63n(int64(200 * sim.Millisecond)))
		} else {
			now += sim.Time(rng.Int63n(int64(3 * sim.Millisecond)))
		}
		for n := 1 + rng.Intn(5); n > 0; n-- {
			op := diskOp{at: now, sector: rng.Int63n(max), count: 1 + rng.Int63n(63),
				write: rng.Intn(4) == 0}
			if l := len(ops); l > 0 && rng.Intn(3) == 0 && ops[l-1].sector+ops[l-1].count+op.count <= max {
				op.sector = ops[l-1].sector + ops[l-1].count
			}
			ops = append(ops, op)
		}
		if kill == 0 && len(ops) >= 90 {
			kill = now + sim.Microsecond
		}
	}
	return ops, kill
}

// diskOutcome is one request's completion as its submitter saw it.
type diskOutcome struct {
	op  int
	at  sim.Time
	err string
}

// diskCounters is a drive's measurements at the end of a run.
type diskCounters struct {
	requests, sectors, errs, trans, perm int64
	busy                                 stats.Utilization
	seek, qlen                           uint64
}

// diskRun is everything a differential run observed.
type diskRun struct {
	done []diskOutcome
	diskCounters
}

// runDiffSchedule drives one drive — the callback server, or the
// reference loop when ref is set — through the schedule.
func runDiffSchedule(t *testing.T, ref bool, sched Sched, fp FaultProfile, ops []diskOp, kill sim.Time) diskRun {
	t.Helper()
	k := sim.NewKernel()
	g := testGeo()
	var d *Disk
	submit := func(req *Request) { d.Submit(req) }
	if ref {
		r := newRefDisk(k, g, sched)
		d, submit = r.Disk, r.submit
	} else {
		d = New(k, "ref", g, sched)
	}
	d.InjectFaultProfile(fp)
	var out diskRun
	for i, op := range ops {
		i := i
		record := func(_ any, err error) {
			o := diskOutcome{op: i, at: k.Now()}
			if err != nil {
				o.err = err.Error()
			}
			out.done = append(out.done, o)
		}
		req := &Request{Sector: op.sector, Count: op.count, Write: op.write, OnDone: record}
		k.At(op.at, func() { submit(req) })
	}
	k.At(kill, func() {
		if !ref && d.serving == nil {
			t.Errorf("the drive was idle at the Kill")
		}
		d.Kill()
	})
	// The reference loop never ends, so bound the run instead of
	// draining it.
	if err := k.RunUntil(3600 * sim.Second); err != nil {
		t.Fatal(err)
	}
	k.Close()
	out.requests, out.sectors, out.errs = d.Requests, d.Sectors, d.Errors
	out.trans, out.perm, out.busy = d.TransientErrors, d.PermanentErrors, d.Busy
	out.seek, out.qlen = d.SeekDist.Fingerprint(), d.QueueLen.Fingerprint()
	return out
}

// TestCallbackServerMatchesServiceLoop: on seeded schedules under every
// scheduling policy, with fault jitter and a Kill during service, the
// callback server completes every request at the same instant, in the
// same order and with the same error as the former service loop, and
// leaves the same counters.
func TestCallbackServerMatchesServiceLoop(t *testing.T) {
	g := testGeo()
	for _, sched := range []Sched{FIFO, SCAN, CSCAN, SSTF} {
		var faults, transient int64
		for seed := int64(1); seed <= 8; seed++ {
			ops, kill := diffSchedule(seed, g)
			fp := FaultProfile{Rate: 0.1, TransientFrac: 0.5, PermanentFrac: 0.2, Jitter: 0.5, Seed: seed}
			want := runDiffSchedule(t, true, sched, fp, ops, kill)
			got := runDiffSchedule(t, false, sched, fp, ops, kill)
			if len(want.done) != len(ops) {
				t.Fatalf("%v seed %d: the reference completed %d of %d requests", sched, seed, len(want.done), len(ops))
			}
			faults += want.errs
			transient += want.trans
			for i := range want.done {
				if i >= len(got.done) || got.done[i] != want.done[i] {
					var g diskOutcome
					if i < len(got.done) {
						g = got.done[i]
					}
					t.Fatalf("%v seed %d: completion %d is %+v, the service loop's is %+v", sched, seed, i, g, want.done[i])
				}
			}
			if got.diskCounters != want.diskCounters {
				t.Fatalf("%v seed %d: counters %+v, the service loop's %+v", sched, seed, got.diskCounters, want.diskCounters)
			}
		}
		if transient == 0 || faults == transient {
			t.Fatalf("%v: the schedules drew %d faults, %d of them transient; both kinds are needed", sched, faults, transient)
		}
	}
}
