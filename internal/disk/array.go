package disk

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// DefaultReconstructBW is the modeled XOR reconstruction bandwidth of the
// array controller: how fast it can recompute a dead member's bytes from
// the surviving members plus parity. Early-90s RAID controllers did this
// in firmware at tens of MB/s — far faster than the spindles, so the
// degraded penalty is a tax, not a cliff.
const DefaultReconstructBW = 30e6 // bytes per second

// RebuildPolicy throttles the online rebuild of a failed member onto the
// hot spare. Chunk is how many bytes of the logical volume one rebuild
// pass copies (bigger chunks finish sooner but hold the spindles longer);
// Gap is the idle time inserted between passes to yield the members to
// foreground requests. A zero Chunk disables rebuild pacing sanity and is
// rejected by StartRebuild.
type RebuildPolicy struct {
	Chunk int64    // bytes copied per rebuild pass
	Gap   sim.Time // pause between passes, ceded to foreground I/O
}

// Array is a RAID-3-style byte-striped disk array: every request is split
// evenly across all data members, so the members seek in lockstep and the
// array behaves like one disk with N× the transfer rate. This matches the
// SCSI RAID hardware on Paragon I/O nodes, whose arrays presented a
// single fast logical volume.
//
// One member may fail permanently (FailMember). With parity support on —
// the RAID-3 default — reads continue in degraded mode: the survivors
// supply their bytes and the controller reconstructs the dead member's
// share from parity at ReconstructBW. StartRebuild then copies the lost
// member's contents onto a hot spare in the background, competing with
// foreground traffic under a RebuildPolicy throttle, and promotes the
// spare when the copy completes.
//
// While an array of two or more members is healthy and nothing outside it
// has touched its members, it runs in lockstep: every member would get
// the same requests in the same order and keep the same queue, head and
// counters, so each request is served on the lead (member 0) alone.
// Writes keep lockstep like reads. The first divergence — Members,
// FailMember or StartRebuild — ends lockstep for good (see unlock).
type Array struct {
	k        *sim.Kernel
	name     string
	geo      Geometry
	sched    Sched
	members  []*Disk
	overhead sim.Time // array controller overhead per request

	failed     int     // index of the dead member, -1 while healthy
	spare      *Disk   // hot spare under rebuild, nil otherwise
	parity     bool    // degraded operation supported (RAID-3 parity present)
	reconBW    float64 // parity reconstruction bandwidth, bytes/s
	highSector int64   // highest member sector ever touched; rebuild bound
	rebuilding bool
	lock       bool // lockstep: only the lead is driven (see unlock)

	tr     *trace.Log
	trNode int

	opFree []*arrayOp // recycled ReadCall/WriteCall bookkeeping

	// Measurements.
	Requests      int64
	Bytes         int64
	DegradedReads int64 // requests served by parity reconstruction
	RebuildIOs    int64 // background rebuild passes completed
	RebuildBytes  int64 // bytes written onto the hot spare
	MemberFails   int64
	RebuildDoneAt sim.Time // when the spare was promoted (0 if never)
}

// NewArray builds an array of n data members with the given geometry and
// scheduling policy on each member. Parity support (degraded reads) is on
// by default, as RAID-3 implies.
func NewArray(k *sim.Kernel, name string, n int, geo Geometry, sched Sched, overhead sim.Time) *Array {
	if n <= 0 {
		panic("disk: array needs at least one member")
	}
	a := &Array{
		k:        k,
		name:     name,
		geo:      geo,
		sched:    sched,
		overhead: overhead,
		failed:   -1,
		parity:   true,
		reconBW:  DefaultReconstructBW,
		lock:     n > 1,
	}
	for i := 0; i < n; i++ {
		a.members = append(a.members, New(k, fmt.Sprintf("%s.%d", name, i), geo, sched))
	}
	return a
}

// Members returns the array's member disks (for inspection in tests and
// stats reporting). It ends lockstep, so the caller sees, and may drive,
// every member's real state.
func (a *Array) Members() []*Disk {
	a.unlock()
	return a.members
}

// Width reports the number of data members.
func (a *Array) Width() int { return len(a.members) }

// unlock ends lockstep. Each follower takes the lead's head state and
// counters and its own copy of every request queued or in service on the
// lead, and the lead's booked diskStart or diskFinish carries the
// followers' start or finish. From here on every member is driven on its
// own, event for event as if it had been all along.
func (a *Array) unlock() {
	if !a.lock {
		return
	}
	a.lock = false
	lead := a.members[0]
	for i, f := range a.members {
		if i == 0 {
			continue
		}
		f.cur, f.nextLBA, f.dir, f.idleGap, f.booked = lead.cur, lead.nextLBA, lead.dir, lead.idleGap, lead.booked
		f.Requests, f.Sectors, f.Busy = lead.Requests, lead.Sectors, lead.Busy
		f.SeekDist, f.QueueLen = lead.SeekDist.Clone(), lead.QueueLen.Clone()
		if lead.serving != nil {
			f.serving = follow(lead.serving, i)
		}
		for _, req := range lead.queue {
			f.queue = append(f.queue, follow(req, i))
		}
	}
	if lead.booked || lead.serving != nil {
		lead.carry = a.members[1:]
	}
}

// follow returns member i's copy of the lead's request req and counts it
// on req's op. In lockstep every lead request is an arrayOp's reqs[0].
func follow(req *Request, i int) *Request {
	op := req.DoneArg.(*arrayOp)
	c := &op.reqs[i]
	*c = *req
	op.remaining++
	return c
}

// SetParity enables or disables degraded operation. With parity off a
// member failure is fatal to every request touching the array — the
// failover-off twin simcheck runs to prove the parity path matters.
func (a *Array) SetParity(ok bool) { a.parity = ok }

// SetTrace attaches a trace log; node is stamped on emitted events so the
// timeline shows which I/O node's array degraded or rebuilt.
func (a *Array) SetTrace(tl *trace.Log, node int) { a.tr, a.trNode = tl, node }

// Degraded reports whether the array is currently missing a member.
func (a *Array) Degraded() bool { return a.failed >= 0 }

// Rebuilding reports whether a background rebuild is in progress.
func (a *Array) Rebuilding() bool { return a.rebuilding }

func (a *Array) emit(kind trace.Kind, off, n int64) {
	if a.tr != nil {
		a.tr.Add(trace.Event{T: a.k.Now(), Kind: kind, Node: a.trNode, File: a.name, Off: off, N: n})
	}
}

// FailMember kills member i permanently. Requests queued on the drive
// fail immediately; subsequent array requests run degraded (parity on) or
// fail (parity off). Only one member may be down at a time — RAID-3
// survives exactly one loss.
func (a *Array) FailMember(i int) {
	if i < 0 || i >= len(a.members) {
		panic(fmt.Sprintf("disk: array %s has no member %d", a.name, i))
	}
	if a.failed >= 0 {
		panic(fmt.Sprintf("disk: array %s already degraded (member %d down)", a.name, a.failed))
	}
	a.unlock()
	a.failed = i
	a.MemberFails++
	a.members[i].Kill()
}

// Capacity reports the usable capacity in bytes.
func (a *Array) Capacity() int64 {
	return a.members[0].Geometry().Capacity() * int64(len(a.members))
}

// SectorSize reports the logical sector size of the array: one stripe of
// member sectors, the minimum I/O granularity.
func (a *Array) SectorSize() int64 {
	return a.members[0].Geometry().SectorSize * int64(len(a.members))
}

// arrayOp is the pooled bookkeeping of one in-flight ReadCall/WriteCall:
// the member Request structs, the completion countdown, and the caller's
// callback. Ops and their request storage are recycled on the array's
// free list, so an array I/O allocates nothing in steady state.
type arrayOp struct {
	a         *Array
	sector    int64
	count     int64
	write     bool
	skip      int // member skipped in degraded mode, -1 while healthy
	remaining int
	firstErr  error
	recon     sim.Time
	fn        func(any, error)
	arg       any
	reqs      []Request // member request structs, reused across ops
}

// issueArrayOp is the controller-overhead event of an array request: it
// fans the op out to the member disks, or in lockstep submits it to the
// lead alone. The member count is set here, not in doCall, so that an
// unlock between the two still fans out against a matching count.
func issueArrayOp(v any) {
	op := v.(*arrayOp)
	a := op.a
	if cap(op.reqs) < len(a.members) {
		op.reqs = make([]Request, len(a.members))
	}
	op.reqs = op.reqs[:len(a.members)]
	members := a.members
	if a.lock {
		members = members[:1]
	}
	op.remaining = len(members)
	if op.skip >= 0 {
		op.remaining--
	}
	for i, d := range members {
		if i == op.skip {
			continue
		}
		req := &op.reqs[i]
		*req = Request{Sector: op.sector, Count: op.count, Write: op.write,
			OnDone: arrayMemberDone, DoneArg: op}
		d.Submit(req)
	}
}

// arrayMemberDone is one member's completion. The last member (in
// lockstep, the lead alone) schedules the caller's callback — directly,
// or after the parity reconstruction delay on a degraded read (see
// finishArrayOp).
func arrayMemberDone(v any, err error) {
	op := v.(*arrayOp)
	if err != nil && op.firstErr == nil {
		op.firstErr = err
	}
	op.remaining--
	if op.remaining > 0 {
		return
	}
	a := op.a
	if op.recon > 0 && op.firstErr == nil {
		a.k.AfterCallErr(op.recon, finishArrayOp, op, nil)
		return
	}
	a.k.AfterCallErr(0, op.fn, op.arg, op.firstErr)
	a.putOp(op)
}

// finishArrayOp ends a degraded read after reconstruction: a separate
// zero-delay hop delivers the callback, so a degraded read completes in
// two events, the reconstruction delay and the delivery.
func finishArrayOp(v any, _ error) {
	op := v.(*arrayOp)
	op.a.k.AfterCallErr(0, op.fn, op.arg, nil)
	op.a.putOp(op)
}

func (a *Array) getOp() *arrayOp {
	if n := len(a.opFree); n > 0 {
		op := a.opFree[n-1]
		a.opFree[n-1] = nil
		a.opFree = a.opFree[:n-1]
		return op
	}
	return &arrayOp{a: a}
}

func (a *Array) putOp(op *arrayOp) {
	op.fn, op.arg, op.firstErr = nil, nil, nil
	a.opFree = append(a.opFree, op)
}

// ReadCall starts a read of n bytes at byte offset off: fn(arg, err) is
// scheduled at the instant the slowest member completes, with no signal
// or closure constructed. In degraded mode the dead member is skipped
// and the completion is delayed by the parity reconstruction of its
// share.
func (a *Array) ReadCall(off, n int64, fn func(any, error), arg any) {
	a.doCall(off, n, false, fn, arg)
}

// WriteCall starts a write of n bytes at byte offset off; fn(arg, err)
// is scheduled when the slowest member completes. A degraded write skips
// the dead member and pays no reconstruction.
func (a *Array) WriteCall(off, n int64, fn func(any, error), arg any) {
	a.doCall(off, n, true, fn, arg)
}

// doCall splits [off, off+n) bytes across the members on a pooled op and
// books its issue after the controller overhead.
func (a *Array) doCall(off, n int64, write bool, fn func(any, error), arg any) {
	if off < 0 || n <= 0 || off+n > a.Capacity() {
		panic(fmt.Sprintf("disk: array request [%d,+%d) outside %d-byte array", off, n, a.Capacity()))
	}
	a.Requests++
	a.Bytes += n

	ss := a.members[0].Geometry().SectorSize
	nm := int64(len(a.members))
	// Byte-striping: member i holds bytes i, i+nm, i+2nm, ... so a range
	// of the logical volume maps to the same sector range on every
	// member.
	memberOff := off / nm
	memberLen := (n + nm - 1) / nm
	sector := memberOff / ss
	count := (memberOff+memberLen+ss-1)/ss - sector
	if count == 0 {
		count = 1
	}
	if end := sector + count; end > a.highSector {
		a.highSector = end
	}

	degraded := a.failed >= 0 && a.parity
	var recon sim.Time
	if degraded && !write {
		a.DegradedReads++
		a.emit(trace.DegradedRead, off, n)
		// The controller XORs the survivors' data with parity to
		// resynthesize the dead member's share.
		recon = sim.Seconds(float64(count*ss) / a.reconBW)
	}

	op := a.getOp()
	op.sector, op.count, op.write = sector, count, write
	op.skip = -1
	if degraded {
		op.skip = a.failed
	}
	op.recon = recon
	op.fn, op.arg = fn, arg
	a.k.AtCall(a.k.Now()+a.overhead, issueArrayOp, op)
}

// rebuildPass is the background rebuild: a state machine that copies
// one chunk per pass — the survivors' reads plus the spare write, counted
// down by remaining — and sleeps the policy's gap between passes. Its
// request storage is reused across passes.
type rebuildPass struct {
	a         *Array
	gap       sim.Time
	sector    int64 // first sector of the next chunk
	chunk     int64 // sectors per chunk
	end       int64 // sectors beyond it were never written
	remaining int
	reqs      []Request
}

// rebuildNext starts the next pass, or promotes the spare when the copy
// is complete.
func rebuildNext(v any) {
	rp := v.(*rebuildPass)
	a := rp.a
	if rp.sector >= rp.end {
		a.members[a.failed] = a.spare
		a.failed = -1
		a.spare = nil
		a.rebuilding = false
		a.RebuildDoneAt = a.k.Now()
		a.emit(trace.RebuildDone, 0, rp.end*a.geo.SectorSize)
		return
	}
	count := min(rp.chunk, rp.end-rp.sector)
	rp.remaining = len(a.members) // survivors + the spare write
	for i, d := range a.members {
		if i == a.failed {
			continue
		}
		req := &rp.reqs[i]
		*req = Request{Sector: rp.sector, Count: count,
			OnDone: rebuildMemberDone, DoneArg: rp}
		d.Submit(req)
	}
	w := &rp.reqs[len(a.members)]
	*w = Request{Sector: rp.sector, Count: count, Write: true,
		OnDone: rebuildMemberDone, DoneArg: rp}
	a.spare.Submit(w)
}

// rebuildMemberDone is one rebuild request's completion. Rebuild retries
// media hiccups internally; the pass completes regardless of err. The
// last one books the pass's end with one zero-delay event, so the end
// runs after every event already booked for that instant. Completions
// always arrive in events of their own, so a pass never ends inside
// rebuildNext.
func rebuildMemberDone(v any, _ error) {
	rp := v.(*rebuildPass)
	rp.remaining--
	if rp.remaining == 0 {
		rp.a.k.AfterCall(0, rebuildPassDone, rp)
	}
}

// rebuildPassDone accounts a finished pass and, after the gap if any,
// starts the next one.
func rebuildPassDone(v any) {
	rp := v.(*rebuildPass)
	a := rp.a
	count := min(rp.chunk, rp.end-rp.sector)
	a.RebuildIOs++
	a.RebuildBytes += count * a.geo.SectorSize
	a.emit(trace.RebuildIO, rp.sector*a.geo.SectorSize, count*a.geo.SectorSize)
	rp.sector += rp.chunk
	if rp.gap > 0 {
		a.k.AfterCall(rp.gap, rebuildNext, rp)
		return
	}
	rebuildNext(rp)
}

// StartRebuild spawns the background rebuild: a hot spare is spun up and
// the dead member's contents — every sector the array has ever touched —
// are reconstructed chunk by chunk from the survivors and written onto
// it. Rebuild reads share the survivors' queues with foreground requests,
// so the policy's Chunk/Gap trade rebuild time against foreground
// bandwidth. When the copy completes the spare silently takes the dead
// member's slot and the array is healthy again.
func (a *Array) StartRebuild(pol RebuildPolicy) {
	if a.failed < 0 {
		panic(fmt.Sprintf("disk: array %s is healthy; nothing to rebuild", a.name))
	}
	if !a.parity {
		panic(fmt.Sprintf("disk: array %s has no parity; cannot rebuild", a.name))
	}
	if a.rebuilding {
		panic(fmt.Sprintf("disk: array %s is already rebuilding", a.name))
	}
	a.unlock()
	ss := a.geo.SectorSize
	if pol.Chunk < ss {
		panic(fmt.Sprintf("disk: rebuild chunk %d smaller than a %d-byte sector", pol.Chunk, ss))
	}
	if pol.Gap < 0 {
		panic("disk: rebuild gap must be non-negative")
	}
	a.rebuilding = true
	a.spare = New(a.k, a.name+".spare", a.geo, a.sched)
	rp := &rebuildPass{a: a, gap: pol.Gap, chunk: pol.Chunk / ss,
		end: a.highSector, reqs: make([]Request, len(a.members)+1)}
	a.k.AfterCall(0, rebuildNext, rp)
}
