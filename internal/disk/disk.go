// Package disk models mid-1990s SCSI disks and the RAID-3 arrays that sat
// behind each Intel Paragon I/O node.
//
// A Disk owns a FIFO- or SCAN-scheduled request queue served by two
// pooled event callbacks (start and finish), not by a simulated process.
// Service time for a request is
//
//	controller overhead + seek(distance) + rotational latency + transfer
//
// with the seek and rotation skipped when the request continues exactly
// where the previous one ended (the disk is already on-track and
// on-sector), which is what makes the file system's block coalescing and
// contiguous allocation pay off.
//
// An Array byte-stripes every request across its members (RAID-3 style):
// a read of n bytes keeps all members busy with n/members bytes each and
// completes when the slowest member finishes. While an array is healthy
// its members move in lockstep, and it drives only its lead member.
package disk

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Error is a media or transport failure reported by a drive. The zero
// probability default means errors never occur unless a test or
// experiment arms fault injection. Transient distinguishes a soft error
// (a re-read of the same sector is guaranteed to succeed) from a hard
// media error the retry layer above cannot recover.
type Error struct {
	Disk      string
	Sector    int64
	Transient bool
}

// Error formats the failure with the drive and sector involved.
func (e *Error) Error() string {
	kind := "unrecoverable"
	if e.Transient {
		kind = "transient"
	}
	return fmt.Sprintf("disk %s: %s read error at sector %d", e.Disk, kind, e.Sector)
}

// Geometry describes one disk's mechanics.
type Geometry struct {
	SectorSize      int64    // bytes per sector
	SectorsPerTrack int64    // sectors on one track
	Heads           int64    // tracks per cylinder
	Cylinders       int64    // seek positions
	RPM             float64  // spindle speed
	SeekMin         sim.Time // single-cylinder seek
	SeekMax         sim.Time // full-stroke seek
	Overhead        sim.Time // controller/command overhead per request
}

// Seagate94601 returns parameters shaped after a ~0.5 GB early-90s SCSI
// drive (Wren class): 4200 RPM, ~0.86 MB/s sustained media rate, ~12 ms
// average seek. Calibrated so that an 8-compute/8-I/O-node machine
// reproduces the read access times of the paper's Table 2 (≈0.4 s for a
// 1 MB collective request).
func Seagate94601() Geometry {
	return Geometry{
		SectorSize:      512,
		SectorsPerTrack: 24,
		Heads:           15,
		Cylinders:       2500,
		RPM:             4200,
		SeekMin:         2 * sim.Millisecond,
		SeekMax:         22 * sim.Millisecond,
		Overhead:        1500 * sim.Microsecond,
	}
}

// Capacity reports the disk's capacity in bytes.
func (g Geometry) Capacity() int64 {
	return g.SectorSize * g.SectorsPerTrack * g.Heads * g.Cylinders
}

// sectorTime is the time the media takes to pass one sector under a head.
func (g Geometry) sectorTime() sim.Time {
	rev := sim.Seconds(60 / g.RPM)
	return rev / sim.Time(g.SectorsPerTrack)
}

// halfRotation is the expected rotational latency after a seek.
func (g Geometry) halfRotation() sim.Time {
	return sim.Seconds(60/g.RPM) / 2
}

// seekTime models the classic sub-linear seek curve between cylinders a
// and b: SeekMin for one cylinder, growing with the square root of the
// distance up to SeekMax.
func (g Geometry) seekTime(a, b int64) sim.Time {
	d := a - b
	if d < 0 {
		d = -d
	}
	if d == 0 {
		return 0
	}
	frac := math.Sqrt(float64(d) / float64(g.Cylinders-1))
	return g.SeekMin + sim.Time(float64(g.SeekMax-g.SeekMin)*frac)
}

// Sched selects the order requests are served in.
type Sched int

const (
	// FIFO serves requests in arrival order.
	FIFO Sched = iota
	// SCAN serves the nearest request in the current sweep direction
	// (elevator), reversing at the ends.
	SCAN
	// CSCAN sweeps in one direction only, jumping back to the lowest
	// pending cylinder at the end: fairer tail latency than SCAN.
	CSCAN
	// SSTF serves the request with the shortest seek from the current
	// cylinder; best mean latency, can starve the edges.
	SSTF
)

// String names the policy.
func (s Sched) String() string {
	switch s {
	case FIFO:
		return "FIFO"
	case SCAN:
		return "SCAN"
	case CSCAN:
		return "C-SCAN"
	case SSTF:
		return "SSTF"
	default:
		return fmt.Sprintf("Sched(%d)", int(s))
	}
}

// Request is one disk I/O. Reads and writes cost the same in this model.
// Completion is reported through OnDone, which is scheduled as a
// pooled-args event (see sim.Kernel.AfterCallErr), so the whole
// submit/complete round trip allocates nothing.
type Request struct {
	Sector int64 // starting logical sector
	Count  int64 // sectors to transfer
	Write  bool

	// OnDone is scheduled as OnDone(DoneArg, err) at the completion
	// instant.
	OnDone  func(any, error)
	DoneArg any

	cylinder int64 // cached decode of Sector
}

// Disk is a single simulated drive.
type Disk struct {
	k     *sim.Kernel
	name  string
	geo   Geometry
	sched Sched

	fault     FaultProfile
	faultRng  *rand.Rand
	jitterRng *rand.Rand
	transient map[int64]bool // sectors whose last read soft-failed; re-read succeeds
	permBad   map[int64]bool // sectors gone for good

	queue   []*Request
	serving *Request // request in service; nil while the drive is idle
	booked  bool     // a diskStart is booked and has not run yet
	idleGap bool     // the drive idled since its last transfer (see serviceTime)
	dead    bool     // drive failed for good: every request errors instantly
	cur     int64    // current cylinder
	nextLBA int64    // sector following the last transfer, -1 initially
	dir     int64    // SCAN sweep direction: +1 or -1

	// carry holds an unlocked array's followers whose start or finish
	// rides on this lead's booked diskStart or diskFinish (see
	// Array.unlock); nil otherwise.
	carry []*Disk

	// Measurements.
	Requests        int64
	Sectors         int64
	Errors          int64
	TransientErrors int64 // subset of Errors that re-reads recover
	PermanentErrors int64 // subset of Errors pinned to dead sectors
	Busy            stats.Utilization
	SeekDist        stats.Histogram // cylinders traveled per positioned request
	QueueLen        stats.Histogram // queue length observed at arrival
}

// New creates an idle disk on kernel k. It books no event until the
// first Submit.
func New(k *sim.Kernel, name string, geo Geometry, sched Sched) *Disk {
	if geo.SectorSize <= 0 || geo.SectorsPerTrack <= 0 || geo.Heads <= 0 ||
		geo.Cylinders <= 1 || geo.RPM <= 0 {
		panic(fmt.Sprintf("disk %s: invalid geometry %+v", name, geo))
	}
	d := &Disk{
		k:       k,
		name:    name,
		geo:     geo,
		sched:   sched,
		idleGap: true, // spin-up counts as a gap
		nextLBA: -1,
		dir:     1,
	}
	return d
}

// Geometry returns the disk's geometry.
func (d *Disk) Geometry() Geometry { return d.geo }

// FaultProfile describes how a disk misbehaves under fault injection.
// All draws come from a generator seeded by Seed, so two runs of the
// same simulation fault identically.
type FaultProfile struct {
	// Rate is the per-request fault probability. Zero disables
	// injection entirely.
	Rate float64
	// TransientFrac is the fraction of faults that are soft: the request
	// fails, but the faulted sector is remembered and the next read of it
	// is guaranteed to succeed — the contract the PFS retry layer's
	// recovery proof rests on.
	TransientFrac float64
	// PermanentFrac is the fraction of faults that kill the sector: every
	// later request starting there fails without a new draw. Faults that
	// are neither transient nor permanent are independent one-shots: the
	// re-read is a fresh draw.
	PermanentFrac float64
	// Jitter inflates each request's service time by a uniform factor in
	// [0, Jitter] while injection is armed, modelling the retry storms
	// and recalibration stalls of a drive under fault stress.
	Jitter float64
	Seed   int64
}

// valid panics on out-of-range probabilities.
func (fp FaultProfile) validate() {
	if fp.Rate < 0 || fp.Rate > 1 {
		panic(fmt.Sprintf("disk: fault rate %v outside [0,1]", fp.Rate))
	}
	if fp.TransientFrac < 0 || fp.PermanentFrac < 0 || fp.TransientFrac+fp.PermanentFrac > 1 {
		panic(fmt.Sprintf("disk: fault fractions %v+%v outside [0,1]", fp.TransientFrac, fp.PermanentFrac))
	}
	if fp.Jitter < 0 {
		panic(fmt.Sprintf("disk: jitter %v negative", fp.Jitter))
	}
}

// InjectFaultProfile arms (or with a zero-rate profile disarms) the full
// fault model. Sector state (transient marks, dead sectors) is reset.
func (d *Disk) InjectFaultProfile(fp FaultProfile) {
	fp.validate()
	d.fault = fp
	d.faultRng = rand.New(rand.NewSource(fp.Seed))
	d.jitterRng = rand.New(rand.NewSource(fp.Seed ^ 0x6a69747465726a69)) // decouple jitter draws from fault draws
	d.transient = make(map[int64]bool)
	d.permBad = make(map[int64]bool)
}

// injectFault decides whether the request that just finished service
// fails, honouring sector state: dead sectors always fail, transiently
// marked sectors always succeed on their re-read (clearing the mark),
// anything else is a fresh draw classified by the profile's fractions.
func (d *Disk) injectFault(req *Request) error {
	if d.fault.Rate <= 0 {
		return nil
	}
	if d.permBad[req.Sector] {
		d.Errors++
		d.PermanentErrors++
		return &Error{Disk: d.name, Sector: req.Sector}
	}
	if d.transient[req.Sector] {
		delete(d.transient, req.Sector)
		return nil
	}
	if d.faultRng.Float64() >= d.fault.Rate {
		return nil
	}
	d.Errors++
	if d.fault.TransientFrac == 0 && d.fault.PermanentFrac == 0 {
		// Legacy one-shot profile: no classification draw, so the fault
		// stream of pre-profile callers is reproduced exactly.
		return &Error{Disk: d.name, Sector: req.Sector}
	}
	switch c := d.faultRng.Float64(); {
	case c < d.fault.TransientFrac:
		d.TransientErrors++
		d.transient[req.Sector] = true
		return &Error{Disk: d.name, Sector: req.Sector, Transient: true}
	case c < d.fault.TransientFrac+d.fault.PermanentFrac:
		d.PermanentErrors++
		d.permBad[req.Sector] = true
		return &Error{Disk: d.name, Sector: req.Sector}
	default:
		return &Error{Disk: d.name, Sector: req.Sector}
	}
}

// faultJitter returns the extra service time fault stress adds to a
// request that would nominally take t.
func (d *Disk) faultJitter(t sim.Time) sim.Time {
	if d.fault.Rate <= 0 || d.fault.Jitter <= 0 {
		return 0
	}
	return sim.Time(float64(t) * d.fault.Jitter * d.jitterRng.Float64())
}

// Kill fails the drive permanently: every queued and future request
// errors immediately, as a controller reports a drive that stopped
// answering selection. A request already in service completes (its
// transfer was in flight when the electronics died is not modeled).
func (d *Disk) Kill() {
	if d.dead {
		return
	}
	d.dead = true
	for _, req := range d.queue {
		d.Errors++
		d.PermanentErrors++
		d.complete(req, &Error{Disk: d.name, Sector: req.Sector})
	}
	d.queue = d.queue[:0]
}

// complete books the request's OnDone as one zero-delay event.
func (d *Disk) complete(req *Request, err error) {
	d.k.AfterCallErr(0, req.OnDone, req.DoneArg, err)
}

// Submit enqueues a request; req.OnDone runs when it completes. A request
// extending past the end of the disk panics: the layer above sized the
// volume wrong. A request reaching an idle drive books one zero-delay
// diskStart; one reaching a busy drive, or an idle one whose start is
// already booked, books nothing.
func (d *Disk) Submit(req *Request) {
	if d.enqueue(req) && d.serving == nil && !d.booked {
		d.booked = true
		d.k.AfterCall(0, diskStart, d)
	}
}

// enqueue validates req and appends it to the queue. It reports false
// when the drive is dead and req has already been failed.
func (d *Disk) enqueue(req *Request) bool {
	if req.Sector < 0 || req.Count <= 0 ||
		(req.Sector+req.Count)*d.geo.SectorSize > d.geo.Capacity() {
		panic(fmt.Sprintf("disk: request [%d,+%d) outside disk", req.Sector, req.Count))
	}
	if d.dead {
		d.Errors++
		d.PermanentErrors++
		d.complete(req, &Error{Disk: d.name, Sector: req.Sector})
		return false
	}
	req.cylinder = req.Sector / (d.geo.SectorsPerTrack * d.geo.Heads)
	d.QueueLen.Observe(float64(len(d.queue)))
	d.queue = append(d.queue, req)
	return true
}

// diskStart wakes an idle drive. A request that arrives while the drive
// is idle pays rotational latency even when logically sequential: by the
// time the command reaches the drive the target sector has passed under
// the head (these drives had no read-ahead track buffer). Requests served
// back-to-back from a non-empty queue keep streaming.
func diskStart(a any) {
	d := a.(*Disk)
	d.booked = false
	if len(d.queue) > 0 { // else Kill failed everything that was queued
		d.begin()
	}
	d.runCarried(diskStart)
}

// begin picks the next request and books its completion after the
// service time.
func (d *Disk) begin() {
	req := d.pick()
	d.serving = req
	d.Busy.Begin(d.k.Now())
	t := d.serviceTime(req, d.idleGap)
	d.k.AfterCall(t+d.faultJitter(t), diskFinish, d)
}

// diskFinish ends the transfer in service, reports it, and starts the
// next queued request at once or lets the drive go idle.
func diskFinish(a any) {
	d := a.(*Disk)
	req := d.serving
	d.serving = nil
	d.Busy.End(d.k.Now())
	d.idleGap = false
	d.Requests++
	d.Sectors += req.Count
	d.cur = (req.Sector + req.Count - 1) / (d.geo.SectorsPerTrack * d.geo.Heads)
	d.nextLBA = req.Sector + req.Count
	d.complete(req, d.injectFault(req))
	if len(d.queue) > 0 {
		d.begin()
	} else {
		d.idleGap = true
	}
	d.runCarried(diskFinish)
}

// runCarried runs the carried followers' start or finish right after the
// lead's own, where their separately booked events would have run.
func (d *Disk) runCarried(fn func(any)) {
	carry := d.carry
	d.carry = nil
	for _, f := range carry {
		fn(f)
	}
}

// pick removes and returns the next request per the scheduling policy.
func (d *Disk) pick() *Request {
	best := 0
	if len(d.queue) > 1 {
		switch d.sched {
		case SCAN:
			best = d.pickSCAN()
		case CSCAN:
			best = d.pickCSCAN()
		case SSTF:
			best = d.pickSSTF()
		}
	}
	req := d.queue[best]
	d.queue = append(d.queue[:best], d.queue[best+1:]...)
	return req
}

// pickCSCAN returns the nearest request at-or-beyond the current cylinder
// in the upward direction, wrapping to the lowest pending cylinder.
func (d *Disk) pickCSCAN() int {
	bestIdx, bestCyl := -1, int64(1)<<62
	lowIdx, lowCyl := -1, int64(1)<<62
	for i, r := range d.queue {
		if r.cylinder < lowCyl {
			lowIdx, lowCyl = i, r.cylinder
		}
		if r.cylinder >= d.cur && r.cylinder < bestCyl {
			bestIdx, bestCyl = i, r.cylinder
		}
	}
	if bestIdx >= 0 {
		return bestIdx
	}
	return lowIdx
}

// pickSSTF returns the request with the shortest seek distance.
func (d *Disk) pickSSTF() int {
	bestIdx, bestDist := 0, int64(1)<<62
	for i, r := range d.queue {
		dist := abs64(r.cylinder - d.cur)
		if dist < bestDist {
			bestIdx, bestDist = i, dist
		}
	}
	return bestIdx
}

// pickSCAN returns the index of the nearest request at-or-beyond the
// current cylinder in the sweep direction, reversing if none remain.
func (d *Disk) pickSCAN() int {
	bestIdx, bestDist := -1, int64(1)<<62
	for i, r := range d.queue {
		delta := (r.cylinder - d.cur) * d.dir
		if delta >= 0 && delta < bestDist {
			bestIdx, bestDist = i, delta
		}
	}
	if bestIdx < 0 {
		d.dir = -d.dir
		return d.pickSCAN()
	}
	return bestIdx
}

// serviceTime computes one request's cost given current head state.
// Sequential continuation skips all positioning only while streaming; an
// idle gap costs the rotation back to the target sector even on-track.
func (d *Disk) serviceTime(req *Request, idleGap bool) sim.Time {
	t := d.geo.Overhead
	switch {
	case req.Sector != d.nextLBA:
		seek := d.geo.seekTime(d.cur, req.cylinder)
		d.SeekDist.Observe(float64(abs64(req.cylinder - d.cur)))
		t += seek + d.geo.halfRotation()
	case idleGap:
		d.SeekDist.Observe(0)
		t += d.geo.halfRotation()
	default:
		d.SeekDist.Observe(0)
	}
	return t + sim.Time(req.Count)*d.geo.sectorTime()
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
