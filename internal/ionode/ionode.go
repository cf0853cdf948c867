// Package ionode models the Paragon I/O node daemon: the server half of
// the PFS. Each I/O node owns a UFS over a RAID array and serves stripe
// requests arriving over the mesh, replying with the data (reads) or an
// acknowledgement (writes).
//
// Request handling is event-driven: decode/dispatch costs CPU serialized
// on the node's processor, the file system and disk layers below provide
// the queuing, and the reply rides the mesh back to the requester.
//
// A server can crash (Crash) and later restart (Restart). While down it
// drops every arriving request without a reply — clients discover the
// loss by timeout — and work already in flight when the node died is
// discarded via an epoch check: completions belonging to a previous
// incarnation never produce a reply or touch the counters. A restart
// comes up cold: the UFS buffer cache is wiped and the breaker closed.
package ionode

import (
	"errors"

	"repro/internal/mesh"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/ufs"
)

// ErrOverloaded is the control reply of a server that is shedding load:
// its disk reported repeated faults and the node fast-fails requests for
// a cooldown window instead of queueing them onto failing hardware. The
// PFS client's retry layer treats it like any other failure — back off
// and re-issue, by which time the node has usually recovered.
var ErrOverloaded = errors.New("ionode: shedding load after repeated disk faults")

// ShedPolicy tells a server when to stop trusting its disk. After
// Threshold consecutive disk-layer faults the server sheds every request
// for Cooldown of simulated time; the first request after the cooldown
// is admitted as a probe — its success closes the breaker, its failure
// re-opens it for another cooldown. The zero value disables shedding:
// requests always reach the disk, as before.
type ShedPolicy struct {
	Threshold int      // consecutive faults that trip the breaker (0 = never)
	Cooldown  sim.Time // how long to shed before probing again
}

// Enabled reports whether the policy can ever trip.
func (sp ShedPolicy) Enabled() bool { return sp.Threshold > 0 }

// breakerState is the classic three-state circuit breaker.
type breakerState int

const (
	bClosed   breakerState = iota // requests flow; consecutive faults counted
	bOpen                         // shedding until the cooldown deadline
	bHalfOpen                     // one probe in flight; everything else shed
)

// Server is one I/O node daemon.
type Server struct {
	k    *sim.Kernel
	m    *mesh.Mesh
	node int // mesh address
	fs   *ufs.FS

	dispatch sim.Time // CPU cost to decode and dispatch one request
	cpuFree  sim.Time // server CPU clock

	shed        ShedPolicy
	breaker     breakerState
	consecFault int      // disk faults since the last success (closed state)
	shedUntil   sim.Time // open-state cooldown deadline

	fair FairPolicy // per-tenant fair scheduler; zero = legacy arrival order
	fq   *fairQueue // scheduler state, nil unless fair.Enabled()

	down      bool
	downUntil sim.Time // advertised restart time while down (0 when up)
	epoch     uint64   // incarnation counter; bumped by every crash
	outages   []Outage // static outage schedule (machine crash plans); nil = use the flags
	tr        *trace.Log
	opFree    []*srvOp // pooled ReadCall bookkeeping

	// Measurements.
	Requests      int64
	BytesServed   int64
	Faults        int64 // requests that failed at the disk layer
	Shed          int64 // requests fast-failed while the breaker was open
	Throttled     int64 // requests shed by per-tenant token-bucket admission
	Probes        int64 // half-open probe requests the breaker granted
	PrefetchHints int64 // server-side cache-warming hints received
	Crashes       int64
	Restarts      int64
	Dropped       int64           // requests that vanished into a down/crashing node
	Service       stats.Histogram // request residency at this node, seconds

	// Per-tenant accounting, armed by SetFairPolicy (nil otherwise).
	// For every tenant, arrived == served + shed + faulted + dropped
	// once the run drains — the per-server half of the QoS conservation
	// oracle (dropped is nonzero only when the node crashed).
	TenantArrived []int64
	TenantServed  []int64
	TenantShed    []int64 // breaker sheds plus admission throttles
	TenantFaulted []int64
	TenantDropped []int64
	TenantBytes   []int64 // bytes served per tenant
}

// New creates a server for mesh address node over fs.
func New(k *sim.Kernel, m *mesh.Mesh, node int, fs *ufs.FS, dispatch sim.Time) *Server {
	return &Server{k: k, m: m, node: node, fs: fs, dispatch: dispatch}
}

// Outage is one scheduled [At, Until) node outage.
type Outage struct{ At, Until sim.Time }

// SetOutageSchedule fixes the node's whole crash–restart history up
// front (sorted, non-overlapping intervals). With a schedule installed,
// DownAt answers from it as a pure function of time, so clients query
// node health without reading the server's mutable state. The
// Crash/Restart events themselves still run at the scheduled times.
func (s *Server) SetOutageSchedule(list []Outage) { s.outages = list }

// Node reports the server's mesh address.
func (s *Server) Node() int { return s.node }

// FS exposes the node's local file system (the PFS layer creates the
// stripe files through it).
func (s *Server) FS() *ufs.FS { return s.fs }

// SetShedPolicy installs (or with the zero policy removes) the node's
// fault breaker.
func (s *Server) SetShedPolicy(p ShedPolicy) { s.shed = p }

// SetTrace attaches a trace log for crash/restart lifecycle events.
func (s *Server) SetTrace(tl *trace.Log) { s.tr = tl }

func (s *Server) emit(kind trace.Kind, n int64) {
	if s.tr != nil {
		s.tr.Add(trace.Event{T: s.k.Now(), Kind: kind, Node: s.node, N: n})
	}
}

// Crash takes the node down until the given restart time: every queued
// and future request is dropped without a reply, work in flight is
// discarded when it completes (the epoch moved on), and the UFS cache is
// wiped. The mesh must separately be told to drop deliveries
// (mesh.AddOutage); the machine layer does both.
func (s *Server) Crash(until sim.Time) {
	s.Crashes++
	s.down = true
	s.downUntil = until
	s.epoch++
	if s.fq != nil {
		// Queued fair-scheduler requests die with the node: no reply
		// (clients time out, as with any drop into a down node).
		s.fq.drain(func(op *srvOp) {
			s.Dropped++
			s.TenantDropped[op.tenant]++
			s.putOp(op)
		})
	}
	s.fs.CrashReset()
	s.emit(trace.NodeCrash, int64(until-s.k.Now()))
}

// Restart brings a crashed node back up, cold: CPU clock reset, breaker
// closed, cache already wiped by the crash.
func (s *Server) Restart() {
	if !s.down {
		return
	}
	s.down = false
	s.downUntil = 0
	s.cpuFree = s.k.Now()
	s.breaker = bClosed
	s.consecFault = 0
	s.shedUntil = 0
	s.Restarts++
	s.emit(trace.NodeRestart, 0)
}

// Down reports whether the node is currently crashed.
func (s *Server) Down() bool { return s.down }

// DownUntil returns the advertised restart time while down (zero when
// up). The retry layer uses it for restart-aware backoff — the real PFS
// daemons exchanged heartbeats; here the schedule is known.
func (s *Server) DownUntil() sim.Time { return s.downUntil }

// DownAt reports whether the node is down at time now, and its
// advertised restart time if so. This is the client-facing health
// query: with a static outage schedule installed it reads no mutable
// server state at all; without one it reads the runtime flags,
// bit-identical to Down/DownUntil.
func (s *Server) DownAt(now sim.Time) (down bool, until sim.Time) {
	if s.outages != nil {
		for _, o := range s.outages {
			if now >= o.At && now < o.Until {
				return true, o.Until
			}
		}
		return false, 0
	}
	return s.down, s.downUntil
}

// Shedding reports whether the breaker would shed a request arriving at
// time now (the half-open probe slot counts as not shedding).
func (s *Server) Shedding(now sim.Time) bool {
	if !s.shed.Enabled() {
		return false
	}
	switch s.breaker {
	case bOpen:
		return now < s.shedUntil
	case bHalfOpen:
		return true
	default:
		return false
	}
}

// admit runs the breaker's admission decision for one request. probe is
// true for the single half-open probe request; exactly one is granted
// per cooldown expiry.
func (s *Server) admit() (shed, probe bool) {
	if !s.shed.Enabled() {
		return false, false
	}
	switch s.breaker {
	case bOpen:
		if s.k.Now() >= s.shedUntil {
			s.breaker = bHalfOpen
			s.Probes++
			return false, true
		}
		return true, false
	case bHalfOpen:
		return true, false
	default:
		return false, false
	}
}

// probeAbort releases the half-open probe slot when the probe request
// died before producing a disk verdict (bad request, crash): the breaker
// returns to open with the cooldown already expired, so the next request
// becomes the new probe.
func (s *Server) probeAbort() {
	if s.breaker == bHalfOpen {
		s.breaker = bOpen
	}
}

// noteDisk feeds the breaker one disk-layer outcome. A probe outcome is
// decisive: success closes the breaker, failure re-opens it for a fresh
// cooldown. Non-probe outcomes count consecutive faults only while the
// breaker is closed — stragglers admitted before the trip must not
// double-trip it.
func (s *Server) noteDisk(failed, probe bool) {
	if probe {
		if failed {
			s.breaker = bOpen
			s.shedUntil = s.k.Now() + s.shed.Cooldown
		} else {
			s.breaker = bClosed
		}
		s.consecFault = 0
		return
	}
	if !failed {
		s.consecFault = 0
		return
	}
	s.consecFault++
	if s.shed.Enabled() && s.breaker == bClosed && s.consecFault >= s.shed.Threshold {
		s.breaker = bOpen
		s.shedUntil = s.k.Now() + s.shed.Cooldown
		s.consecFault = 0
	}
}

// srvOp is the pooled bookkeeping of one request (a ReadCall, WriteCall
// or Prefetch hint). An op travels the whole request chain — dispatch
// CPU, disk completion, reply delivery — as the arg of pooled-args
// events, and returns to the free list when the reply runs (or when an
// epoch check discards the request). Ops whose reply message is dropped
// by the mesh are simply garbage collected; the pool is an optimization,
// not an accounting mechanism.
type srvOp struct {
	s        *Server
	from     int
	tenant   int // owning tenant (fair scheduler; 0 outside QoS runs)
	h        ufs.Handle
	off, n   int64
	fastPath bool
	probe    bool
	queued   bool   // went through the fair queue: holds a service slot
	tag      uint64 // SCFQ finish tag (fair scheduler)
	fseq     uint64 // arrival sequence number, the dispatch tie-break
	start    sim.Time
	epoch    uint64
	err      error // carried to the error-reply delivery
	reply    func(any, error)
	replyArg any
}

func (s *Server) getOp() *srvOp {
	if n := len(s.opFree); n > 0 {
		op := s.opFree[n-1]
		s.opFree[n-1] = nil
		s.opFree = s.opFree[:n-1]
		return op
	}
	return &srvOp{s: s}
}

func (s *Server) putOp(op *srvOp) {
	op.h = ufs.Handle{}
	op.probe = false
	op.queued = false
	op.tenant = 0
	op.err = nil
	op.reply = nil
	op.replyArg = nil
	s.opFree = append(s.opFree, op)
}

// ReadCall serves a stripe read: n bytes at off of the file h refers to,
// on behalf of compute node from. The reply arrives as a callback-plus-arg
// pair, so serving the request constructs no closures: reply(arg, err)
// runs on the requester when the data has been delivered (or with an
// error for a bad or shed request). Must be called in simulation context
// at this node — normally from a mesh delivery callback. tenant
// attributes the request for the fair scheduler; it is ignored (pass 0)
// when no FairPolicy is armed.
func (s *Server) ReadCall(from, tenant int, h ufs.Handle, off, n int64, fastPath bool, reply func(any, error), arg any) {
	if s.down {
		s.Dropped++
		return
	}
	s.Requests++
	op := s.getOp()
	op.from, op.tenant, op.h, op.off, op.n, op.fastPath = from, tenant, h, off, n, fastPath
	op.reply, op.replyArg = reply, arg
	op.start = s.k.Now()
	op.epoch = s.epoch
	s.onCPUCall(srvReadCPU, op)
}

// srvReadCPU runs on the server CPU: breaker admission, then — with a
// fair policy armed — token-bucket admission and the weighted fair
// queue; without one, straight to the disk in arrival order.
func srvReadCPU(v any) {
	op := v.(*srvOp)
	s := op.s
	if s.epoch != op.epoch {
		s.Dropped++
		s.putOp(op)
		return
	}
	if s.fq != nil {
		op.tenant = s.fq.clampTenant(op.tenant)
		s.TenantArrived[op.tenant]++
	}
	shed, probe := s.admit()
	if shed {
		s.Shed++
		if s.fq != nil {
			s.TenantShed[op.tenant]++
		}
		s.replyErr(op, ErrOverloaded)
		return
	}
	op.probe = probe
	if s.fq == nil || probe {
		// The half-open probe is the breaker's health check, not tenant
		// work: it bypasses the queue so an idle-but-suspect disk gets
		// probed immediately.
		s.startDisk(op)
		return
	}
	if !s.fq.admitBytes(op.tenant, op.n, s.k.Now()) {
		s.Throttled++
		s.TenantShed[op.tenant]++
		s.emit(trace.QoSShed, op.n)
		s.replyErr(op, ErrThrottled)
		return
	}
	s.fq.push(op)
	s.pumpFair()
}

// startDisk issues op's read at the file system. A synchronous error
// (bad handle or range) releases op's service slot, so a pumping caller
// keeps dispatching.
func (s *Server) startDisk(op *srvOp) {
	opt := ufs.ReadOptions{FastPath: op.fastPath}
	if err := s.fs.ReadCall(op.h, op.off, op.n, opt, srvDiskDone, op); err != nil {
		if op.probe {
			s.probeAbort()
		}
		if op.queued && s.fq != nil {
			s.fq.inService--
		}
		if s.fq != nil {
			s.TenantFaulted[op.tenant]++
		}
		s.replyErr(op, err)
	}
}

// srvDiskDone runs when the disk (or cache) has the data at the I/O node.
func srvDiskDone(v any, ioErr error) {
	op := v.(*srvOp)
	s := op.s
	if s.epoch != op.epoch {
		// The node crashed while the disk worked. The data (or error)
		// belongs to a dead incarnation: no reply, no accounting (the
		// crash already zeroed the fair queue's in-service count).
		s.Dropped++
		if s.fq != nil {
			s.TenantDropped[op.tenant]++
		}
		s.putOp(op)
		return
	}
	s.noteDisk(ioErr != nil, op.probe)
	wasQueued := op.queued
	if s.fq != nil {
		if wasQueued {
			s.fq.inService--
		}
		if ioErr != nil {
			s.TenantFaulted[op.tenant]++
		} else {
			s.TenantServed[op.tenant]++
			s.TenantBytes[op.tenant] += op.n
		}
	}
	if ioErr != nil {
		s.Faults++
		s.replyErr(op, ioErr)
	} else {
		s.BytesServed += op.n
		s.m.SendCall(s.node, op.from, op.n, srvReplyData, op)
	}
	if wasQueued {
		s.pumpFair()
	}
}

// replyErr sends op's error reply, a small control message.
func (s *Server) replyErr(op *srvOp, err error) {
	op.err = err
	s.m.SendCall(s.node, op.from, 64, srvReplyErr, op)
}

// srvReplyErr delivers an error reply on the requester.
func srvReplyErr(v any) {
	op := v.(*srvOp)
	reply, arg, err := op.reply, op.replyArg, op.err
	op.s.putOp(op)
	reply(arg, err)
}

// srvReplyData delivers the data reply (or a write's ack) on the
// requester and closes out the service-time measurement.
func srvReplyData(v any) {
	op := v.(*srvOp)
	s := op.s
	s.Service.ObserveTime(s.k.Now() - op.start)
	reply, arg := op.reply, op.replyArg
	s.putOp(op)
	reply(arg, nil)
}

// Prefetch warms the node's buffer cache with [off, off+n) of the file h
// refers to without shipping data anywhere: the server-side prefetch
// placement. Fire-and-forget — errors on a speculative read are dropped.
func (s *Server) Prefetch(h ufs.Handle, off, n int64) {
	if s.down {
		s.Dropped++
		return
	}
	s.PrefetchHints++
	op := s.getOp()
	op.h, op.off, op.n = h, off, n
	op.epoch = s.epoch
	s.onCPUCall(srvHintCPU, op)
}

// srvHintCPU runs a hint on the server CPU. A shedding server drops it:
// there is no reply to send, hints are one-way.
func srvHintCPU(v any) {
	op := v.(*srvOp)
	s := op.s
	if s.epoch != op.epoch {
		s.Dropped++
		s.putOp(op)
		return
	}
	if s.Shedding(s.k.Now()) {
		s.Shed++
		s.putOp(op)
		return
	}
	if err := s.fs.ReadCall(op.h, op.off, op.n, ufs.ReadOptions{}, srvHintDone, op); err != nil {
		s.putOp(op)
	}
}

// srvHintDone feeds the breaker: even a speculative read's outcome is
// evidence about disk health.
func srvHintDone(v any, ioErr error) {
	op := v.(*srvOp)
	s := op.s
	if s.epoch == op.epoch {
		s.noteDisk(ioErr != nil, false)
	}
	s.putOp(op)
}

// WriteCall serves a stripe write of n bytes at off of the file h refers
// to. The data travelled with the request (the caller charged the mesh
// for it); the reply is a small acknowledgement. Writes pass breaker
// admission and the epoch guard like reads, but bypass the fair
// scheduler: no queue, no token bucket, no per-tenant counters.
func (s *Server) WriteCall(from int, h ufs.Handle, off, n int64, reply func(any, error), arg any) {
	if s.down {
		s.Dropped++
		return
	}
	s.Requests++
	op := s.getOp()
	op.from, op.h, op.off, op.n = from, h, off, n
	op.reply, op.replyArg = reply, arg
	op.start = s.k.Now()
	op.epoch = s.epoch
	s.onCPUCall(srvWriteCPU, op)
}

// srvWriteCPU runs a write on the server CPU: breaker admission, then
// straight to the disk.
func srvWriteCPU(v any) {
	op := v.(*srvOp)
	s := op.s
	if s.epoch != op.epoch {
		s.Dropped++
		s.putOp(op)
		return
	}
	shed, probe := s.admit()
	if shed {
		s.Shed++
		s.replyErr(op, ErrOverloaded)
		return
	}
	op.probe = probe
	if err := s.fs.WriteCall(op.h, op.off, op.n, srvWriteDone, op); err != nil {
		if probe {
			s.probeAbort()
		}
		s.replyErr(op, err)
	}
}

// srvWriteDone runs when the write is on disk and sends the ack.
func srvWriteDone(v any, ioErr error) {
	op := v.(*srvOp)
	s := op.s
	if s.epoch != op.epoch {
		// The node crashed while the disk worked: no reply, no
		// accounting.
		s.Dropped++
		s.putOp(op)
		return
	}
	s.noteDisk(ioErr != nil, op.probe)
	if ioErr != nil {
		s.Faults++
		s.replyErr(op, ioErr)
		return
	}
	s.BytesServed += op.n
	s.m.SendCall(s.node, op.from, 64, srvReplyData, op)
}

// onCPUCall serializes fn(arg) behind the server's dispatch CPU clock.
func (s *Server) onCPUCall(fn func(any), arg any) {
	start := s.k.Now()
	if s.cpuFree > start {
		start = s.cpuFree
	}
	s.cpuFree = start + s.dispatch
	s.k.AtCall(s.cpuFree, fn, arg)
}
