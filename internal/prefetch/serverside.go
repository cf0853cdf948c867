package prefetch

import (
	"repro/internal/pfs"
	"repro/internal/sim"
)

// ServerSide is the alternative prefetch placement: instead of pulling
// the anticipated record all the way into compute-node memory (the
// paper's prototype), it sends cache-warming hints so the I/O nodes
// stage the data in their buffer caches. The user read still crosses the
// mesh, but finds warm caches instead of cold disks. Requires a mount
// with buffering enabled (pfs.Config.FastPath = false); under Fast Path
// the hints are wasted work, since reads bypass the caches.
type ServerSide struct {
	k   *sim.Kernel
	cfg ServerSideConfig

	// Measurements.
	Hints int64 // hint batches issued (one per predicted record)
	Reads int64 // user reads served
}

// ServerSideConfig tunes the hinting policy.
type ServerSideConfig struct {
	Depth         int      // records hinted ahead
	IssueOverhead sim.Time // user-thread CPU per hint batch
}

// DefaultServerSideConfig hints one record ahead, like the prototype.
func DefaultServerSideConfig() ServerSideConfig {
	return ServerSideConfig{Depth: 1, IssueOverhead: 150 * sim.Microsecond}
}

var _ pfs.PrefetchService = (*ServerSide)(nil)

// NewServerSide returns a server-side placement service on kernel k.
func NewServerSide(k *sim.Kernel, cfg ServerSideConfig) *ServerSide {
	if cfg.Depth <= 0 {
		panic("prefetch: server-side depth must be positive")
	}
	return &ServerSide{k: k, cfg: cfg}
}

// Attach installs the service on an open file.
func (ss *ServerSide) Attach(f *pfs.File) { f.SetPrefetcher(ss) }

// hintOp is the state of one server-side ServeReadCall.
type hintOp struct {
	ss   *ServerSide
	f    *pfs.File
	n    int64
	next int64 // the record to hint next
	d    int   // records hinted so far
	done func(any, error)
	arg  any
}

// ServeReadCall performs the read normally (warm caches make it fast),
// hints the predicted next record(s), and calls done(arg, err).
func (ss *ServerSide) ServeReadCall(f *pfs.File, off, n int64, done func(any, error), arg any) {
	ss.Reads++
	f.StripeReadCall(off, n, hintRead, &hintOp{ss: ss, f: f, n: n, next: off, done: done, arg: arg})
}

func hintRead(a any, err error) {
	op := a.(*hintOp)
	if err == nil {
		op.next = op.f.NextRecordOffset(op.next, op.n)
	}
	op.hintNext(err)
}

// hintNext books the user-thread cost of the next hint; the read is over
// once Depth records are hinted, the prediction runs out, or err is set.
func (op *hintOp) hintNext(err error) {
	ss := op.ss
	if err == nil && op.d < ss.cfg.Depth && op.next >= 0 && op.next < op.f.Size() {
		ss.k.AfterCall(ss.cfg.IssueOverhead, hintPost, op)
		return
	}
	op.done(op.arg, err)
}

func hintPost(a any) {
	op := a.(*hintOp)
	take := min(op.n, op.f.Size()-op.next)
	err := op.f.HintAt(op.next, take)
	if err == nil {
		op.ss.Hints++
		op.d++
		op.next = op.f.NextRecordOffset(op.next, take)
	}
	op.hintNext(err)
}

// OnClose has nothing to free: the state lives in the I/O node caches.
func (ss *ServerSide) OnClose(*pfs.File) {}
