package pfs

import (
	"fmt"
	"io"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// PrefetchService is the hook the prefetching prototype plugs into. When
// installed on a File, every blocking read is routed through ServeRead
// instead of the plain Fast Path, exactly where the paper modified the
// PFS client. Implementations live in package prefetch; pfs itself has no
// prefetching policy.
type PrefetchService interface {
	// ServeRead satisfies the user read at [off, off+n): from the
	// prefetch buffer when possible (paying the buffer-to-user copy),
	// waiting on an in-flight prefetch when one covers the range, or by
	// performing the read directly otherwise. It blocks p until the data
	// is in the user's buffer and then issues any follow-on readahead.
	ServeRead(p *sim.Proc, f *File, off, n int64) error
	// OnClose releases the file's prefetch buffers.
	OnClose(f *File)
}

// File is one compute node's open instance of a PFS file.
type File struct {
	fsys  *FileSystem
	meta  *fileMeta
	node  int // compute node mesh address
	mode  Mode
	group *OpenGroup
	rank  int

	tenant int // owning tenant for QoS accounting (0 outside QoS runs)

	offset    int64 // individual file pointer (M_ASYNC)
	rounds    int64 // M_RECORD: operations completed by this node
	lastTotal int64 // M_SYNC: size of the last collective round
	art       *art
	pf        PrefetchService
	closed    bool
	bcastSem  *sim.Semaphore // M_GLOBAL delivery credits for non-root parties

	// Measurements.
	ReadCalls      int64
	BytesRead      int64
	IOBytes        int64           // bytes successfully pulled over the stripe fast path
	DeliveredBytes int64           // bytes recorded as delivered to the user
	ReadTime       stats.Histogram // blocking read call latency, seconds

	deliveryHash  uint64 // running FoldDelivery digest (see delivery.go)
	deliveryLog   []Delivery
	logDeliveries bool
}

// Name returns the file's PFS path.
func (f *File) Name() string { return f.meta.name }

// Size returns the file's length in bytes.
func (f *File) Size() int64 { return f.meta.size }

// Mode returns the I/O mode the file was opened in.
func (f *File) Mode() Mode { return f.mode }

// Node returns the compute node this instance belongs to.
func (f *File) Node() int { return f.node }

// Rank returns this instance's rank within its open group (0 when no
// group).
func (f *File) Rank() int { return f.rank }

// Parties returns the open group size (1 when no group).
func (f *File) Parties() int {
	if f.group == nil {
		return 1
	}
	return f.group.parties
}

// Offset returns the individual file pointer.
func (f *File) Offset() int64 { return f.offset }

// StripeUnit returns the file's stripe unit size.
func (f *File) StripeUnit() int64 { return f.meta.su }

// StripeGroup returns the size of the file's stripe group.
func (f *File) StripeGroup() int { return len(f.meta.group) }

// SetPrefetcher installs (or, with nil, removes) the prefetch service for
// this open instance.
func (f *File) SetPrefetcher(pf PrefetchService) { f.pf = pf }

// SetTenant attributes this open instance's I/O to a tenant: every
// stripe piece it issues (including prefetches on its behalf) carries
// the id to the I/O-node fair scheduler and the per-tenant accounting.
func (f *File) SetTenant(t int) { f.tenant = t }

// Tenant returns the owning tenant id.
func (f *File) Tenant() int { return f.tenant }

// SetMode changes the I/O mode mid-file, as the PFS's setiomode allowed.
// Switching into a collective mode requires the instance to have been
// opened with a group. The M_RECORD round counter restarts, so a mode
// round-trip rereads records from the shared pointer's current position.
func (f *File) SetMode(mode Mode) error {
	if f.closed {
		return ErrClosed
	}
	if !mode.Valid() {
		return fmt.Errorf("pfs: invalid mode %d", int(mode))
	}
	if mode.Collective() && f.group == nil {
		return fmt.Errorf("%w (%v)", ErrNeedGroup, mode)
	}
	f.mode = mode
	f.rounds = 0
	return nil
}

// SeekTo sets the individual file pointer (meaningful for M_ASYNC).
func (f *File) SeekTo(off int64) error {
	if f.closed {
		return ErrClosed
	}
	if off < 0 || off > f.meta.size {
		return fmt.Errorf("pfs: seek to %d outside [0,%d]", off, f.meta.size)
	}
	f.offset = off
	return nil
}

// Close releases the open instance. Prefetch buffers attached to it are
// freed (their contents discarded), matching the prototype's behaviour at
// close time.
func (f *File) Close() error {
	if f.closed {
		return ErrClosed
	}
	f.closed = true
	f.meta.opens--
	if f.pf != nil {
		f.pf.OnClose(f)
	}
	return nil
}

// lockToken acquires the shared-file pointer token, charging any
// queueing delay behind another holder to the mount's contention
// counters. The measurement only reads the clock around the Lock — it
// schedules no events — so fingerprints of existing scenarios are
// unchanged.
func (f *File) lockToken(p *sim.Proc) {
	fsys := f.fsys
	t0 := p.Now()
	f.meta.token.Lock(p)
	if w := p.Now() - t0; w > 0 {
		fsys.TokenWaits++
		fsys.TokenWaitTime += w
	}
	fsys.TokenOps++
}

// Read performs one blocking read of n bytes under the file's I/O mode,
// advancing the appropriate file pointer(s). It returns the bytes read;
// at end of file it returns 0, io.EOF. Collective modes require all
// parties of the open group to call Read for the operation to complete.
func (f *File) Read(p *sim.Proc, n int64) (int64, error) {
	if f.closed {
		return 0, ErrClosed
	}
	if n <= 0 {
		return 0, fmt.Errorf("pfs: read size %d must be positive", n)
	}
	start := p.Now()
	f.fsys.emit(trace.ReadStart, f.node, f.meta.name, f.offset, n)
	defer func() { f.fsys.emit(trace.ReadEnd, f.node, f.meta.name, f.offset, n) }()
	p.Sleep(f.fsys.cfg.ClientCall)

	var off int64
	var err error
	switch f.mode {
	case MAsync:
		off = f.offset
		n = clamp(off, n, f.meta.size)
		if n == 0 {
			return 0, io.EOF
		}
		f.offset += n
		err = f.performRead(p, off, n)

	case MUnix:
		// Token held across the entire I/O: full serialization.
		f.lockToken(p)
		p.Sleep(f.fsys.cfg.TokenClaim)
		off = f.meta.sharedOff
		n = clamp(off, n, f.meta.size)
		if n == 0 {
			f.meta.token.Unlock()
			return 0, io.EOF
		}
		f.meta.sharedOff += n
		err = f.performRead(p, off, n)
		f.meta.token.Unlock()

	case MLog:
		// Token held only while claiming the region; I/O overlaps.
		f.lockToken(p)
		p.Sleep(f.fsys.cfg.TokenClaim)
		off = f.meta.sharedOff
		n = clamp(off, n, f.meta.size)
		f.meta.sharedOff += n
		f.meta.token.Unlock()
		if n == 0 {
			return 0, io.EOF
		}
		err = f.performRead(p, off, n)

	case MRecord:
		return f.recordRead(p, n, start)

	case MSync, MGlobal:
		return f.collectiveRead(p, n, start)

	default:
		return 0, fmt.Errorf("pfs: invalid mode %d", int(f.mode))
	}
	if err != nil {
		return 0, err
	}
	f.ReadCalls++
	f.BytesRead += n
	f.ReadTime.ObserveTime(p.Now() - start)
	return n, nil
}

// recordRead implements M_RECORD. The file is a sequence of fixed-size
// records in node order, so a node's offset follows from its own
// operation count and rank alone — no token and no inter-node
// synchronization per operation, which is why the mode is fast and why
// the paper targets it. All parties must use the same record size; the
// first operation on the file fixes it.
func (f *File) recordRead(p *sim.Proc, n int64, start sim.Time) (int64, error) {
	if f.meta.recordSize == 0 {
		f.meta.recordSize = n
	} else if f.meta.recordSize != n {
		return 0, ErrBadSize
	}
	off := (f.rounds*int64(f.Parties()) + int64(f.rank)) * n
	if off >= f.meta.size {
		return 0, io.EOF
	}
	f.rounds++
	n = clamp(off, n, f.meta.size)
	// The pointer bookkeeping the OS does around a record operation.
	p.Sleep(f.fsys.cfg.CollectSync)
	if err := f.performRead(p, off, n); err != nil {
		return 0, err
	}
	f.ReadCalls++
	f.BytesRead += n
	f.ReadTime.ObserveTime(p.Now() - start)
	return n, nil
}

// collectiveRead implements the M_SYNC / M_GLOBAL paths.
func (f *File) collectiveRead(p *sim.Proc, n int64, start sim.Time) (int64, error) {
	// All parties hit EOF in the same round: the shared pointer at round
	// start is identical on every node, so no one blocks on the barrier.
	if f.meta.sharedOff >= f.meta.size {
		return 0, io.EOF
	}
	off, uniform := f.group.round(p, f.meta, f.rank, n, f.mode == MGlobal)
	if f.mode == MGlobal && !uniform {
		return 0, ErrBadSize
	}
	f.lastTotal = f.group.total
	n = clamp(off, n, f.meta.size)
	p.Sleep(f.fsys.cfg.CollectSync)
	if f.mode == MSync {
		// Requests are processed in node order: later ranks' claims
		// stagger behind earlier ones.
		p.Sleep(sim.Time(f.rank) * f.fsys.cfg.SyncStagger)
	}
	if n == 0 {
		// A partial final round can leave high ranks past EOF; they
		// participated in the round but transfer nothing.
		return 0, io.EOF
	}

	var err error
	if f.mode == MGlobal {
		err = f.globalRead(p, off, n)
	} else {
		err = f.performRead(p, off, n)
	}
	if err != nil {
		return 0, err
	}
	f.ReadCalls++
	f.BytesRead += n
	f.ReadTime.ObserveTime(p.Now() - start)
	return n, nil
}

// globalRead has rank 0 perform the I/O and broadcast the data to the
// other parties along a binomial tree: every party that holds the data
// forwards it, so the broadcast finishes in ⌈log2 P⌉ message steps
// instead of serializing P-1 sends through the root's injection port.
// Each delivery posts a credit on the receiver's semaphore, so arrival
// order and wait order cannot race.
func (f *File) globalRead(p *sim.Proc, off, n int64) error {
	if f.rank == 0 {
		// Routed through performRead so a prefetcher on the root
		// instance can serve (and read ahead for) the broadcast source.
		if err := f.performRead(p, off, n); err != nil {
			return err
		}
		f.forward(n)
		return nil
	}
	f.bcast().Acquire(p, 1)
	// The broadcast payload is this rank's copy of [off, off+n).
	f.RecordDelivery(off, n)
	return nil
}

// forward ships the broadcast payload to this rank's binomial-tree
// children; each child credits its receive semaphore and forwards on.
func (f *File) forward(n int64) {
	members := f.group.members
	parties := f.group.parties
	// Rank r received at the step where the highest set bit of r was
	// added; its children are r + 2^k for higher k.
	k := 0
	for 1<<k <= f.rank {
		k++
	}
	for ; f.rank+(1<<k) < parties; k++ {
		child := members[f.rank+(1<<k)]
		f.fsys.m.Send(f.node, child.node, n, func() {
			child.bcast().Release(1)
			child.forward(n)
		})
	}
}

// bcast lazily creates the broadcast credit semaphore for an M_GLOBAL
// party.
func (f *File) bcast() *sim.Semaphore {
	if f.bcastSem == nil {
		f.bcastSem = sim.NewSemaphore(f.fsys.k, 0)
	}
	return f.bcastSem
}

// performRead routes a positioned read through the prefetcher when one is
// installed, else straight to the striped Fast Path. The prefetch service
// owns delivery accounting for the ranges it serves (it alone knows which
// buffer a hit copied from); the direct path records here.
func (f *File) performRead(p *sim.Proc, off, n int64) error {
	if f.pf != nil {
		return f.pf.ServeRead(p, f, off, n)
	}
	if err := f.BlockingIO(p, off, n); err != nil {
		return err
	}
	f.RecordDelivery(off, n)
	return nil
}

// BlockingIO performs the raw striped read of [off, off+n), blocking p
// until the data has arrived in the caller's buffer. No file pointers are
// touched and no prefetcher is consulted: this is the primitive the modes,
// the ART, and the prefetcher all bottom out in.
func (f *File) BlockingIO(p *sim.Proc, off, n int64) error {
	if off < 0 || n <= 0 || off+n > f.meta.size {
		return fmt.Errorf("pfs: read [%d,+%d) outside %s (%d bytes)", off, n, f.meta.name, f.meta.size)
	}
	sig := f.fsys.getSig()
	f.fsys.stripeIOInto(sig, f.node, f.tenant, f.meta, off, n, false)
	err := sig.Wait(p)
	f.fsys.putSig(sig)
	if err != nil {
		return err
	}
	f.IOBytes += n
	return nil
}

// ReadAt performs one blocking positioned read of n bytes at off — the
// open-loop QoS workload's primitive: no file pointer is shared or
// advanced, so thousands of tenants can issue independent reads on
// their own open instances. The call pays the client syscall cost,
// routes through the prefetcher when one is installed, and accounts
// like Read (ReadCalls/BytesRead/ReadTime, trace read-start/read-end).
func (f *File) ReadAt(p *sim.Proc, off, n int64) (int64, error) {
	if f.closed {
		return 0, ErrClosed
	}
	if off < 0 || n <= 0 || off+n > f.meta.size {
		return 0, fmt.Errorf("pfs: read [%d,+%d) outside %s (%d bytes)", off, n, f.meta.name, f.meta.size)
	}
	start := p.Now()
	f.fsys.emit(trace.ReadStart, f.node, f.meta.name, off, n)
	defer func() { f.fsys.emit(trace.ReadEnd, f.node, f.meta.name, off, n) }()
	p.Sleep(f.fsys.cfg.ClientCall)
	if err := f.performRead(p, off, n); err != nil {
		return 0, err
	}
	f.ReadCalls++
	f.BytesRead += n
	f.ReadTime.ObserveTime(p.Now() - start)
	return n, nil
}

// readAtOp is the pooled state of one ReadAtCall: what ReadAt keeps on
// its process's stack while the process sleeps and waits.
type readAtOp struct {
	f      *File
	off, n int64
	start  sim.Time
	sig    *sim.Signal
	done   func(any, int64, error)
	arg    any
}

func (fsys *FileSystem) getReadAtOp() *readAtOp {
	if n := len(fsys.readAtFree); n > 0 {
		op := fsys.readAtFree[n-1]
		fsys.readAtFree[n-1] = nil
		fsys.readAtFree = fsys.readAtFree[:n-1]
		return op
	}
	return &readAtOp{}
}

func (fsys *FileSystem) putReadAtOp(op *readAtOp) {
	*op = readAtOp{}
	fsys.readAtFree = append(fsys.readAtFree, op)
}

// ReadAtCall is ReadAt without a process: done(arg, n, err) runs where
// ReadAt would return, and the call books the same events at the same
// instants in the same order as ReadAt on a process does — the client
// call's sleep, then one zero-delay wake when the stripe signal fires
// (none when it fired before the wait). An invalid call (closed file,
// range outside the file) calls done before returning, as ReadAt returns
// before its first sleep. The prefetcher's ServeRead blocks a process,
// so ReadAtCall panics on a file with one installed.
func (f *File) ReadAtCall(off, n int64, done func(any, int64, error), arg any) {
	if f.pf != nil {
		panic(fmt.Sprintf("pfs: ReadAtCall on %s, which has a prefetcher; use ReadAt", f.meta.name))
	}
	if f.closed {
		done(arg, 0, ErrClosed)
		return
	}
	if off < 0 || n <= 0 || off+n > f.meta.size {
		done(arg, 0, fmt.Errorf("pfs: read [%d,+%d) outside %s (%d bytes)", off, n, f.meta.name, f.meta.size))
		return
	}
	fsys := f.fsys
	op := fsys.getReadAtOp()
	op.f, op.off, op.n, op.start, op.done, op.arg = f, off, n, fsys.k.Now(), done, arg
	fsys.emit(trace.ReadStart, f.node, f.meta.name, off, n)
	fsys.k.AfterCall(fsys.cfg.ClientCall, readAtIssue, op)
}

// readAtIssue runs when the client call's cost has elapsed: issue the
// striped read, and finish now if it settled synchronously (Wait would
// not have blocked), else when its signal fires.
func readAtIssue(a any) {
	op := a.(*readAtOp)
	f := op.f
	op.sig = f.fsys.getSig()
	f.fsys.stripeIOInto(op.sig, f.node, f.tenant, f.meta, op.off, op.n, false)
	if op.sig.Fired() {
		op.finish(op.sig.Err())
		return
	}
	op.sig.OnFireCall(readAtFired, op)
}

func readAtFired(a any, err error) { a.(*readAtOp).finish(err) }

// finish is the tail of ReadAt after its wait: the counters on success,
// then the read-end event on either path, then the caller's done.
func (op *readAtOp) finish(err error) {
	f, fsys := op.f, op.f.fsys
	fsys.putSig(op.sig)
	off, n := op.off, op.n
	got := int64(0)
	if err == nil {
		f.IOBytes += n
		f.RecordDelivery(off, n)
		f.ReadCalls++
		f.BytesRead += n
		f.ReadTime.ObserveTime(fsys.k.Now() - op.start)
		got = n
	}
	fsys.emit(trace.ReadEnd, f.node, f.meta.name, off, n)
	done, arg := op.done, op.arg
	fsys.putReadAtOp(op)
	done(arg, got, err)
}

// HintAt asks the I/O nodes holding [off, off+n) to pull those stripe
// pieces into their buffer caches — the server-side prefetch placement.
// Only the small hint messages travel; no data returns, no completion is
// tracked, and nothing happens unless the mount runs with buffering
// enabled (FastPath off), since Fast Path reads bypass the cache anyway.
func (f *File) HintAt(off, n int64) error {
	if f.closed {
		return ErrClosed
	}
	if off < 0 || n <= 0 || off+n > f.meta.size {
		return fmt.Errorf("pfs: hint [%d,+%d) outside %s (%d bytes)", off, n, f.meta.name, f.meta.size)
	}
	for _, pc := range decluster(off, n, f.meta.su, len(f.meta.group)) {
		pc := pc
		srv := f.fsys.servers[f.meta.group[pc.server]]
		h := f.meta.handles[pc.server]
		f.fsys.m.Send(f.node, srv.Node(), f.fsys.cfg.RequestBytes, func() {
			srv.Prefetch(h, pc.localOff, pc.n)
		})
	}
	return nil
}

// Write performs a blocking positioned write (workloads use it to build
// input files in simulated time; the paper's evaluation reads only).
func (f *File) Write(p *sim.Proc, off, n int64) error {
	if f.closed {
		return ErrClosed
	}
	if off < 0 || n <= 0 || off+n > f.meta.size {
		return fmt.Errorf("pfs: write [%d,+%d) outside %s (%d bytes)", off, n, f.meta.name, f.meta.size)
	}
	p.Sleep(f.fsys.cfg.ClientCall)
	sig := f.fsys.getSig()
	f.fsys.stripeIOInto(sig, f.node, f.tenant, f.meta, off, n, true)
	err := sig.Wait(p)
	f.fsys.putSig(sig)
	return err
}

// NextRecordOffset predicts where this node's next read in the current
// mode will land, given that the read at [off, off+n) just completed. A
// negative result means the mode gives no per-node prediction (shared
// unordered pointers: M_UNIX, M_LOG). This is the "details about when and
// where to prefetch derived from the read request" of the paper; the
// M_SYNC and M_GLOBAL predictions extend the prototype to the other
// modes, the paper's stated future work.
func (f *File) NextRecordOffset(off, n int64) int64 {
	switch f.mode {
	case MAsync:
		return off + n
	case MRecord:
		return off + int64(f.Parties())*n
	case MGlobal:
		// Every party reads the same region; the next one follows it.
		return off + n
	case MSync:
		// Heuristic: if the coming round repeats this round's sizes, this
		// node's region starts one round-total further on.
		if f.lastTotal <= 0 {
			return -1
		}
		return off + f.lastTotal
	default:
		return -1
	}
}

// clamp limits a read of n at off to the file size, never negative.
func clamp(off, n, size int64) int64 {
	if off >= size {
		return 0
	}
	if off+n > size {
		return size - off
	}
	return n
}
