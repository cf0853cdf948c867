package pfs

import (
	"fmt"
	"io"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// PrefetchService is the hook the prefetching prototype plugs into. When
// installed on a File, the data step of every read — ReadCall in each
// mode and ReadAtCall — is routed through ServeReadCall instead of the
// plain Fast Path, exactly where the paper modified the PFS client.
// Implementations live in package prefetch; pfs itself has no
// prefetching policy.
type PrefetchService interface {
	// ServeReadCall satisfies the user read at [off, off+n): from the
	// prefetch buffer when possible (paying the buffer-to-user copy),
	// waiting on an in-flight prefetch when one covers the range, or by
	// performing the read directly otherwise (StripeReadCall). It records
	// a hit's delivery, issues any follow-on readahead, and then calls
	// done(arg, err).
	ServeReadCall(f *File, off, n int64, done func(any, error), arg any)
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
	reader    *sim.Proc      // the process blocked in Read
	readGot   int64          // the count Read returns

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

// Node returns the compute node this instance belongs to.
func (f *File) Node() int { return f.node }

// Parties returns the open group size (1 when no group).
func (f *File) Parties() int {
	if f.group == nil {
		return 1
	}
	return f.group.parties
}

// SetPrefetcher installs (or, with nil, removes) the prefetch service for
// this open instance.
func (f *File) SetPrefetcher(pf PrefetchService) { f.pf = pf }

// SetTenant attributes this open instance's I/O to a tenant: every
// stripe piece it issues (including prefetches on its behalf) carries
// the id to the I/O-node fair scheduler and the per-tenant accounting.
func (f *File) SetTenant(t int) { f.tenant = t }

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

// Read performs one blocking read of n bytes under the file's I/O mode,
// advancing the appropriate file pointer(s). It returns the bytes read;
// at end of file it returns 0, io.EOF. Collective modes require all
// parties of the open group to call Read for the operation to complete.
// It is ReadCall for a process: it parks p until the read returns. An
// open instance holds one parked reader, so it runs one Read at a time.
func (f *File) Read(p *sim.Proc, n int64) (int64, error) {
	f.reader = p
	f.ReadCall(n, readResume, f)
	err := p.Park()
	return f.readGot, err
}

// readResume hands the read's count to Read and resumes the reader.
func readResume(a any, n int64, err error) {
	f := a.(*File)
	f.readGot = n
	sim.Resume(f.reader, err)
}

// ReadCall performs one read of n bytes under the file's I/O mode,
// advancing the appropriate file pointer(s), and calls done(arg, got,
// err) when it returns; at end of file got is 0 and err io.EOF. A
// closed file or a non-positive n calls done before returning.
//
// Each step is a pooled callback: the client call's cost; the mode's
// pointer step (M_UNIX and M_LOG claim a region under the shared-pointer
// token, M_RECORD derives its record from the operation count, M_SYNC
// and M_GLOBAL run a collective round); then the data step, through the
// prefetch service when one is installed. The read-start and read-end
// events carry the individual file pointer.
func (f *File) ReadCall(n int64, done func(any, int64, error), arg any) {
	if f.closed {
		done(arg, 0, ErrClosed)
		return
	}
	if n <= 0 {
		done(arg, 0, fmt.Errorf("pfs: read size %d must be positive", n))
		return
	}
	f.startRead(f.offset, n, done, arg, readPointer).ptr = true
}

// startRead takes a pooled op for a read of n bytes at off that reports
// to done, emits its read-start event, and books issue once the client
// call's cost has elapsed.
func (f *File) startRead(off, n int64, done func(any, int64, error), arg any, issue func(any)) *readOp {
	fsys := f.fsys
	op := fsys.getReadOp()
	op.f, op.off, op.n, op.endN = f, off, n, n
	op.start, op.doneAt, op.arg = fsys.k.Now(), done, arg
	fsys.emit(trace.ReadStart, f.node, f.meta.name, off, n)
	fsys.k.AfterCall(fsys.cfg.ClientCall, issue, op)
	return op
}

// readPointer is the mode's pointer step.
func readPointer(a any) {
	op := a.(*readOp)
	f := op.f
	switch f.mode {
	case MAsync:
		op.off = f.offset
		op.n = clamp(op.off, op.n, f.meta.size)
		op.endN = op.n
		f.offset += op.n
		readIssue(op)

	case MUnix, MLog:
		op.lockAt = f.fsys.k.Now()
		f.meta.token.LockCall(tokenLocked, op)

	case MRecord:
		// Fixed-size records in node order: the offset follows from the
		// operation count and rank alone — no token and no inter-node
		// synchronization, which is why the mode is fast and why the
		// paper targets it. The first operation fixes the record size.
		if f.meta.recordSize == 0 {
			f.meta.recordSize = op.n
		} else if f.meta.recordSize != op.n {
			op.end(ErrBadSize)
			return
		}
		off := (f.rounds*int64(f.Parties()) + int64(f.rank)) * op.n
		if off >= f.meta.size {
			op.end(io.EOF)
			return
		}
		f.rounds++
		op.off, op.n = off, clamp(off, op.n, f.meta.size)
		// The pointer bookkeeping the OS does around a record operation.
		f.fsys.k.AfterCall(f.fsys.cfg.CollectSync, readIssue, op)

	case MSync, MGlobal:
		// Every party sees the same shared pointer at round start, so all
		// hit EOF in the same round and no one waits on the barrier.
		if f.meta.sharedOff >= f.meta.size {
			op.end(io.EOF)
			return
		}
		f.group.round(f.rank, op.n, roundDone, op)

	default:
		op.end(fmt.Errorf("pfs: invalid mode %d", int(f.mode)))
	}
}

// tokenLocked runs once the read holds the shared-pointer token: it
// charges any queueing behind another holder to the mount's contention
// counters (which only read the clock), then pays the token claim.
func tokenLocked(a any, _ error) {
	op := a.(*readOp)
	fsys := op.f.fsys
	if w := fsys.k.Now() - op.lockAt; w > 0 {
		fsys.TokenWaits++
		fsys.TokenWaitTime += w
	}
	fsys.TokenOps++
	fsys.k.AfterCall(fsys.cfg.TokenClaim, tokenClaimed, op)
}

// tokenClaimed claims the read's region at the shared pointer. M_UNIX
// holds the token across the entire I/O (full serialization); M_LOG
// holds it only across the claim, so the I/O overlaps.
func tokenClaimed(a any) {
	op := a.(*readOp)
	f, meta := op.f, op.f.meta
	op.off = meta.sharedOff
	op.n = clamp(op.off, op.n, meta.size)
	op.endN = op.n
	meta.sharedOff += op.n
	if f.mode == MUnix && op.n > 0 {
		f.readCall(op.off, op.n, unixRead, op)
		return
	}
	meta.token.Unlock()
	readIssue(op)
}

// unixRead ends an M_UNIX read's data step: the token goes first.
func unixRead(a any, err error) {
	a.(*readOp).f.meta.token.Unlock()
	readData(a, err)
}

// roundDone runs once every party has joined the collective round: it
// takes the read's region, pays the collective synchronization, and for
// M_SYNC the rank stagger.
func roundDone(a any, _ error) {
	op := a.(*readOp)
	f := op.f
	off, uniform := f.group.claim(f.meta, f.rank, f.mode == MGlobal)
	if f.mode == MGlobal && !uniform {
		op.end(ErrBadSize)
		return
	}
	f.lastTotal = f.group.total
	op.off, op.n = off, clamp(off, op.n, f.meta.size)
	f.fsys.k.AfterCall(f.fsys.cfg.CollectSync, collectSynced, op)
}

// collectSynced staggers an M_SYNC read behind the lower ranks': requests
// are processed in node order. Rank 0's stagger is zero and still an
// event.
func collectSynced(a any) {
	op := a.(*readOp)
	f := op.f
	if f.mode == MSync {
		f.fsys.k.AfterCall(sim.Time(f.rank)*f.fsys.cfg.SyncStagger, readIssue, op)
		return
	}
	readIssue(op)
}

// readIssue is a pointer read's data step. An M_GLOBAL read has rank 0
// perform the I/O and broadcast the data to the other parties along a
// binomial tree: every party that holds the data forwards it, so the
// broadcast finishes in ⌈log2 P⌉ message steps instead of serializing
// P-1 sends through the root's injection port. Each delivery posts a
// credit on the receiver's semaphore, so arrival order and wait order
// cannot race.
func readIssue(a any) {
	op := a.(*readOp)
	f := op.f
	switch {
	case op.n == 0:
		// At end of file. A partial final collective round can leave high
		// ranks here: they joined the round but transfer nothing.
		op.end(io.EOF)
	case f.mode != MGlobal:
		f.readCall(op.off, op.n, readData, op)
	case f.rank == 0:
		// Through readCall, so a prefetcher on the root instance can
		// serve (and read ahead for) the broadcast source.
		f.readCall(op.off, op.n, bcastRoot, op)
	default:
		f.bcast().AcquireCall(1, bcastRecv, op)
	}
}

// bcastRoot forwards the root's data down the broadcast tree once its
// read succeeded.
func bcastRoot(a any, err error) {
	if err == nil {
		op := a.(*readOp)
		op.f.forward(op.n)
	}
	readData(a, err)
}

// bcastRecv runs when the broadcast payload, this rank's copy of the
// region, has arrived.
func bcastRecv(a any, _ error) {
	op := a.(*readOp)
	op.f.RecordDelivery(op.off, op.n)
	readData(op, nil)
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

// readCall is the data step of every read of [off, off+n): through the
// prefetch service when one is installed, else a direct stripe read.
func (f *File) readCall(off, n int64, done func(any, error), arg any) {
	if f.pf != nil {
		f.pf.ServeReadCall(f, off, n, done, arg)
		return
	}
	f.StripeReadCall(off, n, done, arg)
}

// readOp is the pooled state of one stripe read, ReadAtCall or ReadCall.
type readOp struct {
	f      *File
	off, n int64       // the data step's range
	sig    *sim.Signal // the stripe read's completion
	start  sim.Time    // when the ReadAtCall or ReadCall was made
	lockAt sim.Time    // when the read asked for the shared-pointer token
	endN   int64       // the size the read-end event carries
	ptr    bool        // a ReadCall: the trace events carry the file pointer
	done   func(any, error)
	doneAt func(any, int64, error) // the ReadAtCall's or ReadCall's caller
	arg    any
}

func (fsys *FileSystem) getReadOp() *readOp {
	if n := len(fsys.readFree); n > 0 {
		op := fsys.readFree[n-1]
		fsys.readFree[n-1] = nil
		fsys.readFree = fsys.readFree[:n-1]
		return op
	}
	return &readOp{}
}

func (fsys *FileSystem) putReadOp(op *readOp) {
	*op = readOp{}
	fsys.readFree = append(fsys.readFree, op)
}

// StripeReadCall performs the raw striped read of [off, off+n) and calls
// done(arg, err) once the data has arrived in the caller's buffer (before
// returning when the read settles at once); a successful read records
// its delivery. No file pointers are touched and no prefetcher is
// consulted: this is the direct read the modes and the prefetcher
// bottom out in.
func (f *File) StripeReadCall(off, n int64, done func(any, error), arg any) {
	if off < 0 || n <= 0 || off+n > f.meta.size {
		done(arg, fmt.Errorf("pfs: read [%d,+%d) outside %s (%d bytes)", off, n, f.meta.name, f.meta.size))
		return
	}
	fsys := f.fsys
	op := fsys.getReadOp()
	op.f, op.off, op.n, op.done, op.arg = f, off, n, done, arg
	op.sig = fsys.getSig()
	fsys.stripeIOInto(op.sig, f.node, f.tenant, f.meta, off, n, false)
	op.sig.WaitCall(stripeReadDone, op)
}

// stripeReadDone counts and records a successful read's bytes, and hands
// the outcome to the caller.
func stripeReadDone(a any, err error) {
	op := a.(*readOp)
	f, done, arg := op.f, op.done, op.arg
	f.fsys.putSig(op.sig)
	if err == nil {
		f.IOBytes += op.n
		f.RecordDelivery(op.off, op.n)
	}
	f.fsys.putReadOp(op)
	done(arg, err)
}

// ReadAtCall performs one positioned read of n bytes at off and calls
// done(arg, n, err) when it returns — the open-loop QoS workload's
// primitive: no file pointer is shared or advanced, so thousands of
// tenants can issue independent reads on their own open instances. The
// call pays the client syscall cost, routes through the prefetcher when
// one is installed, and accounts like Read (ReadCalls/BytesRead/ReadTime,
// trace read-start/read-end). An invalid call (closed file, range
// outside the file) calls done before returning.
func (f *File) ReadAtCall(off, n int64, done func(any, int64, error), arg any) {
	if f.closed {
		done(arg, 0, ErrClosed)
		return
	}
	if off < 0 || n <= 0 || off+n > f.meta.size {
		done(arg, 0, fmt.Errorf("pfs: read [%d,+%d) outside %s (%d bytes)", off, n, f.meta.name, f.meta.size))
		return
	}
	f.startRead(off, n, done, arg, readAtIssue)
}

// readAtIssue runs when the client call's cost has elapsed.
func readAtIssue(a any) {
	op := a.(*readOp)
	op.f.readCall(op.off, op.n, readData, op)
}

// readData ends a read's data step: the counters on success, then the
// read's end.
func readData(a any, err error) {
	op := a.(*readOp)
	if f := op.f; err == nil {
		f.ReadCalls++
		f.BytesRead += op.n
		f.ReadTime.ObserveTime(f.fsys.k.Now() - op.start)
	}
	op.end(err)
}

// end is the tail of a ReadAtCall or ReadCall: the read-end event on
// every path, then the caller's done with the bytes read (none on an
// error).
func (op *readOp) end(err error) {
	f, done, arg := op.f, op.doneAt, op.arg
	off, got := op.off, op.n
	if op.ptr {
		off = f.offset
	}
	if err != nil {
		got = 0
	}
	f.fsys.emit(trace.ReadEnd, f.node, f.meta.name, off, op.endN)
	f.fsys.putReadOp(op)
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
