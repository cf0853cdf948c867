package pfs

import (
	"errors"
	"fmt"
	"hash/fnv"

	"repro/internal/sim"
	"repro/internal/trace"
)

// ErrTimeout marks a stripe request whose reply deadline passed. It is
// what a read surfaces when the retry budget runs out on timeouts alone.
var ErrTimeout = errors.New("pfs: stripe request timed out")

// ErrUnavailable marks a stripe request aimed at an I/O node that is
// down and cannot be back before the request's deadline. It is
// deterministic — decided from the advertised restart time, not from
// racing timers — and is never retried: the workload layer counts these
// reads and carries on.
var ErrUnavailable = errors.New("pfs: I/O node unavailable past deadline")

// RetryPolicy is the client side of the fault-tolerant I/O path: every
// declustered piece gets a reply deadline and a bounded number of
// re-issues with exponentially growing, deterministically jittered
// delays. The zero value disables the whole layer — no timers are
// scheduled and the request flow is identical to the plain PFS client.
//
// All delays are simulated-time events on the kernel; nothing reads a
// wall clock, so runs with retries remain bit-reproducible.
type RetryPolicy struct {
	MaxRetries int      // re-issues allowed per piece after the first attempt
	Timeout    sim.Time // per-attempt reply deadline (0 = wait forever)
	Backoff    sim.Time // delay before the first re-issue; doubles each attempt
	BackoffMax sim.Time // cap on the exponential growth (0 = uncapped)
	Seed       int64    // decorrelates the jitter streams of different mounts

	// DownPoll arms node-down awareness: a piece aimed at a node known to
	// be down is parked until the node's advertised restart time (but at
	// least DownPoll from now) instead of burning the retry budget on
	// timeouts the node can never answer. Zero disables the distinction —
	// down nodes look like silent ones, as before.
	DownPoll sim.Time
	// DownDeadline bounds how long a piece will wait out a crash, measured
	// from its first issue. A piece whose node cannot restart before the
	// deadline fails immediately with ErrUnavailable (no pointless wait);
	// zero means wait for the restart however long it takes.
	DownDeadline sim.Time
}

// DefaultRetryPolicy returns the policy the degraded-mode experiments
// and chaos scenarios run under: enough budget that a transient-only
// fault storm is always ridden out (each re-read of a transiently
// faulted sector succeeds by construction), with backoff spanning any
// I/O-node shed cooldown.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxRetries: 8,
		Backoff:    2 * sim.Millisecond,
		BackoffMax: 100 * sim.Millisecond,
		Seed:       1,
	}
}

// Enabled reports whether any part of the retry layer is armed.
func (rp RetryPolicy) Enabled() bool { return rp.MaxRetries > 0 || rp.Timeout > 0 }

// delay computes the pause before re-issuing a piece whose attempt-th
// try just failed: Backoff<<attempt capped at BackoffMax, plus a
// deterministic jitter of up to a quarter of the base delay derived by
// hashing (Seed, node, localOff, attempt). The jitter de-synchronizes
// the retry herds of many clients without a shared RNG, whose draw
// order would depend on event interleaving.
func (rp RetryPolicy) delay(node int, localOff int64, attempt int) sim.Time {
	d := rp.Backoff
	for i := 0; i < attempt && d < rp.BackoffMax; i++ {
		d <<= 1
	}
	if rp.BackoffMax > 0 && d > rp.BackoffMax {
		d = rp.BackoffMax
	}
	if d <= 0 {
		return 0
	}
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range []uint64{uint64(rp.Seed), uint64(node), uint64(localOff), uint64(attempt)} {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	return d + sim.Time(h.Sum64()%uint64(d/4+1))
}

// pieceAttempt is the pooled bookkeeping of one attempt of one
// declustered piece: what the legacy sendPiece captured in closures. Each
// attempt settles exactly once — by its reply, its timeout, or a
// down-node park — and failed settles hand the piece to a FRESH attempt
// struct: the old one must keep its settled flag so a straggling reply
// (or the losing half of the reply/timeout race) is recognized as stale,
// exactly the legacy per-attempt `settled` closure variable.
//
// refs counts the event chains holding the attempt (the request/reply
// chain, plus the timeout when armed); the attempt returns to the free
// list when both have let go. Chains severed by a crash (a dropped mesh
// delivery, a server discard) simply never release — such attempts are
// garbage collected, which only costs the pool a refill.
type pieceAttempt struct {
	fsys    *FileSystem
	op      *stripeOp
	meta    *fileMeta
	node    int // requesting compute node
	tenant  int // owning tenant; its own copy — the op recycles before late replies
	pc      piece
	write   bool
	attempt int
	first   sim.Time // first-issue time; the down deadline is measured from it
	settled bool
	refs    int
}

func (fsys *FileSystem) getAttempt() *pieceAttempt {
	if n := len(fsys.attemptFree); n > 0 {
		at := fsys.attemptFree[n-1]
		fsys.attemptFree[n-1] = nil
		fsys.attemptFree = fsys.attemptFree[:n-1]
		return at
	}
	return &pieceAttempt{fsys: fsys}
}

func (fsys *FileSystem) putAttempt(at *pieceAttempt) {
	at.op = nil
	at.meta = nil
	at.tenant = 0
	at.settled = false
	at.refs = 0
	fsys.attemptFree = append(fsys.attemptFree, at)
}

func (fsys *FileSystem) releaseAttempt(at *pieceAttempt) {
	at.refs--
	if at.refs == 0 {
		fsys.putAttempt(at)
	}
}

// cloneAttempt returns a fresh attempt for the same piece, used by retry
// and the timeout's down-node park; renumber sets the attempt counter.
func (fsys *FileSystem) cloneAttempt(at *pieceAttempt, renumber int) *pieceAttempt {
	next := fsys.getAttempt()
	next.op, next.meta, next.node, next.pc, next.write = at.op, at.meta, at.node, at.pc, at.write
	next.tenant = at.tenant
	next.attempt, next.first, next.settled = renumber, at.first, false
	return next
}

// finish surfaces the attempt's final outcome to its stripe operation.
func (at *pieceAttempt) finish(err error) {
	op := at.op
	if err == nil && !at.write {
		op.okBytes += at.pc.n
	}
	op.finishOne(err, at.attempt > 0)
}

// sendAttempt issues one attempt of a declustered piece to its I/O node
// and arms the attempt's reply deadline. The attempt arrives fresh (from
// stripeIOInto, a retry, or a restart park) with no references; the
// chains armed here hold it until they resolve.
func (fsys *FileSystem) sendAttempt(at *pieceAttempt) {
	srv := fsys.servers[at.meta.group[at.pc.server]]
	pol := fsys.cfg.Retry
	if down, _ := srv.DownAt(fsys.k.Now()); pol.DownPoll > 0 && down {
		// Known down before anything hit the wire: park, don't send.
		fsys.deferAttempt(at)
		return
	}
	reqBytes := fsys.cfg.RequestBytes
	if at.write {
		reqBytes += at.pc.n // write data travels with the request
	}
	if at.attempt == 0 {
		fsys.emit(trace.StripeSend, srv.Node(), at.meta.name, at.pc.localOff, at.pc.n)
	}
	at.refs = 1
	if pol.Timeout > 0 {
		at.refs = 2
		fsys.k.AfterCall(pol.Timeout, attemptTimeout, at)
	}
	fsys.m.SendCall(at.node, srv.Node(), reqBytes, attemptDeliver, at)
}

// attemptDeliver runs on the I/O node when the request message arrives.
// Reads ride the fully pooled server path; writes keep the legacy server
// entry point (the paper evaluates reads — writes are cold).
func attemptDeliver(v any) {
	at := v.(*pieceAttempt)
	fsys := at.fsys
	srv := fsys.servers[at.meta.group[at.pc.server]]
	if at.write {
		srv.Write(at.node, at.meta.localName(), at.pc.localOff, at.pc.n, func(err error) {
			pieceReply(at, err)
		})
		return
	}
	srv.ReadCall(at.node, at.tenant, at.meta.handles[at.pc.server], at.pc.localOff, at.pc.n,
		fsys.cfg.FastPath, pieceReply, at)
}

// pieceReply runs on the requesting node when the attempt's reply lands.
func pieceReply(v any, err error) {
	at := v.(*pieceAttempt)
	fsys := at.fsys
	if at.settled {
		// The deadline fired first and the piece was re-issued; this
		// attempt's outcome is stale. Data that did arrive was paid for
		// at the server and on the mesh but is discarded here.
		fsys.LateReplies++
		if err == nil && !at.write {
			fsys.LateBytes += at.pc.n
			if fsys.tenants > 0 {
				fsys.tenantLate[at.tenant] += at.pc.n
			}
		}
		fsys.releaseAttempt(at)
		return
	}
	at.settled = true
	srv := fsys.servers[at.meta.group[at.pc.server]]
	fsys.emit(trace.StripeReply, srv.Node(), at.meta.name, at.pc.localOff, at.pc.n)
	fsys.settleAttempt(at, err)
	fsys.releaseAttempt(at)
}

// attemptTimeout runs when the attempt's reply deadline passes. The
// event is armed unconditionally at issue (like the legacy timer), so a
// settled attempt just drops its timeout reference.
func attemptTimeout(v any) {
	at := v.(*pieceAttempt)
	fsys := at.fsys
	if at.settled {
		fsys.releaseAttempt(at)
		return // reply won the race; the deadline is a no-op
	}
	at.settled = true
	srv := fsys.servers[at.meta.group[at.pc.server]]
	pol := fsys.cfg.Retry
	fsys.Timeouts++
	fsys.emit(trace.TimeoutFired, srv.Node(), at.meta.name, at.pc.localOff, at.pc.n)
	down, _ := srv.DownAt(fsys.k.Now())
	if pol.DownPoll > 0 && down {
		// The deadline was the discovery that the node died, not
		// evidence against a live one: the attempt does not burn retry
		// budget, the piece re-arms on the restart.
		fsys.deferAttempt(fsys.cloneAttempt(at, at.attempt))
		fsys.releaseAttempt(at)
		return
	}
	fsys.settleAttempt(at, fmt.Errorf("%w: [%d,+%d) on I/O node %d, attempt %d",
		ErrTimeout, at.pc.localOff, at.pc.n, srv.Node(), at.attempt))
	fsys.releaseAttempt(at)
}

// settleAttempt decides a settled attempt's failure: re-issue the piece
// after the backoff delay, or give up and surface the error.
func (fsys *FileSystem) settleAttempt(at *pieceAttempt, err error) {
	pol := fsys.cfg.Retry
	srv := fsys.servers[at.meta.group[at.pc.server]]
	if err != nil && !errors.Is(err, ErrUnavailable) && at.attempt < pol.MaxRetries {
		fsys.Retries++
		fsys.emit(trace.RetryIssue, srv.Node(), at.meta.name, at.pc.localOff, at.pc.n)
		next := fsys.cloneAttempt(at, at.attempt+1)
		fsys.k.AfterCall(pol.delay(at.node, at.pc.localOff, at.attempt), resendAttempt, next)
		return
	}
	if err != nil && pol.Enabled() {
		fsys.GiveUps++
		fsys.emit(trace.RetryGiveUp, srv.Node(), at.meta.name, at.pc.localOff, at.pc.n)
	}
	at.finish(err)
}

// resendAttempt re-enters sendAttempt from a backoff or restart delay.
func resendAttempt(v any) {
	at := v.(*pieceAttempt)
	at.fsys.sendAttempt(at)
}

// deferAttempt parks a piece aimed at a node known to be down. If the
// node's advertised restart leaves no room before the piece's deadline
// the piece fails now with ErrUnavailable — deterministically, without
// waiting out the crash. Otherwise the piece re-arms at the restart time
// (but no sooner than DownPoll from now) with its attempt budget intact.
// The attempt passed in carries no references.
func (fsys *FileSystem) deferAttempt(at *pieceAttempt) {
	srv := fsys.servers[at.meta.group[at.pc.server]]
	pol := fsys.cfg.Retry
	now := fsys.k.Now()
	_, restart := srv.DownAt(now)
	if pol.DownDeadline > 0 {
		deadline := at.first + pol.DownDeadline
		if now >= deadline || restart > deadline {
			fsys.Unavailable++
			at.finish(fmt.Errorf("%w: [%d,+%d) on I/O node %d (restart %v, deadline %v)",
				ErrUnavailable, at.pc.localOff, at.pc.n, srv.Node(), restart, deadline))
			fsys.putAttempt(at)
			return
		}
	}
	fsys.DownWaits++
	wait := pol.DownPoll
	if restart > now && restart-now > wait {
		wait = restart - now
	}
	fsys.k.AfterCall(wait, resendAttempt, at)
}
