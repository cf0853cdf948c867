// Package prefetch implements the paper's prefetching prototype: the
// client-side modification to the PFS that issues an asynchronous
// read-ahead after every user read.
//
// Mechanics, following Section 3 of the paper:
//
//   - prefetches ride the existing asynchronous-read machinery (the ART
//     and its FIFO active list) rather than a new I/O path;
//   - a prefetch is issued by the user thread after each read, for the
//     block the same thread is anticipated to read next (one block ahead
//     in the prototype; Depth generalizes this for ablation);
//   - completed prefetches land in a per-file prefetch buffer list in
//     compute-node memory, tagged with file offset and size;
//   - a later read that matches a buffer is a hit: it pays a memory copy
//     from the prefetch buffer to the user buffer (Fast Path would have
//     landed the data in the user buffer directly — this copy is the
//     overhead the paper measures at zero compute delay);
//   - a read that matches a still-in-flight prefetch waits for it: the
//     paper's "even if most of the read is already done, the benefits can
//     be tremendous";
//   - the file pointer is never moved by prefetching, and all buffers are
//     freed when the file is closed.
//
// Beyond the prototype, the package carries the prefetcher zoo (a
// registry of competing predictors with per-stream accuracy grading and
// a hybrid that races them; see registry.go) and an online controller
// that retunes Depth and MaxBuffers mid-run from the observed hit rate
// and direct-read service time (controller.go).
package prefetch

import (
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Config tunes the prototype. The paper's configuration is the default;
// the extra knobs exist for the ablation benchmarks.
type Config struct {
	Depth         int        // records prefetched ahead (paper: 1)
	IssueOverhead sim.Time   // user-thread CPU to set up one prefetch request
	MemBandwidth  float64    // compute-node copy bandwidth for the hit path
	MaxBuffers    int        // retained + in-flight buffers per open file
	FreeCopy      bool       // ablation: make the hit-path copy free
	Trace         *trace.Log // optional timeline of prefetch decisions
	// Predictor chooses what to read ahead; nil selects the predictor
	// Policy names — and with Policy also empty, the prototype's
	// mode-derived next-record policy (ModePredictor).
	Predictor Predictor `json:"-"`
	// Policy selects a predictor by name when Predictor is nil: "mode",
	// "sequential", "stride", or "hybrid" (see NewPolicy). A name
	// survives a JSON round-trip, which an interface value cannot.
	Policy string
	// Controller, when its Interval is non-zero, arms the online
	// parameter controller that retunes Depth and MaxBuffers mid-run.
	Controller ControllerConfig
	// Adaptive throttles the prototype: read-ahead is issued only when
	// the application's observed compute window (the gap between its
	// reads) is long enough for a prefetch to make headway. Removes the
	// paper's zero-overlap overhead at the cost of the first few gaps'
	// worth of training.
	Adaptive bool
}

// DefaultConfig returns the paper's prototype parameters on i860-class
// hardware.
func DefaultConfig() Config {
	return Config{
		Depth:         1,
		IssueOverhead: 250 * sim.Microsecond,
		MemBandwidth:  45e6,
		MaxBuffers:    16,
	}
}

// entry is one prefetch buffer structure on a file's prefetch list.
// Entries are pooled: a consumed or retired entry returns to the free
// list with its Async request attached, so the steady prefetch stream
// reuses one entry + request + signal per buffer slot instead of
// allocating three objects per issue.
type entry struct {
	off, n int64
	req    *pfs.Async
	pf     *Prefetcher
	f      *pfs.File
	src    int // registry source whose advice issued this buffer; -1 untracked
}

// entryFillDone runs at the firing instant of an entry's prefetch
// request: a failure reclaims the buffer slot (see retire). The success
// path is a no-op — and must stay one, because a consumed entry may
// already be back in the pool when a successful fill's callback runs.
func entryFillDone(v any, err error) {
	e := v.(*entry)
	if err != nil {
		e.pf.retire(e.f, e)
	}
}

// Prefetcher implements pfs.PrefetchService. One Prefetcher can serve many
// open files; state is per open instance, as in the prototype (the list
// hangs off the file's internal structure).
type Prefetcher struct {
	k     *sim.Kernel
	cfg   Config
	lists map[*pfs.File][]*entry
	adapt map[*pfs.File]*adaptState
	free  []*entry   // entry pool; each keeps its Async for reuse
	ops   []*serveOp // pooled per-read state; each keeps its span list
	track tracker    // non-nil when the predictor wants outcome attribution
	ctl   *controller

	// Measurements.
	Issued        int64           // prefetch requests queued on the ART
	Hits          int64           // reads served entirely from a completed buffer
	HitsInWait    int64           // reads that waited on an in-flight prefetch
	Misses        int64           // reads with no matching buffer
	Wasted        int64           // completed buffers freed unused at close
	UnreadAtClose int64           // buffers still in flight when their file closed
	Skipped       int64           // prefetches suppressed by the buffer cap
	Retired       int64           // failed prefetches whose buffer slot was reclaimed
	Fallbacks     int64           // failed prefetches retried as direct reads
	Throttled     int64           // issues suppressed by the adaptive policy
	Retunes       int64           // controller decisions that moved Depth or MaxBuffers
	BytesCopied   int64           // bytes delivered from prefetch buffers (hit-path copies)
	BytesDirect   int64           // bytes delivered by direct reads (misses + fallbacks)
	WaitTime      stats.Histogram // time spent waiting on in-flight prefetches, seconds
}

// adaptState is the adaptive policy's per-file picture of the
// application: exponential averages of the compute gap between reads and
// of the direct read service time. The two averages sample at different
// rates (every read has a gap, only misses have a direct service time),
// so each keeps its own count; seen distinguishes "no read has finished
// yet" from a read that finished at time zero.
type adaptState struct {
	seen           bool     // a read has completed; lastEnd is meaningful
	lastEnd        sim.Time // completion time of the previous read
	gapEWMA        float64  // seconds
	serviceEWMA    float64  // seconds
	gapSamples     int
	serviceSamples int
}

const adaptAlpha = 0.3 // EWMA weight for new observations

var _ pfs.PrefetchService = (*Prefetcher)(nil)

// New returns a Prefetcher on kernel k. Depth and MaxBuffers must be
// positive; MemBandwidth must be positive unless FreeCopy is set; Policy,
// if set, must name a known predictor.
func New(k *sim.Kernel, cfg Config) *Prefetcher {
	if cfg.Depth <= 0 {
		panic("prefetch: depth must be positive")
	}
	if cfg.MaxBuffers <= 0 {
		panic("prefetch: buffer cap must be positive")
	}
	if !cfg.FreeCopy && cfg.MemBandwidth <= 0 {
		panic("prefetch: memory bandwidth must be positive")
	}
	if cfg.Predictor == nil {
		pred, err := NewPolicy(cfg.Policy)
		if err != nil {
			panic(err.Error())
		}
		cfg.Predictor = pred
	}
	pf := &Prefetcher{
		k:     k,
		cfg:   cfg,
		lists: make(map[*pfs.File][]*entry),
		adapt: make(map[*pfs.File]*adaptState),
	}
	pf.track, _ = cfg.Predictor.(tracker)
	if cfg.Controller.Enabled() {
		pf.ctl = &controller{cfg: cfg.Controller.withDefaults()}
	}
	return pf
}

// Attach installs the prefetcher on an open file. Shorthand for
// f.SetPrefetcher(pf).
func (pf *Prefetcher) Attach(f *pfs.File) { f.SetPrefetcher(pf) }

// serveOp is the pooled state of one ServeReadCall: what a read keeps
// across its waits — the in-flight prefetch, the direct read, the buffer
// copy and the issue overhead of each span it posts.
type serveOp struct {
	pf        *Prefetcher
	f         *pfs.File
	off, n    int64
	st        *adaptState // the file's adaptive state; nil unless Adaptive
	e         *entry      // the matched buffer; nil on a miss
	start     sim.Time    // when the wait or the direct read began
	hitServed bool        // bytes came out of a prefetch buffer
	direct    bool        // bytes came from a measured direct read
	service   sim.Time    // the direct read's service time
	src       int         // registry source of this read's advice
	spans     []Span      // this read's own predicted spans
	next      int         // the next span to screen
	done      func(any, error)
	arg       any
}

// ServeReadCall satisfies the user read at [off, off+n) per the
// prototype's policy, then issues read-ahead for the anticipated next
// record(s), and calls done(arg, err) when both are over.
func (pf *Prefetcher) ServeReadCall(f *pfs.File, off, n int64, done func(any, error), arg any) {
	var op *serveOp
	if k := len(pf.ops); k > 0 {
		op, pf.ops = pf.ops[k-1], pf.ops[:k-1]
	} else {
		op = &serveOp{pf: pf}
	}
	op.f, op.off, op.n, op.done, op.arg = f, off, n, done, arg
	if pf.cfg.Adaptive {
		st, ok := pf.adapt[f]
		if !ok {
			st = &adaptState{}
			pf.adapt[f] = st
		}
		if st.seen {
			st.gapEWMA = ewma(st.gapEWMA, (pf.k.Now() - st.lastEnd).Seconds(), st.gapSamples)
			st.gapSamples++
		}
		op.st = st
	}
	op.e = pf.lookup(f, off, n)
	op.start = pf.k.Now()
	switch {
	case op.e == nil:
		pf.Misses++
		pf.emit(trace.PrefetchMiss, f, off, n)
		f.StripeReadCall(off, n, serveDirect, op)
	case !op.e.req.Done.Fired():
		// Miss-when-presented but mostly done: wait out the remainder. The
		// wait takes a waiter's slot, ahead of the entryFillDone booked at
		// issue, so a failed fill is consumed here before it is retired.
		op.e.req.Done.WaitCall(serveWaited, op)
	default:
		op.consume(false)
	}
}

// serveWaited runs when the awaited prefetch has landed (or failed).
func serveWaited(a any, _ error) {
	op := a.(*serveOp)
	op.pf.WaitTime.ObserveTime(op.pf.k.Now() - op.start)
	op.consume(true)
}

// consume takes the matched buffer off the list and copies the user's
// bytes out of it, or — when its prefetch failed — falls back to a direct
// read: the user read must not inherit a speculative request's error.
func (op *serveOp) consume(waited bool) {
	pf, f, e := op.pf, op.f, op.e
	pf.removeEntry(f, e)
	switch {
	case e.req.Done.Err() != nil:
		pf.Fallbacks++
		op.start = pf.k.Now()
		f.StripeReadCall(op.off, op.n, serveDirect, op)
		return
	case waited:
		pf.HitsInWait++
		pf.emit(trace.PrefetchWait, f, op.off, op.n)
	default:
		pf.Hits++
		pf.emit(trace.PrefetchHit, f, op.off, op.n)
	}
	// The user's bytes come out of the consumed buffer, from its start —
	// the range recorded is the buffer's, not the request's, so a lookup
	// that matched the wrong buffer is visible to the data-correctness
	// oracle.
	f.RecordDelivery(e.off, op.n)
	pf.BytesCopied += op.n
	op.hitServed = true
	if pf.track != nil {
		pf.track.noteConsumed(f, e.src)
	}
	if !pf.cfg.FreeCopy {
		// Prefetch buffer -> user buffer copy; Fast Path avoids this.
		pf.k.AfterCall(sim.Time(float64(op.n)/pf.cfg.MemBandwidth*float64(sim.Second)), serveCopied, op)
		return
	}
	op.served(nil)
}

func serveCopied(a any) { a.(*serveOp).served(nil) }

// serveDirect completes a direct read: a miss's, or (op.e set) the one
// that replaced a failed prefetch.
func serveDirect(a any, err error) {
	op := a.(*serveOp)
	pf := op.pf
	if err == nil {
		pf.BytesDirect += op.n
		op.direct, op.service = true, pf.k.Now()-op.start
		if st := op.st; st != nil && op.e == nil {
			st.serviceEWMA = ewma(st.serviceEWMA, op.service.Seconds(), st.serviceSamples)
			st.serviceSamples++
		}
	}
	op.served(err)
}

// served recycles the consumed entry, if any (a failed fill's retirement
// callback has run by now, booked behind this read's wait, so recycling
// cannot race it). Then, unless the adaptive policy throttles it, it
// issues read-ahead for the Depth spans the predictor expects this node
// to read next — with the default ModePredictor derived from the read
// request itself (offset, size, mode, rank), as in the prototype.
func (op *serveOp) served(err error) {
	pf, f := op.pf, op.f
	if op.e != nil {
		pf.putEntry(op.e)
		op.e = nil
	}
	if err != nil {
		op.finish(err)
		return
	}
	pf.cfg.Predictor.Observe(f, op.off, op.n)
	if op.st != nil && !op.st.allowIssue() {
		pf.Throttled++
		op.finish(nil)
		return
	}
	op.src = -1
	if pf.track != nil {
		// The selection is a pure function of the registry's counters, so
		// this is the same source Predict forwards to below.
		op.src = pf.track.selectedSource(f)
	}
	op.spans = pf.cfg.Predictor.Predict(f, op.off, op.n, pf.cfg.Depth, op.spans[:0])
	op.next = 0
	op.issueNext()
}

// issueNext screens the spans from op.next on and books the issue
// overhead of the first one to post; with none left, the read is over.
func (op *serveOp) issueNext() {
	pf, f := op.pf, op.f
	for ; op.next < len(op.spans); op.next++ {
		span := op.spans[op.next]
		if pf.lookup(f, span.Off, 0) != nil { // some buffer already starts there
			continue
		}
		if len(pf.lists[f]) >= pf.cfg.MaxBuffers {
			// The cap suppresses this span and every later one; count each
			// suppressed span so Skipped tallies lost read-ahead, not cap
			// encounters. Spans already covered are not losses and are
			// screened out above.
			pf.Skipped++
			continue
		}
		// The user thread pays the setup cost of posting the
		// asynchronous request.
		pf.k.AfterCall(pf.cfg.IssueOverhead, serveIssue, op)
		return
	}
	op.finish(nil)
}

// serveIssue posts the span whose issue overhead has elapsed.
func serveIssue(a any) {
	op := a.(*serveOp)
	pf, f, span := op.pf, op.f, op.spans[op.next]
	op.next++
	e := pf.getEntry()
	e.off, e.n, e.f, e.src = span.Off, span.N, f, op.src
	e.req = f.IReadAtReusing(e.req, span.Off, span.N)
	pf.lists[f] = append(pf.lists[f], e)
	e.req.Done.OnFireCall(entryFillDone, e)
	pf.Issued++
	if pf.track != nil {
		pf.track.noteIssued(f, op.src)
	}
	pf.emit(trace.PrefetchIssue, f, span.Off, span.N)
	op.issueNext()
}

// finish ends a served read — on success the adaptive policy's clock and
// the controller's window — then recycles the op and calls done.
func (op *serveOp) finish(err error) {
	pf, f, done, arg := op.pf, op.f, op.done, op.arg
	if err == nil {
		if st := op.st; st != nil {
			st.lastEnd = pf.k.Now()
			st.seen = true
		}
		if pf.ctl != nil {
			pf.ctl.observe(op.hitServed, op.direct, op.service)
			if nd, nb, changed := pf.ctl.window(pf.cfg.Depth, pf.cfg.MaxBuffers); changed {
				// The retuned knobs take effect at the next read's issue; the
				// timeline records the decision (Off = new depth, N = new cap).
				pf.cfg.Depth, pf.cfg.MaxBuffers = nd, nb
				pf.Retunes++
				pf.emit(trace.PrefetchRetune, f, int64(nd), int64(nb))
			}
		}
	}
	*op = serveOp{pf: pf, spans: op.spans[:0]}
	pf.ops = append(pf.ops, op)
	done(arg, err)
}

// allowIssue decides whether read-ahead is worth it: optimistic until the
// state has settled, then only when the compute gap gives the prefetch a
// real head start.
func (st *adaptState) allowIssue() bool {
	if st.gapSamples < 2 || st.serviceSamples == 0 {
		return true
	}
	return st.gapEWMA >= 0.25*st.serviceEWMA
}

// ewma folds a new observation into an exponential average (the first
// observation seeds it). Seeding is decided by the sample count alone: a
// legitimately observed zero (back-to-back reads have a zero compute
// gap) is an average like any other, not an unseeded state. The explicit
// float64 conversions round each product, so no architecture may fuse the
// sum into one multiply-add and drift from amd64.
func ewma(cur, obs float64, samples int) float64 {
	if samples == 0 {
		return obs
	}
	return float64((1-adaptAlpha)*cur) + float64(adaptAlpha*obs)
}

// OnClose frees the file's prefetch buffers. A completed buffer still on
// the list is an unconsumed successful fill (a failed fill was retired —
// removed and recycled — at its firing instant), so its outcome is fully
// determined and the entry recycles into the pool as Wasted. An in-flight
// buffer must NOT be recycled: its Async has not fired, and the pool
// could hand the entry to a new issue while the old request still owns
// its signal. Those entries are counted as UnreadAtClose and left to the
// garbage collector; their pending entryFillDone no-ops either way once
// the list is gone (retire's removeEntry finds nothing).
func (pf *Prefetcher) OnClose(f *pfs.File) {
	for _, e := range pf.lists[f] {
		if e.req.Done.Fired() {
			pf.Wasted++
			if pf.track != nil {
				pf.track.noteWasted(f, e.src)
			}
			pf.putEntry(e)
		} else {
			pf.UnreadAtClose++
			if pf.track != nil {
				pf.track.noteUnread(f, e.src)
			}
		}
	}
	delete(pf.lists, f)
	delete(pf.adapt, f)
	pf.cfg.Predictor.Forget(f)
}

func (pf *Prefetcher) getEntry() *entry {
	if n := len(pf.free); n > 0 {
		e := pf.free[n-1]
		pf.free[n-1] = nil
		pf.free = pf.free[:n-1]
		return e
	}
	return &entry{pf: pf}
}

// putEntry recycles a consumed or retired entry. Safe only once the
// entry is off its file's list and its request's outcome has been fully
// read; the request (and its signal) stay attached for IReadAtReusing.
func (pf *Prefetcher) putEntry(e *entry) {
	e.f = nil
	pf.free = append(pf.free, e)
}

// lookup finds a buffer whose region covers [off, off+n) starting exactly
// at off, the match rule of the prototype (buffers are tagged with the
// PFS file offset and size).
func (pf *Prefetcher) lookup(f *pfs.File, off, n int64) *entry {
	for _, e := range pf.lists[f] {
		if e.off == off && e.n >= n {
			return e
		}
	}
	return nil
}

// removeEntry drops e from f's list by identity. A no-op when the entry
// is already gone — a failure retirement can race a reader that was
// waiting on the same entry, and whichever runs second must not disturb
// the list.
func (pf *Prefetcher) removeEntry(f *pfs.File, e *entry) bool {
	for i, cur := range pf.lists[f] {
		if cur == e {
			l := pf.lists[f]
			pf.lists[f] = append(l[:i], l[i+1:]...)
			return true
		}
	}
	return false
}

// retire reclaims the buffer slot of a prefetch whose stripe requests
// failed. Without this, a failed speculative read would pin a MaxBuffers
// slot until a read happened to match it (or close), quietly disabling
// read-ahead exactly when the I/O path is struggling.
func (pf *Prefetcher) retire(f *pfs.File, e *entry) {
	if pf.removeEntry(f, e) {
		pf.Retired++
		// Removal succeeded, so no reader holds this entry (a reader
		// removes it before doing anything that yields): recycle now.
		pf.putEntry(e)
	}
}

// emit records a prefetch decision on the configured timeline.
func (pf *Prefetcher) emit(kind trace.Kind, f *pfs.File, off, n int64) {
	if pf.cfg.Trace != nil {
		pf.cfg.Trace.Add(trace.Event{T: pf.k.Now(), Kind: kind, Node: f.Node(), File: f.Name(), Off: off, N: n})
	}
}

// Zoo returns the predictor registry when the configured policy carries
// one (the hybrid), nil otherwise.
func (pf *Prefetcher) Zoo() *Registry {
	if h, ok := pf.cfg.Predictor.(*HybridPredictor); ok {
		return h.reg
	}
	return nil
}

// Tuning reports the live Depth and MaxBuffers (the controller mutates
// them mid-run) and whether the controller is armed.
func (pf *Prefetcher) Tuning() (depth, bufs int, controlled bool) {
	return pf.cfg.Depth, pf.cfg.MaxBuffers, pf.ctl != nil
}

// ControllerMoves reports how many controller decisions moved Depth and
// how many moved MaxBuffers (both zero without the controller).
func (pf *Prefetcher) ControllerMoves() (depthMoves, bufMoves int64) {
	if pf.ctl == nil {
		return 0, 0
	}
	return pf.ctl.depthMoves, pf.ctl.bufMoves
}

// HitRate reports hits (including waited hits) over all served reads.
// Fallbacks are reads too: a read that matched a failed prefetch and was
// served by a direct re-read was not a hit, and omitting it would
// overstate the hit rate exactly when the I/O path is struggling.
func (pf *Prefetcher) HitRate() float64 {
	total := pf.Hits + pf.HitsInWait + pf.Misses + pf.Fallbacks
	if total == 0 {
		return 0
	}
	return float64(pf.Hits+pf.HitsInWait) / float64(total)
}
