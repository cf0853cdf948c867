// Fair queueing and per-tenant admission for the I/O node: the QoS layer
// that keeps one tenant's burst from starving everyone else when the node
// is overloaded.
//
// The scheduler is self-clocked weighted fair queueing (SCFQ): every
// request gets an integer finish tag
//
//	tag = max(V, lastFinish[tenant]) + n*fairScale/weight(tenant)
//
// where V is the virtual time (the tag of the most recently dispatched
// request) and n the request's byte length. Dispatch order is the strict
// total order (tag, tenant, seq) — seq is the per-server arrival sequence
// number — so the schedule is a pure function of the arrival schedule,
// independent of map iteration. Up to Slots requests are in service at
// the disk concurrently; each completion dispatches the next queued
// request.
//
// Admission is a per-tenant token bucket: rate RatePerWeight*weight(t)
// bytes of simulated time per second, burst BurstBytes*weight(t). A
// request that finds the bucket dry is shed with ErrThrottled — per
// tenant, by weight, never by arrival luck.
//
// The FIFO flag turns the same machinery into the deliberately unfair
// twin for the simcheck fairness oracle: tags become arrival sequence
// numbers (pure FIFO dispatch) and admission is disabled, while all the
// fairness instrumentation keeps running so the twin is scored by the
// exact metric the real scheduler is.
package ionode

import (
	"errors"

	"repro/internal/sim"
)

// ErrThrottled is the control reply for a request that found its
// tenant's token bucket dry: the tenant is over its admitted rate and
// the excess is shed at admission instead of queueing behind everyone.
var ErrThrottled = errors.New("ionode: tenant over admitted rate")

// fairScale is the fixed-point scale of SCFQ tags: one byte of service
// at weight 1 advances a tenant's finish tag by fairScale. 2^20 keeps
// integer division exact enough that tenants at different weights
// interleave smoothly while total tags stay far below overflow.
const fairScale = 1 << 20

// FairPolicy configures the per-tenant fair scheduler on a server. The
// zero value disables it entirely: requests go straight to the disk in
// arrival order, byte-identical to the pre-QoS server.
type FairPolicy struct {
	Tenants int // number of tenants (0 disables the scheduler)

	// Weights are cycled over tenants: weight(t) = Weights[t%len].
	// Empty means every tenant has weight 1. Cycling keeps the config
	// (and its JSON mirror) small with thousands of tenants.
	Weights []int

	// Slots is how many requests may be in service at the disk at once;
	// the rest wait in the fair queue. <=0 means 1.
	Slots int

	// RatePerWeight and BurstBytes set the per-tenant token bucket:
	// tenant t refills at RatePerWeight*weight(t) bytes per simulated
	// second and holds at most BurstBytes*weight(t). RatePerWeight <= 0
	// disables admission (every request is queued).
	RatePerWeight int64
	BurstBytes    int64

	// FIFO selects the unfair twin: dispatch in arrival order, no
	// admission, same instrumentation.
	FIFO bool
}

// Enabled reports whether the policy arms the scheduler.
func (p FairPolicy) Enabled() bool { return p.Tenants > 0 }

// slots returns the effective concurrency.
func (p FairPolicy) slots() int {
	if p.Slots <= 0 {
		return 1
	}
	return p.Slots
}

// Weight returns tenant t's weight under the cycled Weights list.
func (p FairPolicy) Weight(t int) int {
	if len(p.Weights) == 0 {
		return 1
	}
	w := p.Weights[t%len(p.Weights)]
	if w <= 0 {
		return 1
	}
	return w
}

// fairQueue is the per-server scheduler state. It is touched only from
// simulation events, so it needs no locking.
type fairQueue struct {
	pol     FairPolicy
	weights []int // weight(t), precomputed

	heap      []*srvOp // min-heap by (tag, tenant, seq)
	seq       uint64   // arrival sequence number
	v         uint64   // virtual time: tag of the last dispatched request
	lastF     []uint64 // per-tenant last finish tag
	pending   []int    // per-tenant queued (not yet dispatched) count
	inService int      // dispatched, disk outcome not yet seen

	tokens   []int64    // token-bucket fill, bytes
	lastFill []sim.Time // last refill instant

	// Fairness instrumentation, all O(1) per dispatch. norm[t] is the
	// normalized service tenant t has been credited (cost = n*fairScale/
	// weight); maxNorm its running max over tenants; maxLag the largest
	// (maxNorm - norm[t]) observed at the instant one of t's requests
	// was dispatched — how far behind the front-runner a backlogged
	// tenant ever fell. maxWeighted is the largest single-request cost,
	// the natural unit of the fairness bound. A tenant re-entering from
	// idle has norm[t] raised to maxNorm first: time with no demand is
	// not lag.
	norm        []uint64
	maxNorm     uint64
	maxLag      uint64
	maxWeighted uint64
	minTagViol  int64 // dispatches whose tag was below virtual time (never, if the heap is correct)
}

func newFairQueue(p FairPolicy) *fairQueue {
	q := &fairQueue{
		pol:      p,
		weights:  make([]int, p.Tenants),
		lastF:    make([]uint64, p.Tenants),
		pending:  make([]int, p.Tenants),
		tokens:   make([]int64, p.Tenants),
		lastFill: make([]sim.Time, p.Tenants),
		norm:     make([]uint64, p.Tenants),
	}
	for t := 0; t < p.Tenants; t++ {
		q.weights[t] = p.Weight(t)
		q.tokens[t] = p.BurstBytes * int64(q.weights[t]) // buckets start full
	}
	return q
}

// clampTenant folds out-of-range tenant ids (a caller that never called
// SetTenant) onto tenant 0 so the scheduler stays memory-safe.
func (q *fairQueue) clampTenant(t int) int {
	if t < 0 || t >= len(q.weights) {
		return 0
	}
	return t
}

// admitBytes runs the token bucket for one n-byte request at time now.
// Refill is lazy and split to avoid overflow on long idle gaps.
func (q *fairQueue) admitBytes(t int, n int64, now sim.Time) bool {
	if q.pol.FIFO || q.pol.RatePerWeight <= 0 {
		return true
	}
	rate := q.pol.RatePerWeight * int64(q.weights[t])
	dt := now - q.lastFill[t]
	q.lastFill[t] = now
	add := int64(dt/sim.Second)*rate + int64(dt%sim.Second)*rate/int64(sim.Second)
	burst := q.pol.BurstBytes * int64(q.weights[t])
	q.tokens[t] += add
	if q.tokens[t] > burst {
		q.tokens[t] = burst
	}
	if q.tokens[t] < n {
		return false
	}
	q.tokens[t] -= n
	return true
}

// push tags op and enqueues it.
func (q *fairQueue) push(op *srvOp) {
	t := q.clampTenant(op.tenant)
	op.tenant = t
	cost := uint64(op.n) * fairScale / uint64(q.weights[t])
	if cost > q.maxWeighted {
		q.maxWeighted = cost
	}
	if q.pending[t] == 0 && q.norm[t] < q.maxNorm {
		// Idle tenant re-entering the backlog: service it missed while
		// it had nothing queued is not unfairness.
		q.norm[t] = q.maxNorm
	}
	q.seq++
	op.fseq = q.seq
	if q.pol.FIFO {
		op.tag = q.seq
	} else {
		start := q.v
		if q.lastF[t] > start {
			start = q.lastF[t]
		}
		op.tag = start + cost
		q.lastF[t] = op.tag
	}
	op.queued = true
	q.pending[t]++
	q.heapPush(op)
}

// pop dispatches the minimum-(tag, tenant, seq) request, advances the
// virtual time, and samples the dispatching tenant's lag.
func (q *fairQueue) pop() *srvOp {
	if len(q.heap) == 0 {
		return nil
	}
	op := q.heapPop()
	if op.tag < q.v {
		q.minTagViol++
	} else {
		q.v = op.tag
	}
	t := op.tenant
	q.pending[t]--
	if lag := q.maxNorm - q.norm[t]; lag > q.maxLag {
		q.maxLag = lag
	}
	q.norm[t] += uint64(op.n) * fairScale / uint64(q.weights[t])
	if q.norm[t] > q.maxNorm {
		q.maxNorm = q.norm[t]
	}
	return op
}

// drain empties the queue without crediting service — the crash path.
// Scheduling state (virtual time, finish tags, norms) is left alone;
// tags only ever grow, so post-restart arrivals order correctly.
func (q *fairQueue) drain(each func(*srvOp)) int {
	n := len(q.heap)
	for _, op := range q.heap {
		q.pending[op.tenant]--
		each(op)
	}
	q.heap = q.heap[:0]
	q.inService = 0
	return n
}

func fairLess(a, b *srvOp) bool {
	if a.tag != b.tag {
		return a.tag < b.tag
	}
	if a.tenant != b.tenant {
		return a.tenant < b.tenant
	}
	return a.fseq < b.fseq
}

func (q *fairQueue) heapPush(op *srvOp) {
	q.heap = append(q.heap, op)
	i := len(q.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !fairLess(q.heap[i], q.heap[parent]) {
			break
		}
		q.heap[i], q.heap[parent] = q.heap[parent], q.heap[i]
		i = parent
	}
}

func (q *fairQueue) heapPop() *srvOp {
	h := q.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = nil
	q.heap = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && fairLess(q.heap[l], q.heap[small]) {
			small = l
		}
		if r < last && fairLess(q.heap[r], q.heap[small]) {
			small = r
		}
		if small == i {
			break
		}
		q.heap[i], q.heap[small] = q.heap[small], q.heap[i]
		i = small
	}
	return top
}

// FairSnapshot is the scheduler's oracle-facing state: everything the
// simcheck starvation-freedom and fairness oracles need, read after the
// run has drained.
type FairSnapshot struct {
	Slots            int      // effective service concurrency
	QueueLen         int      // requests still queued (drain check: 0)
	InService        int      // requests still at the disk (drain check: 0)
	MaxLag           uint64   // worst backlogged normalized-service lag
	MaxWeightedCost  uint64   // largest single-request normalized cost
	MinTagViolations int64    // dispatches below virtual time (invariant: 0)
	Norm             []uint64 // per-tenant normalized service credited
}

// FairSnapshot returns the scheduler's instrumentation, or nil when no
// fair policy is armed.
func (s *Server) FairSnapshot() *FairSnapshot {
	if s.fq == nil {
		return nil
	}
	q := s.fq
	return &FairSnapshot{
		Slots:            q.pol.slots(),
		QueueLen:         len(q.heap),
		InService:        q.inService,
		MaxLag:           q.maxLag,
		MaxWeightedCost:  q.maxWeighted,
		MinTagViolations: q.minTagViol,
		Norm:             append([]uint64(nil), q.norm...),
	}
}

// SetFairPolicy installs (or with the zero policy removes) the node's
// fair scheduler and arms the per-tenant counters. Must be called before
// the run starts; the machine layer does it at build time.
func (s *Server) SetFairPolicy(p FairPolicy) {
	if !p.Enabled() {
		s.fair = FairPolicy{}
		s.fq = nil
		s.TenantArrived, s.TenantServed, s.TenantShed = nil, nil, nil
		s.TenantFaulted, s.TenantDropped, s.TenantBytes = nil, nil, nil
		return
	}
	s.fair = p
	s.fq = newFairQueue(p)
	s.TenantArrived = make([]int64, p.Tenants)
	s.TenantServed = make([]int64, p.Tenants)
	s.TenantShed = make([]int64, p.Tenants)
	s.TenantFaulted = make([]int64, p.Tenants)
	s.TenantDropped = make([]int64, p.Tenants)
	s.TenantBytes = make([]int64, p.Tenants)
}

// pumpFair dispatches queued requests into free service slots. A
// synchronous failure inside startDisk releases the slot before
// returning, so the loop keeps pumping until the slots are full or the
// queue is empty.
func (s *Server) pumpFair() {
	if s.fq == nil {
		return
	}
	slots := s.fair.slots()
	for s.fq.inService < slots {
		op := s.fq.pop()
		if op == nil {
			return
		}
		s.fq.inService++
		s.startDisk(op)
	}
}
