package sim

import (
	"fmt"
	"testing"
)

// xorshift is the deterministic pseudo-random source the queue tests
// share; no math/rand so the streams are pinned byte-for-byte.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := *x
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = v
	return uint64(v)
}

func newLadderQueue() *ladderQueue {
	q := &ladderQueue{}
	q.reset()
	return q
}

// refQueue is the reference model the ladder is checked against: a slice
// kept sorted by (t, seq) through a binary-search insert, popped from the
// front. It shares no code with the ladder, not even its comparison.
type refQueue []*event

func (r *refQueue) push(e *event) {
	q := *r
	lo, hi := 0, len(q)
	for lo < hi {
		mid := (lo + hi) / 2
		if q[mid].t < e.t || q[mid].t == e.t && q[mid].seq < e.seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	q = append(q, nil)
	copy(q[lo+1:], q[lo:])
	q[lo] = e
	*r = q
}

func (r *refQueue) pop() *event {
	e := (*r)[0]
	*r = (*r)[1:]
	return e
}

// TestQueueDifferentialDistributions drives the ladder queue and the
// reference model with identical (t, seq) streams across the time
// distributions that exercise every ladder path — uniform narrow and
// wide spans, heavy same-instant ties, bimodal near+far (the
// DownDeadline shape) — first push-all/pop-all, then a hold-model
// interleaving, asserting the pop sequences match exactly.
func TestQueueDifferentialDistributions(t *testing.T) {
	dists := []struct {
		name string
		gen  func(r *xorshift) Time
	}{
		{"narrow", func(r *xorshift) Time { return Time(r.next() % 1000) }},
		{"wide", func(r *xorshift) Time { return Time(r.next() % (1 << 40)) }},
		{"ties", func(r *xorshift) Time { return Time(r.next()%16) * 1000 }},
		{"constant", func(r *xorshift) Time { return 42 }},
		{"bimodal", func(r *xorshift) Time {
			if r.next()%8 == 0 {
				return Time(1<<40 + r.next()%1000)
			}
			return Time(r.next() % 1000)
		}},
		// The faults workload's shape: a rare far-future timer stays
		// resident in top while near-time churn, a few hundred deep,
		// lands in the bottom as zero-delay hops (ties at the head) or
		// timers past the resident events (near its end).
		{"faults", func(r *xorshift) Time {
			switch x := r.next() % 64; {
			case x == 0:
				return Time(1<<40 + r.next()%1000)
			case x < 32:
				return 0
			default:
				return Time(900 + r.next()%100)
			}
		}},
	}
	sizes := []int{1, 10, 300, 1000, 30000}
	for _, d := range dists {
		for _, n := range sizes {
			t.Run(fmt.Sprintf("%s/n=%d", d.name, n), func(t *testing.T) {
				ref := &refQueue{}
				lq := newLadderQueue()
				r := xorshift(0xdeadbeef ^ uint64(n))
				var seq uint64
				push := func(tm Time) {
					seq++
					ref.push(&event{t: tm, seq: seq})
					lq.push(&event{t: tm, seq: seq})
				}
				popBoth := func() Time {
					a, b := ref.pop(), lq.pop()
					if a.t != b.t || a.seq != b.seq {
						t.Fatalf("pop mismatch: reference (%v, %d) vs ladder (%v, %d)", a.t, a.seq, b.t, b.seq)
					}
					return a.t
				}

				for i := 0; i < n; i++ {
					push(d.gen(&r))
				}
				// Hold-model interleaving: pop the earliest, push a
				// replacement later than it.
				for i := 0; i < 2*n; i++ {
					tm := popBoth()
					push(tm + d.gen(&r)%1000 + 1)
				}
				for i := 0; i < n; i++ {
					popBoth()
				}
				if tm, ok := lq.peek(); ok {
					t.Fatalf("ladder not empty after drain: peek %v", tm)
				}
				if lq.n != 0 || len(*ref) != 0 {
					t.Fatalf("residual events: ladder %d, reference %d", lq.n, len(*ref))
				}
			})
		}
	}
}

// TestLadderFarFutureTimer pins the epoch/overflow story: one resident
// far-future timer (the DownDeadline shape) must not break ordering —
// and must not make near-time churn grow the bottom array without
// bound.
func TestLadderFarFutureTimer(t *testing.T) {
	lq := newLadderQueue()
	var seq uint64
	push := func(tm Time) {
		seq++
		lq.push(&event{t: tm, seq: seq})
	}
	const far = Time(1) << 40
	push(far)
	for i := 0; i < 10000; i++ {
		push(Time(i))
		e := lq.pop()
		if e.t != Time(i) {
			t.Fatalf("near churn pop %d: got t=%v", i, e.t)
		}
	}
	if e := lq.pop(); e.t != far {
		t.Fatalf("far timer popped at t=%v, want %v", e.t, far)
	}
	if got := len(lq.bottom); got > 64 {
		t.Fatalf("bottom grew to %d slots under near-time churn; dead-prefix reclamation is broken", got)
	}
}

// TestLadderBottomChurnMoves bounds the slots insertBottom copies per
// insert on the faults workload's queue shape. A far-future timer keeps
// the queue from draining, so no rung is ever spawned and every booking
// lands in the bottom, a few hundred events deep. Most bookings are
// zero-delay hops or short steps (near the head) or timers past the
// resident events (near the end), so the run should move a few slots
// per insert — not the whole live run, as compacting the dead prefix
// before every insert did.
func TestLadderBottomChurnMoves(t *testing.T) {
	lq := newLadderQueue()
	ref := &refQueue{}
	var seq uint64
	push := func(tm Time) {
		seq++
		ref.push(&event{t: tm, seq: seq})
		lq.push(&event{t: tm, seq: seq})
	}
	pop := func() Time {
		a, b := ref.pop(), lq.pop()
		if a.t != b.t || a.seq != b.seq {
			t.Fatalf("pop mismatch: reference (%v, %d) vs ladder (%v, %d)", a.t, a.seq, b.t, b.seq)
		}
		return a.t
	}
	const far, depth, horizon, inserts = Time(1) << 40, 300, 10000, 100000
	push(far)
	push(0)
	pop() // sorts top into the bottom; every later push below far lands there
	r := xorshift(0x5eed)
	for i := 0; i < depth; i++ {
		push(Time(r.next() % horizon))
	}
	lq.moved = 0
	for i := 0; i < inserts; i++ {
		now := pop()
		var d Time
		switch x := r.next() % 8; {
		case x < 4: // zero-delay hop
		case x < 6: // short service step
			d = Time(r.next() % 50)
		default: // a timer past the resident events
			d = horizon + Time(r.next()%1000)
		}
		push(now + d)
		if lq.nr != 0 {
			t.Fatalf("insert %d spawned a rung; the queue lost the faults shape", i)
		}
	}
	per := float64(lq.moved) / inserts
	t.Logf("%.2f slots moved per insert at depth %d", per, depth)
	if per > 4 {
		t.Fatalf("%.2f slots moved per bottom insert at depth %d, want at most 4", per, depth)
	}
	if got := len(lq.bottom); got > 4*depth {
		t.Fatalf("bottom grew to %d slots at depth %d", got, depth)
	}
}

// TestKernelMaxPending: the high-water mark counts the deepest the
// queue got.
func TestKernelMaxPending(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 37; i++ {
		k.At(Time(i), func() {})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := k.MaxPending(); got != 37 {
		t.Fatalf("MaxPending = %d, want 37", got)
	}
	if got := k.q.n; got != 0 {
		t.Fatalf("Pending after drain = %d", got)
	}
}
