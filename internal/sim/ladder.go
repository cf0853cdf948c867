package sim

// This file implements a ladder queue (Tang, Goh & Thng's refinement of
// the calendar queue): a priority queue over events with amortized O(1)
// push and pop. It is the kernel's only event queue, on the hottest
// path of every simulation. See DESIGN.md §12 for the invariants, the
// ordering proof sketch and the end-to-end numbers; the short version:
//
//   - The queue is a hierarchy of "rungs", each an array of equal-width
//     time buckets covering a half-open interval. Rung 0 is the
//     coarsest; each deeper rung refines one overloaded bucket of its
//     parent. Above the rungs sits "top", an unsorted spill list for
//     events at or beyond topStart — far-future timers (an I/O node's
//     DownDeadline, a tournament's end-of-run report) land there and
//     are not touched again until the clock approaches them. Below the
//     rungs sits "bottom", a small sorted array consumed by a cursor:
//     the only place events are ever compared pairwise.
//
//   - Exactness, not approximation: pop order is the kernel's (time,
//     seq) total order. Bucketing by time can never split a (t, seq)
//     tie across buckets, and within one bucket events are appended in
//     ascending seq order (pushes book seq monotonically;
//     redistribution preserves relative order), so sorting a bucket by
//     (t, seq) with a stable comparison reproduces the global order
//     exactly. FuzzQueueOrder and TestQueueDifferentialDistributions
//     check it against a sorted-slice reference model, and detgate's
//     golden digests pin it end to end.
//
//   - All storage (bucket arrays, bottom, top, sort scratch) is
//     retained and reused across operations, so the steady state
//     allocates nothing — gated by `detgate -allocs` via
//     BenchmarkQueuePushPop. It lives as long as the kernel.
//
// Domain: event times in [0, 1<<62), the kernel's legal range (booking
// in the past panics, Run's deadline is 1<<62 - 1). Within it the rung
// arithmetic (start + width*buckets ≤ end + span) cannot overflow;
// FuzzQueueOrder exercises the full range.
const (
	// ladderThresh is the bucket occupancy above which a consuming pop
	// spawns a refining rung instead of sorting the bucket directly.
	// Below it, an insertion sort of the bucket is cheaper than another
	// level of bucketing.
	ladderThresh = 48

	// ladderMaxRungs caps refinement depth. A bucket that is still
	// overloaded at the deepest rung is merge-sorted — correct at any
	// size, just not O(1) — so pathological distributions degrade
	// gracefully instead of recursing without bound.
	ladderMaxRungs = 10

	// ladderMaxBuckets caps one rung's bucket count, bounding resident
	// memory for huge spawns; the width is re-widened to keep the rung
	// covering its whole interval.
	ladderMaxBuckets = 1 << 15

	// ladderMinTime is below every legal event time (kernels never
	// schedule before time 0, but Time is signed; this leaves headroom
	// either way). An empty queue resets topStart here so the first
	// push always lands in top.
	ladderMinTime = Time(-1) << 62
)

// ladderRung is one refinement level: count events spread over
// len(buckets) buckets of width ticks each, starting at start. cur
// indexes the lowest bucket not yet consumed; events with
// t < start+width*cur no longer belong to this rung.
type ladderRung struct {
	start   Time
	width   Time // ≥ 1 tick
	cur     int
	count   int
	buckets [][]*event
}

// curStart is the left edge of the rung's current bucket — the rung's
// admission threshold: pushes with t ≥ curStart (and below the rung
// above's threshold) belong here.
func (r *ladderRung) curStart() Time { return r.start + r.width*Time(r.cur) }

// ladderQueue is the queue proper. Invariants between operations:
//
//   - bottom[bot:] is sorted ascending by (t, seq) and holds the
//     globally earliest events: everything in the rungs is ≥ the
//     consumed bucket's right edge, everything in top is ≥ topStart.
//   - Admission thresholds are monotone: topStart ≥ rung 0's curStart ≥
//     rung 1's curStart ≥ … — each deeper rung refines an interval that
//     ends at (or below) its parent's threshold, and thresholds only
//     move right. A push scans top, then rungs coarsest-first, and the
//     first interval that admits t is the correct one.
//   - Every bucket (and top) holds its events in ascending seq order.
type ladderQueue struct {
	n int // total resident events

	bottom []*event // sorted run being consumed
	bot    int      // consumption cursor into bottom

	top      []*event // unsorted far-future spill: every t ≥ topStart
	topMin   Time     // min/max event time in top (valid when top is non-empty)
	topMax   Time
	topStart Time // admission threshold for top

	nr    int // rungs in use: rungs[0..nr-1], rungs[nr-1] is the deepest
	rungs [ladderMaxRungs]ladderRung

	scratch []*event // reused merge-sort buffer
}

// reset puts the queue in its initial state: empty, holding no storage,
// with the top threshold below every event time so the first push lands
// in top.
func (q *ladderQueue) reset() { *q = ladderQueue{topStart: ladderMinTime} }

// push inserts a booked event. Amortized O(1): almost every push is one
// threshold comparison and an append; only events earlier than the
// deepest rung's current bucket pay a binary-search insert into bottom.
func (q *ladderQueue) push(e *event) {
	q.n++
	if e.t >= q.topStart {
		if len(q.top) == 0 {
			q.topMin, q.topMax = e.t, e.t
		} else if e.t < q.topMin {
			q.topMin = e.t
		} else if e.t > q.topMax {
			q.topMax = e.t
		}
		q.top = append(q.top, e)
		return
	}
	for k := 0; k < q.nr; k++ {
		r := &q.rungs[k]
		if e.t >= r.curStart() {
			idx := int((e.t - r.start) / r.width)
			r.buckets[idx] = append(r.buckets[idx], e)
			r.count++
			return
		}
	}
	q.insertBottom(e)
}

// insertBottom places an event into the sorted live run. New events
// always carry a fresh (larger) seq, so on a time tie they sort after
// every resident event with the same t — the binary search below
// therefore only compares times.
func (q *ladderQueue) insertBottom(e *event) {
	lo, hi := q.bot, len(q.bottom)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if q.bottom[mid].t <= e.t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == q.bot && q.bot > 0 {
		// Reuse the dead slot just before the cursor — the common shape
		// of below-threshold churn (the new event becomes the head), so
		// repeated push/pop at the cursor is O(1) and grows nothing.
		q.bot--
		q.bottom[q.bot] = e
		return
	}
	if q.bot > 0 {
		// Compact the dead prefix before growing the array: with a
		// resident far-future event keeping the queue non-empty, near-
		// time churn would otherwise append one slot per push forever.
		live := copy(q.bottom, q.bottom[q.bot:])
		for i := live; i < len(q.bottom); i++ {
			q.bottom[i] = nil
		}
		q.bottom = q.bottom[:live]
		lo -= q.bot
		q.bot = 0
	}
	q.bottom = append(q.bottom, nil)
	copy(q.bottom[lo+1:], q.bottom[lo:])
	q.bottom[lo] = e
}

// peek reports the earliest pending event time.
func (q *ladderQueue) peek() (Time, bool) {
	if !q.ensure() {
		return 0, false
	}
	return q.bottom[q.bot].t, true
}

// pop removes and returns the earliest event in (t, seq) order.
func (q *ladderQueue) pop() *event {
	if !q.ensure() {
		panic("sim: pop from empty ladder queue")
	}
	e := q.bottom[q.bot]
	q.bottom[q.bot] = nil
	q.bot++
	q.n--
	if q.n == 0 {
		// Fully drained: recycle the whole structure so the next burst
		// of pushes re-seeds top from scratch with a fresh epoch. This
		// is the overflow/epoch story — thresholds only ever move
		// right within one occupancy, and reset only at emptiness.
		q.bottom = q.bottom[:0]
		q.bot = 0
		q.nr = 0
		q.topStart = ladderMinTime
	}
	return e
}

// ensure refills bottom when the cursor has exhausted it, pulling the
// next batch of events from the deepest rung (or seeding the first rung
// from top). Returns false when the queue is empty.
func (q *ladderQueue) ensure() bool {
	if q.bot < len(q.bottom) {
		return true
	}
	if q.n == 0 {
		return false
	}
	q.bottom = q.bottom[:0]
	q.bot = 0
	for {
		if q.nr > 0 {
			r := &q.rungs[q.nr-1]
			if r.count == 0 {
				// Deepest rung exhausted; retire it and resume its parent.
				q.nr--
				continue
			}
			for len(r.buckets[r.cur]) == 0 {
				r.cur++
			}
			b := r.buckets[r.cur]
			bMin, bMax := b[0].t, b[0].t
			for _, e := range b[1:] {
				if e.t < bMin {
					bMin = e.t
				} else if e.t > bMax {
					bMax = e.t
				}
			}
			if len(b) > ladderThresh && bMax > bMin && q.nr < ladderMaxRungs {
				// Overloaded bucket: refine it into a child rung. The
				// child's interval runs to the bucket's nominal right
				// edge (not bMax+1) so later pushes that fall below
				// the parent's advanced threshold are always admitted
				// by the child. Consuming the bucket advances cur
				// first, keeping the threshold chain monotone.
				end := r.start + r.width*Time(r.cur+1)
				r.count -= len(b)
				r.cur++
				q.spawn(b, bMin, end)
				r.buckets[r.cur-1] = b[:0]
				continue
			}
			// Small (or same-instant: bMax == bMin cannot be refined)
			// bucket: sort it straight into bottom.
			q.sortInto(b)
			r.count -= len(b)
			r.buckets[r.cur] = b[:0]
			r.cur++
			return true
		}
		if len(q.top) > 0 {
			if len(q.top) > ladderThresh && q.topMax > q.topMin {
				q.spawn(q.top, q.topMin, q.topMax+1)
				q.top = q.top[:0]
				q.topStart = q.topMax + 1
				continue
			}
			q.sortInto(q.top)
			q.top = q.top[:0]
			q.topStart = q.topMax + 1
			return true
		}
		panic("sim: ladder queue lost events")
	}
}

// spawn builds the next rung over the half-open interval [min, end) and
// distributes evs into it, preserving their relative (seq) order within
// each bucket. The bucket width targets ~1 event per bucket; the count
// cap re-widens for very large spawns. Storage from the rung's previous
// occupancy is reused.
func (q *ladderQueue) spawn(evs []*event, min, end Time) {
	r := &q.rungs[q.nr]
	q.nr++
	span := end - min
	w := span / Time(len(evs))
	if w < 1 {
		w = 1
	}
	nb := int((span + w - 1) / w)
	if nb > ladderMaxBuckets {
		nb = ladderMaxBuckets
		w = (span + Time(nb) - 1) / Time(nb)
	}
	if cap(r.buckets) >= nb {
		r.buckets = r.buckets[:nb]
	} else {
		grown := make([][]*event, nb)
		copy(grown, r.buckets[:cap(r.buckets)])
		r.buckets = grown
	}
	for i := range r.buckets {
		r.buckets[i] = r.buckets[i][:0]
	}
	r.start, r.width, r.cur, r.count = min, w, 0, len(evs)
	for _, e := range evs {
		idx := int((e.t - min) / w)
		r.buckets[idx] = append(r.buckets[idx], e)
	}
}

// sortInto copies b into bottom and sorts it ascending by (t, seq). b
// already holds same-time runs in ascending seq order, so a stable sort
// keyed on time alone would suffice; the comparison includes seq anyway
// so the invariant is enforced, not assumed.
func (q *ladderQueue) sortInto(b []*event) {
	q.bottom = append(q.bottom[:0], b...)
	q.bot = 0
	sortEvents(q.bottom, &q.scratch)
}

func eventLess(a, b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// sortEvents sorts a ascending by (t, seq): insertion sort for short
// runs, bottom-up merge sort (stable, no per-call allocation beyond the
// reusable scratch buffer) above that. sort.Slice is avoided — its
// closure and interface header allocate on every call, and this runs on
// the zero-alloc pop path.
func sortEvents(a []*event, scratch *[]*event) {
	const runLen = 32
	n := len(a)
	if n <= 1 {
		return
	}
	for lo := 0; lo < n; lo += runLen {
		hi := lo + runLen
		if hi > n {
			hi = n
		}
		insertionSortEvents(a[lo:hi])
	}
	if n <= runLen {
		return
	}
	s := *scratch
	if cap(s) < n {
		s = make([]*event, n)
		*scratch = s
	}
	s = s[:n]
	src, dst := a, s
	for width := runLen; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid := lo + width
			hi := lo + 2*width
			if mid > n {
				mid = n
			}
			if hi > n {
				hi = n
			}
			mergeEvents(dst[lo:hi], src[lo:mid], src[mid:hi])
		}
		src, dst = dst, src
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
}

func insertionSortEvents(a []*event) {
	for i := 1; i < len(a); i++ {
		e := a[i]
		j := i - 1
		for j >= 0 && eventLess(e, a[j]) {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = e
	}
}

// mergeEvents merges two sorted runs into out (len(out) == len(x)+len(y)).
func mergeEvents(out, x, y []*event) {
	i, j, k := 0, 0, 0
	for i < len(x) && j < len(y) {
		if eventLess(y[j], x[i]) {
			out[k] = y[j]
			j++
		} else {
			out[k] = x[i]
			i++
		}
		k++
	}
	for i < len(x) {
		out[k] = x[i]
		i++
		k++
	}
	for j < len(y) {
		out[k] = y[j]
		j++
		k++
	}
}
