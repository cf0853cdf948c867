package workload

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// PatternRNG is the single point where randomness enters a workload:
// every randomized pattern choice draws from a generator seeded by the
// Spec's own Seed and the node's rank — never from the global math/rand
// source — so a Spec replays the exact same access sequence on every
// run. Exported so reference models (internal/simcheck) can regenerate a
// node's sequence without running the simulator. The rank mixing
// constant is the FNV-64 prime, keeping per-node streams decorrelated
// while staying a pure function of (Seed, rank).
func PatternRNG(s Spec, rank int) *rand.Rand {
	return rand.New(rand.NewSource(s.Seed + int64(rank)*1099511628211))
}

// Fingerprint digests everything the simulated machine did — timing,
// byte counts, per-node delivery digests, latency samples, stripe,
// fault and prefetch counters, and the QoS ledger — into one 64-bit
// value. It is the model half of a run's digest: how the kernel booked
// the run (Result.Engine) is left out, so a change that simulates the
// same behaviour with fewer events keeps it. Two runs of the same Spec
// on the same machine config must fingerprint equal; this is the
// determinism oracle's whole-run comparison. (The trace log has its own
// Digest covering event-by-event history.)
func (r *Result) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(uint64(r.Elapsed))
	put(uint64(r.TotalBytes))
	put(uint64(r.ReadCalls))
	put(uint64(r.IOBytes))
	put(math.Float64bits(r.Bandwidth))
	for _, t := range r.NodeTimes {
		put(uint64(t))
	}
	for _, d := range r.DeliveryDigests {
		put(d)
	}
	put(uint64(r.UnavailableReads))
	put(uint64(r.UnavailableBytes))
	for _, b := range r.NodeUnavailableBytes {
		put(uint64(b))
	}
	put(r.ReadTime.Fingerprint())
	if r.Machine != nil {
		put(uint64(r.Machine.FS.StripeRequests))
		for _, b := range r.Machine.IONodeBytes() {
			put(uint64(b))
		}
		for _, s := range r.Machine.Servers {
			put(uint64(s.Requests))
			put(uint64(s.Faults))
			put(uint64(s.Shed))
			put(uint64(s.Crashes))
			put(uint64(s.Restarts))
			put(uint64(s.Dropped))
		}
		fs := r.Machine.FS
		for _, v := range []int64{fs.Retries, fs.Timeouts, fs.GiveUps,
			fs.DegradedReads, fs.LateReplies, fs.LateBytes,
			fs.DownWaits, fs.Unavailable, fs.AbandonedBytes} {
			put(uint64(v))
		}
		put(uint64(r.Machine.Mesh.Dropped))
		for _, a := range r.Machine.Arrays {
			put(uint64(a.MemberFails))
			put(uint64(a.DegradedReads))
			put(uint64(a.RebuildIOs))
			put(uint64(a.RebuildBytes))
			put(uint64(a.RebuildDoneAt))
		}
	}
	if p := r.Prefetch; p != nil {
		for _, v := range []int64{p.Issued, p.Hits, p.HitsInWait, p.Misses,
			p.Wasted, p.Skipped, p.Fallbacks, p.Throttled, p.Retired,
			p.BytesCopied, p.BytesDirect} {
			put(uint64(v))
		}
		put(p.WaitTime.Fingerprint())
		// The zoo/controller/close-accounting counters hash only when
		// their feature is live: the FNV fold is order- and
		// length-sensitive, so appending even a constant zero would move
		// every legacy golden digest for runs that cannot have them.
		if p.UnreadAtClose != 0 {
			put(uint64(p.UnreadAtClose))
		}
		if zoo := p.Zoo(); zoo != nil {
			for _, s := range zoo.Totals() {
				for _, v := range []int64{s.Predicted, s.Correct, s.Issued,
					s.Consumed, s.Wasted, s.Unread} {
					put(uint64(v))
				}
			}
		}
		if depth, bufs, on := p.Tuning(); on {
			put(uint64(p.Retunes))
			put(uint64(depth))
			put(uint64(bufs))
		}
	}
	if ss := r.ServerSide; ss != nil {
		put(uint64(ss.Hints))
		put(uint64(ss.Reads))
	}
	// The QoS ledger folds last and only when armed (RunQoS): legacy
	// runs never allocate it, so every pre-QoS golden digest is
	// untouched. Every per-tenant counter participates so a run
	// that mis-routes even one request to the wrong tenant diverges.
	if q := r.QoS; q != nil {
		put(uint64(len(q.Tenants)))
		for i := range q.Tenants {
			ts := &q.Tenants[i]
			for _, v := range []int64{int64(ts.Weight), ts.Requests,
				ts.Done, ts.Throttled, ts.Overloaded, ts.Failed,
				ts.Bytes, ts.SLOMet, int64(ts.SumLatency),
				int64(ts.MaxLatency), ts.IOBytes, ts.LateBytes,
				ts.AbandonedBytes, ts.SrvArrived, ts.SrvServed,
				ts.SrvShed, ts.SrvFaulted, ts.SrvDropped, ts.SrvBytes} {
				put(uint64(v))
			}
		}
		put(q.Latency.Fingerprint())
		for _, v := range []int64{q.Arrivals, q.Throttled, q.Overloaded,
			q.Failed, q.SLOMet} {
			put(uint64(v))
		}
		put(uint64(q.SLO))
	}
	return h.Sum64()
}
