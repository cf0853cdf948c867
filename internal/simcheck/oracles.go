package simcheck

import (
	"fmt"
	"sort"

	"repro/internal/machine"
	"repro/internal/pfs"
	"repro/internal/trace"
	"repro/internal/workload"
)

// A Failure is one oracle violation, tagged with the seed that replays it.
type Failure struct {
	Seed   int64
	Oracle string // determinism | data | conservation | sanity
	Detail string
}

func (f Failure) Error() string {
	return fmt.Sprintf("seed %d: %s oracle: %s", f.Seed, f.Oracle, f.Detail)
}

// run is one simulation execution with its trace attached.
type run struct {
	res *workload.Result
	tl  *trace.Log
	err error
}

// traceCap bounds the per-run trace log. Scenario files are a few MB at
// most, so full traces are a few thousand events; the sanity oracle
// asserts nothing was dropped.
const traceCap = 1 << 18

// execute builds a fresh machine for the scenario and drives it once.
// The spec may be tweaked by the caller (reference runs, delay bumps).
func execute(cfg machine.Config, spec workload.Spec) run {
	tl := trace.NewLog(traceCap)
	spec.Trace = tl
	res, err := workload.Run(cfg, spec)
	return run{res: res, tl: tl, err: err}
}

// checkDeterminism compares two executions of the identical scenario:
// their model fingerprints, their engine census (Result.Engine, which no
// golden pins but one build must still reproduce) and their trace
// digests.
func checkDeterminism(seed int64, a, b run) []Failure {
	var fs []Failure
	fail := func(format string, args ...any) {
		fs = append(fs, Failure{Seed: seed, Oracle: "determinism", Detail: fmt.Sprintf(format, args...)})
	}
	switch {
	case (a.err == nil) != (b.err == nil):
		fail("run 1 error %v, run 2 error %v", a.err, b.err)
	case a.err != nil:
		if a.err.Error() != b.err.Error() {
			fail("error text differs:\n  run 1: %v\n  run 2: %v", a.err, b.err)
		}
	default:
		if fa, fb := a.res.Fingerprint(), b.res.Fingerprint(); fa != fb {
			fail("result fingerprints differ: %016x vs %016x", fa, fb)
		}
		if ea, eb := a.res.Engine, b.res.Engine; ea != eb {
			fail("engine census differs: %+v vs %+v", ea, eb)
		}
		if da, db := a.tl.Digest(), b.tl.Digest(); da != db {
			fail("trace digests differ: %016x vs %016x (%d vs %d events)",
				da, db, len(a.tl.Events()), len(b.tl.Events()))
		}
	}
	return fs
}

// checkSanity asserts the basic well-formedness of one successful run.
func checkSanity(seed int64, sc Scenario, r run) []Failure {
	var fs []Failure
	fail := func(format string, args ...any) {
		fs = append(fs, Failure{Seed: seed, Oracle: "sanity", Detail: fmt.Sprintf(format, args...)})
	}
	res := r.res
	if res.Elapsed <= 0 {
		fail("elapsed %v not positive", res.Elapsed)
	}
	if res.Bandwidth <= 0 {
		fail("bandwidth %.3f not positive", res.Bandwidth)
	}
	for i, t := range res.NodeTimes {
		if t <= 0 || t > res.Elapsed {
			fail("node %d completion %v outside (0, %v]", i, t, res.Elapsed)
		}
	}
	if live := res.Machine.K.Live(); live != 0 {
		fail("%d process(es) still live after run", live)
	}
	if r.tl.Dropped() > 0 {
		fail("trace log dropped %d events (capacity %d too small for oracle use)", r.tl.Dropped(), traceCap)
	}
	if res.ReadTime.N() != int(res.ReadCalls) {
		fail("read latency histogram has %d samples for %d read calls", res.ReadTime.N(), res.ReadCalls)
	}
	if min := res.ReadTime.Min(); min < 0 {
		fail("negative read latency %v", min)
	}
	return fs
}

// checkRecovered asserts the fault-tolerance contract of a recoverable
// scenario's successful run: no retry budget ran out anywhere — not even
// on a speculative prefetch, whose give-up would have been masked by the
// fallback path — and the books of the retry layer are internally
// consistent.
func checkRecovered(seed int64, r run) []Failure {
	var fs []Failure
	fail := func(format string, args ...any) {
		fs = append(fs, Failure{Seed: seed, Oracle: "recovery", Detail: fmt.Sprintf(format, args...)})
	}
	fc := r.res.Fault
	if fc.GiveUps != 0 {
		fail("%d piece(s) exhausted the retry budget under purely transient faults", fc.GiveUps)
	}
	if fc.DiskPermanent != 0 {
		fail("%d permanent faults injected in a transient-only profile", fc.DiskPermanent)
	}
	if got := int64(r.tl.Count(trace.RetryIssue)); r.tl.Dropped() == 0 && got != fc.Retries {
		fail("trace recorded %d retry-issue events, counters say %d", got, fc.Retries)
	}
	if got := int64(r.tl.Count(trace.TimeoutFired)); r.tl.Dropped() == 0 && got != fc.Timeouts {
		fail("trace recorded %d timeout-fired events, counters say %d", got, fc.Timeouts)
	}
	return fs
}

// checkCrash is the crash-chaos oracle set: over a run with scheduled
// whole-node outages (and maybe a permanent member loss plus rebuild),
// it proves that every byte a node requested was delivered correctly,
// counted late, or counted unavailable — never silently lost — and that
// the crash-domain bookkeeping is internally consistent.
func checkCrash(seed int64, sc Scenario, r run) []Failure {
	var fs []Failure
	fail := func(format string, args ...any) {
		fs = append(fs, Failure{Seed: seed, Oracle: "crash", Detail: fmt.Sprintf(format, args...)})
	}
	res := r.res
	fc := res.Fault

	// The failover layer never burns a retry budget: the per-attempt
	// deadline is far above every healthy service time, down nodes are
	// recognized and waited out or declared unavailable, and there are no
	// injected disk faults to retry.
	if fc.GiveUps != 0 {
		fail("%d piece(s) exhausted the retry budget despite restart-aware failover", fc.GiveUps)
	}

	// Per node: the reference model says which ranges the node was owed.
	// The delivered list must be that sequence minus exactly the reads
	// counted unavailable — an order-preserving subsequence, every range
	// verbatim (content is position-defined, so matching (off,n) pairs is
	// byte-for-byte correctness).
	req := sc.Spec.RequestSize
	for i, got := range res.Deliveries {
		want := expectedDeliveries(sc.Spec, sc.Cfg.ComputeNodes, i)
		var wantBytes, gotBytes int64
		for _, d := range want {
			wantBytes += d.N
		}
		for _, d := range got {
			gotBytes += d.N
		}
		if wantBytes != gotBytes+res.NodeUnavailableBytes[i] {
			fail("node %d: owed %d bytes, delivered %d + unavailable %d",
				i, wantBytes, gotBytes, res.NodeUnavailableBytes[i])
			continue
		}
		skipped := int64(0)
		w := 0
		ok := true
		for _, d := range got {
			for w < len(want) && want[w] != d {
				skipped++
				w++
			}
			if w == len(want) {
				fail("node %d: delivered [%d,+%d) is not in the owed sequence (order or range mismatch)",
					i, d.Off, d.N)
				ok = false
				break
			}
			w++
		}
		if !ok {
			continue
		}
		skipped += int64(len(want) - w)
		if skipped*req != res.NodeUnavailableBytes[i] {
			fail("node %d: %d owed read(s) undelivered, but %d counted unavailable",
				i, skipped, res.NodeUnavailableBytes[i]/req)
		}
	}

	// Unavailable tallies cross-foot: per-node sums match the totals, and
	// every unavailable read traces back to at least one piece the
	// failover layer declared unavailable.
	var nodeUnavail int64
	for _, b := range res.NodeUnavailableBytes {
		nodeUnavail += b
	}
	if nodeUnavail != res.UnavailableBytes || res.UnavailableBytes != res.UnavailableReads*req {
		fail("unavailable accounting: node sum %d, total %d, %d reads × %d",
			nodeUnavail, res.UnavailableBytes, res.UnavailableReads, req)
	}
	if res.UnavailableReads > 0 && fc.Unavailable == 0 {
		fail("%d read(s) unavailable but no piece was declared unavailable", res.UnavailableReads)
	}

	// Delivered ranges account for every byte the applications read.
	var delivered int64
	for _, ranges := range res.Deliveries {
		for _, d := range ranges {
			delivered += d.N
		}
	}
	if delivered != res.TotalBytes {
		fail("delivery records cover %d bytes, applications read %d", delivered, res.TotalBytes)
	}

	// Bytes leaving the I/O nodes are conserved: consumed over the fast
	// path, discarded as a late reply, or served inside a read that
	// overall failed (abandoned) — nothing minted, nothing lost.
	var served int64
	for _, s := range res.Machine.Servers {
		served += s.BytesServed
	}
	if served != res.IOBytes+fc.LateBytes+fc.AbandonedBytes {
		fail("I/O nodes served %d bytes, fast path accounted %d (+%d late, +%d abandoned)",
			served, res.IOBytes, fc.LateBytes, fc.AbandonedBytes)
	}

	// The prefetcher classifies every read routed through it — including
	// the ones that came back unavailable — exactly once, and delivered
	// bytes split cleanly between buffer copies and direct reads.
	if p := res.Prefetch; p != nil {
		servedReads := p.Hits + p.HitsInWait + p.Misses + p.Fallbacks
		if want := res.ReadCalls + res.UnavailableReads; servedReads != want {
			fail("prefetch counters sum to %d (%d hit + %d wait + %d miss + %d fallback), want %d reads (%d ok + %d unavailable)",
				servedReads, p.Hits, p.HitsInWait, p.Misses, p.Fallbacks, want, res.ReadCalls, res.UnavailableReads)
		}
		if p.BytesCopied+p.BytesDirect != res.TotalBytes {
			fail("prefetcher delivered %d buffer + %d direct bytes, applications read %d",
				p.BytesCopied, p.BytesDirect, res.TotalBytes)
		}
	}

	// Lifecycle bookkeeping: the kernel drains every scheduled event, so
	// each crash has fired and each crashed node has restarted by the time
	// the run returns; the trace saw the same transitions the counters did.
	if !sc.Cfg.Crash.Enabled() {
		fail("crash scenario generated without a crash plan")
	} else if fc.NodeCrashes == 0 {
		fail("crash plan armed but no node crashed")
	}
	if fc.NodeRestarts != fc.NodeCrashes {
		fail("%d crash(es) but %d restart(s)", fc.NodeCrashes, fc.NodeRestarts)
	}
	if r.tl.Dropped() == 0 {
		for _, c := range []struct {
			kind trace.Kind
			n    int64
		}{
			{trace.NodeCrash, fc.NodeCrashes},
			{trace.NodeRestart, fc.NodeRestarts},
			{trace.DegradedRead, fc.ArrayDegraded},
			{trace.RebuildIO, fc.RebuildIOs},
			{trace.RetryIssue, fc.Retries},
			{trace.TimeoutFired, fc.Timeouts},
		} {
			if got := int64(r.tl.Count(c.kind)); got != c.n {
				fail("trace recorded %d %v events, counters say %d", got, c.kind, c.n)
			}
		}
	}

	// Member loss and rebuild: the failure fired, and an armed rebuild
	// finished before the kernel drained — the array ends healthy.
	if mf := sc.Cfg.MemberFail; mf.Enabled() {
		if fc.MemberFails != 1 {
			fail("member-fail plan armed but %d member(s) failed", fc.MemberFails)
		}
		a := res.Machine.Arrays[mf.Array]
		if sc.Cfg.Rebuild.Chunk > 0 {
			if a.RebuildDoneAt == 0 || a.Degraded() || a.Rebuilding() {
				fail("rebuild did not complete: doneAt=%v degraded=%v rebuilding=%v",
					a.RebuildDoneAt, a.Degraded(), a.Rebuilding())
			}
			if got := int64(r.tl.Count(trace.RebuildDone)); r.tl.Dropped() == 0 && got != 1 {
				fail("trace recorded %d rebuild-done events, want 1", got)
			}
		} else if !a.Degraded() {
			fail("no rebuild armed but the array is not degraded at run end")
		}
	}
	return fs
}

// checkMonotone asserts that adding compute delay never makes the run
// finish earlier. base succeeded with sc.Spec; slower is the same
// scenario with a strictly larger ComputeDelay.
func checkMonotone(seed int64, base, slower run) []Failure {
	if slower.err != nil {
		return []Failure{{Seed: seed, Oracle: "sanity",
			Detail: fmt.Sprintf("delay-bumped rerun failed: %v", slower.err)}}
	}
	if slower.res.Elapsed < base.res.Elapsed {
		return []Failure{{Seed: seed, Oracle: "sanity",
			Detail: fmt.Sprintf("elapsed decreased when compute delay increased: %v -> %v",
				base.res.Elapsed, slower.res.Elapsed)}}
	}
	return nil
}

// checkConservation cross-foots the byte and counter accounting of one
// successful, fault-free run.
func checkConservation(seed int64, sc Scenario, r run) []Failure {
	var fs []Failure
	fail := func(format string, args ...any) {
		fs = append(fs, Failure{Seed: seed, Oracle: "conservation", Detail: fmt.Sprintf(format, args...)})
	}
	res := r.res

	// Delivered ranges must account for every byte the applications read.
	var delivered int64
	for _, ranges := range res.Deliveries {
		for _, d := range ranges {
			delivered += d.N
		}
	}
	if delivered != res.TotalBytes {
		fail("delivery records cover %d bytes, applications read %d", delivered, res.TotalBytes)
	}

	// Every byte pulled over the fast path by user-facing instances left
	// an I/O node exactly once, and vice versa: nothing minted, nothing
	// double-served. (Server-side cache hints do not count as service.)
	// Under the retry layer one slack term appears: a reply that lost the
	// race against its attempt's deadline was served and paid for on the
	// mesh but discarded by the client, so served bytes may exceed the
	// fast-path account by exactly the late-reply bytes.
	var served int64
	for _, s := range res.Machine.Servers {
		served += s.BytesServed
	}
	if served != res.IOBytes+res.Fault.LateBytes {
		fail("I/O nodes served %d bytes, fast path accounted %d (+%d late)",
			served, res.IOBytes, res.Fault.LateBytes)
	}

	// The prefetcher must classify every read it served, exactly once:
	// hits + waited hits + misses + fallbacks = reads routed through it.
	if p := res.Prefetch; p != nil {
		servedReads := p.Hits + p.HitsInWait + p.Misses + p.Fallbacks
		wantReads := res.ReadCalls
		if sc.Spec.Mode == pfs.MGlobal {
			// Only the broadcast root routes through the prefetcher.
			wantReads /= int64(sc.Cfg.ComputeNodes)
		}
		if servedReads != wantReads {
			fail("prefetch counters sum to %d (%d hit + %d wait + %d miss + %d fallback), want %d reads",
				servedReads, p.Hits, p.HitsInWait, p.Misses, p.Fallbacks, wantReads)
		}
		// The trace saw the same decisions the counters did.
		if r.tl.Dropped() == 0 {
			for _, c := range []struct {
				kind trace.Kind
				n    int64
			}{
				{trace.PrefetchHit, p.Hits},
				{trace.PrefetchWait, p.HitsInWait},
				{trace.PrefetchMiss, p.Misses},
				{trace.PrefetchIssue, p.Issued},
			} {
				if got := int64(r.tl.Count(c.kind)); got != c.n {
					fail("trace recorded %d %v events, counters say %d", got, c.kind, c.n)
				}
			}
		}
		// Delivered bytes split cleanly between buffer copies and direct
		// reads (M_GLOBAL non-root broadcast deliveries are neither).
		if sc.Spec.Mode != pfs.MGlobal && p.BytesCopied+p.BytesDirect != res.TotalBytes {
			fail("prefetcher delivered %d buffer + %d direct bytes, applications read %d",
				p.BytesCopied, p.BytesDirect, res.TotalBytes)
		}
		// With the zoo armed, the registry's attribution must balance the
		// prefetcher's own books: every issued buffer was charged to
		// exactly one source, every buffer-served read was credited to
		// one, and the close-time split matches counter for counter. The
		// run has closed every file, so Totals covers all streams.
		if zoo := p.Zoo(); zoo != nil {
			var sum struct{ issued, consumed, wasted, unread int64 }
			for _, s := range zoo.Totals() {
				sum.issued += s.Issued
				sum.consumed += s.Consumed
				sum.wasted += s.Wasted
				sum.unread += s.Unread
			}
			if sum.issued != p.Issued {
				fail("zoo sources account %d issued buffers, prefetcher issued %d", sum.issued, p.Issued)
			}
			if sum.consumed != p.Hits+p.HitsInWait {
				fail("zoo sources account %d consumed buffers, prefetcher served %d from buffers",
					sum.consumed, p.Hits+p.HitsInWait)
			}
			if sum.wasted != p.Wasted {
				fail("zoo sources account %d wasted buffers, prefetcher wasted %d", sum.wasted, p.Wasted)
			}
			if sum.unread != p.UnreadAtClose {
				fail("zoo sources account %d unread-at-close buffers, prefetcher counted %d",
					sum.unread, p.UnreadAtClose)
			}
		}
	}

	// Full-pass access patterns must deliver the file exactly once — no
	// gaps, no byte delivered twice.
	switch coverageShape(sc.Spec) {
	case coverUnion:
		if d := exactCover(flatten(res.Deliveries), sc.Spec.FileSize); d != "" {
			fail("union coverage: %s", d)
		}
	case coverPerNode:
		size := sc.Spec.FileSize
		if sc.Spec.SeparateFiles {
			size /= int64(sc.Cfg.ComputeNodes)
		}
		for i, ranges := range res.Deliveries {
			if d := exactCover(append([]pfs.Delivery(nil), ranges...), size); d != "" {
				fail("node %d coverage: %s", i, d)
			}
		}
	}
	return fs
}

type coverKind int

const (
	coverNone    coverKind = iota // pattern legitimately skips or repeats bytes
	coverUnion                    // all nodes together read the file exactly once
	coverPerNode                  // every node reads its (own) file exactly once
)

// coverageShape classifies what "read the whole file exactly once" means
// for a spec, if anything.
func coverageShape(spec workload.Spec) coverKind {
	switch {
	case spec.SeparateFiles:
		return coverPerNode
	case spec.Mode == pfs.MGlobal:
		return coverPerNode // every node receives the whole file
	case spec.Mode == pfs.MAsync && (spec.Pattern == workload.Random || (spec.Pattern == workload.Strided && spec.Stride > 1)):
		return coverNone
	default:
		return coverUnion
	}
}

// flatten merges per-node delivery lists into one slice.
func flatten(per [][]pfs.Delivery) []pfs.Delivery {
	var out []pfs.Delivery
	for _, ranges := range per {
		out = append(out, ranges...)
	}
	return out
}

// exactCover checks that ranges tile [0, size) with no gap and no
// overlap, returning "" or a description of the first defect. The input
// slice is reordered.
func exactCover(ranges []pfs.Delivery, size int64) string {
	sort.Slice(ranges, func(i, j int) bool {
		if ranges[i].Off != ranges[j].Off {
			return ranges[i].Off < ranges[j].Off
		}
		return ranges[i].N < ranges[j].N
	})
	var at int64
	for _, r := range ranges {
		switch {
		case r.Off > at:
			return fmt.Sprintf("gap [%d,%d) never delivered", at, r.Off)
		case r.Off < at:
			return fmt.Sprintf("overlap: [%d,+%d) delivered after coverage reached %d", r.Off, r.N, at)
		}
		at = r.Off + r.N
	}
	if at != size {
		return fmt.Sprintf("coverage ends at %d of %d bytes", at, size)
	}
	return ""
}

// checkData is the data-correctness oracle: with a prefetch service
// installed, every node must receive byte-identical data to the plain
// fast-path run, and — where the access sequence is statically assigned —
// to the in-memory reference file model.
func checkData(seed int64, sc Scenario, fetched, plain run) []Failure {
	var fs []Failure
	fail := func(format string, args ...any) {
		fs = append(fs, Failure{Seed: seed, Oracle: "data", Detail: fmt.Sprintf(format, args...)})
	}
	if plain.err != nil {
		return []Failure{{Seed: seed, Oracle: "data",
			Detail: fmt.Sprintf("prefetch-off reference run failed: %v", plain.err)}}
	}
	if fetched.res.TotalBytes != plain.res.TotalBytes {
		fail("prefetch-on read %d bytes, prefetch-off %d", fetched.res.TotalBytes, plain.res.TotalBytes)
	}

	static := staticAssignment(sc.Spec)
	parties := sc.Cfg.ComputeNodes
	for i := range fetched.res.DeliveryDigests {
		if static {
			// Order-sensitive per-node comparison, three ways: prefetch-on
			// vs prefetch-off range digests, and both vs the reference
			// file's content over the analytically expected ranges.
			if a, b := fetched.res.DeliveryDigests[i], plain.res.DeliveryDigests[i]; a != b {
				fail("node %d: delivered ranges differ with prefetching (digest %016x vs %016x)", i, a, b)
				continue
			}
			want := expectedDeliveries(sc.Spec, parties, i)
			if got := fetched.res.Deliveries[i]; contentDigest(got) != contentDigest(want) {
				fail("node %d: delivered content differs from reference file (%d ranges, want %d): %s",
					i, len(got), len(want), firstRangeDiff(got, want))
			}
		}
	}
	if !static {
		// Unordered shared-pointer modes: region claims depend on timing,
		// so compare the union — both runs must deliver the same multiset
		// of ranges (each an exact cover, checked by conservation).
		if d := sameRangeMultiset(flatten(fetched.res.Deliveries), flatten(plain.res.Deliveries)); d != "" {
			fail("delivered range multisets differ with prefetching: %s", d)
		}
	}
	return fs
}

// firstRangeDiff describes the first position where two delivery
// sequences disagree.
func firstRangeDiff(got, want []pfs.Delivery) string {
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("read %d delivered [%d,+%d), reference says [%d,+%d)",
				i, got[i].Off, got[i].N, want[i].Off, want[i].N)
		}
	}
	return fmt.Sprintf("common prefix of %d reads agrees", n)
}

// sameRangeMultiset compares two unordered collections of ranges.
func sameRangeMultiset(a, b []pfs.Delivery) string {
	key := func(rs []pfs.Delivery) map[pfs.Delivery]int {
		m := make(map[pfs.Delivery]int, len(rs))
		for _, r := range rs {
			m[r]++
		}
		return m
	}
	ma, mb := key(a), key(b)
	for r, n := range ma {
		if mb[r] != n {
			return fmt.Sprintf("[%d,+%d) delivered %d time(s) with prefetch, %d without", r.Off, r.N, n, mb[r])
		}
	}
	for r, n := range mb {
		if ma[r] != n {
			return fmt.Sprintf("[%d,+%d) delivered %d time(s) without prefetch, %d with", r.Off, r.N, n, ma[r])
		}
	}
	return ""
}
