package simcheck

// This file is the QoS oracle set: open-loop multi-tenant overload
// scenarios checked for determinism, per-tenant conservation,
// starvation-freedom, and weighted fairness — plus the deliberately
// unfair FIFO twin, which must violate the fairness bound on some seeds
// or the sweep is declared too tame to prove anything.

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/ionode"
	"repro/internal/machine"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/workload"
)

// fairLagSlack is the fairness bound in units of the largest normalized
// single-request cost: a backlogged tenant's normalized-service lag under
// SCFQ never exceeds (Slots + fairLagSlack) of them. Slots requests can
// be in flight past the virtual time and self-clocked tagging adds at
// most two more costs of skew; the FIFO twin, which serves whichever
// tenant burst arrived first, blows through this on heavy-tailed seeds.
const fairLagSlack = 2

// GenerateQoS expands a seed into an open-loop multi-tenant overload
// scenario: a modest machine, a weighted fair-queueing policy with
// per-tenant admission, and a heavy-tailed tenant population whose
// offered load deliberately exceeds the machine's service rate. Pure
// function of the seed, like Generate.
func GenerateQoS(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed*2862933555777941757 + 1442695040888963407))

	cfg := machine.DefaultConfig()
	cfg.ComputeNodes = pick(rng, 2, 4, 4, 8)
	cfg.IONodes = pick(rng, 2, 2, 4)
	cfg.ArrayMembers = pick(rng, 1, 2, 4)
	cfg.UFS.Seed = seed
	cfg.Fair = ionode.FairPolicy{
		Weights:       pick(rng, []int{1}, []int{4, 2, 1}, []int{8, 1}, []int{3, 2, 1, 1}),
		Slots:         pick(rng, 1, 2, 2, 4),
		RatePerWeight: pick64(rng, 32<<10, 64<<10, 128<<10),
		BurstBytes:    pick64(rng, 16<<10, 32<<10, 64<<10),
	}

	spec := &workload.QoSSpec{
		Tenants:     pick(rng, 16, 32, 32, 64, 128),
		Files:       pick(rng, 4, 8, 16),
		FileSize:    1 << 20,
		RequestSize: pick64(rng, 8<<10, 16<<10, 32<<10),
		Requests:    3 + rng.Intn(6),
		MeanGap:     pick(rng, sim.Time(1*sim.Millisecond), 2*sim.Millisecond, 5*sim.Millisecond),
		Seed:        seed,
		SLO:         50 * sim.Millisecond,
	}
	// The interference arm: every PrefetchEvery-th tenant runs the client
	// prefetcher, so readahead competes with everyone else's foreground
	// reads inside the fair queue.
	if rng.Intn(3) == 0 {
		pcfg := prefetch.DefaultConfig()
		pcfg.Depth = 1 + rng.Intn(3)
		spec.Prefetch = &pcfg
		spec.PrefetchEvery = pick(rng, 3, 4, 8)
	}
	return Scenario{Seed: seed, Cfg: cfg, QoS: spec}
}

// executeQoS builds a fresh machine and drives one open-loop run.
func executeQoS(cfg machine.Config, spec workload.QoSSpec) run {
	tl := trace.NewLog(traceCap)
	spec.Trace = tl
	res, err := workload.RunQoS(cfg, spec)
	return run{res: res, tl: tl, err: err}
}

// QoSReport extends a QoS seed's Report with the FIFO twin's fate.
type QoSReport struct {
	Report

	// Throttles is the base run's admission-shed count: a sweep where no
	// seed ever throttles never exercised overload.
	Throttles int64

	// TwinUnfair reports whether the FIFO/no-admission twin violated the
	// fairness bound the real scheduler is held to. A sweep asserts that
	// at least one seed's twin is unfair, proving the scenarios genuinely
	// need the fair scheduler (and that the oracle can detect unfairness
	// at all).
	TwinUnfair bool
}

// CheckQoS expands the seed into an open-loop overload scenario and runs
// the QoS oracle set: determinism (two identical runs), per-tenant
// request and byte conservation, starvation-freedom, the SCFQ fairness
// bound — and the FIFO twin, which shares every oracle except fairness.
func CheckQoS(seed int64) QoSReport {
	return CheckQoSScenario(GenerateQoS(seed))
}

// CheckQoSScenario runs the QoS oracle set over an explicitly-built
// scenario (sc.QoS must be non-nil).
func CheckQoSScenario(sc Scenario) QoSReport {
	seed := sc.Seed
	rep := QoSReport{Report: Report{Seed: seed, Scenario: sc}}

	base := executeQoS(sc.Cfg, *sc.QoS)
	again := executeQoS(sc.Cfg, *sc.QoS)
	rep.Failures = append(rep.Failures, checkDeterminism(seed, base, again)...)

	if base.err != nil {
		rep.RunErr = base.err
		rep.Failures = append(rep.Failures, Failure{Seed: seed, Oracle: "qos",
			Detail: fmt.Sprintf("open-loop run failed: %v", base.err)})
		return rep
	}
	rep.Elapsed = base.res.Elapsed
	rep.Bandwidth = base.res.Bandwidth
	rep.ReadCalls = base.res.ReadCalls
	rep.Fingerprint = base.res.Fingerprint()
	rep.TraceDigest = base.tl.Digest()
	rep.Throttles = base.res.QoS.Throttled

	rep.Failures = append(rep.Failures, checkQoSLedger(seed, sc, base, false)...)

	// The FIFO twin: same arrival schedule, same instrumentation, no
	// fairness. It must still satisfy determinism-by-construction oracles
	// (conservation, starvation drain) — only the fairness bound is
	// waived, and its violations are what the sweep-level guard counts.
	twin := sc
	twin.Cfg.Fair.FIFO = true
	trun := executeQoS(twin.Cfg, *twin.QoS)
	if trun.err != nil {
		rep.Failures = append(rep.Failures, Failure{Seed: seed, Oracle: "qos",
			Detail: fmt.Sprintf("FIFO twin run failed: %v", trun.err)})
		return rep
	}
	rep.Failures = append(rep.Failures, checkQoSLedger(seed, twin, trun, true)...)
	rep.TwinUnfair = qosUnfair(trun.res)
	return rep
}

// checkQoSLedger is the single-run QoS oracle set: sanity, per-tenant
// request and byte conservation, starvation-freedom, trace agreement,
// and (for the real scheduler, not the FIFO twin) the fairness bound.
func checkQoSLedger(seed int64, sc Scenario, r run, fifo bool) []Failure {
	var fs []Failure
	fail := func(format string, args ...any) {
		fs = append(fs, Failure{Seed: seed, Oracle: "qos", Detail: fmt.Sprintf(format, args...)})
	}
	res := r.res
	q := res.QoS
	if q == nil {
		fail("run carries no QoS ledger")
		return fs
	}
	if res.Elapsed <= 0 {
		fail("elapsed %v not positive", res.Elapsed)
	}
	if q.Arrivals == 0 {
		fail("no arrivals were spawned")
	}
	if k := res.Machine.K; k.Live() != k.Daemons() {
		fail("%d non-daemon process(es) still live after run", k.Live()-k.Daemons())
	}
	if r.tl.Dropped() > 0 {
		fail("trace log dropped %d events", r.tl.Dropped())
	}

	// Every arrival is classified exactly once; delivered bytes are whole
	// requests; the ledgers on the two sides of the wire agree.
	var done, throttled, overloaded, failed, slomet int64
	for ti := range q.Tenants {
		ts := &q.Tenants[ti]
		if got := ts.Done + ts.Throttled + ts.Overloaded + ts.Failed; got != ts.Requests {
			fail("tenant %d: %d of %d arrivals classified (starvation or lost reply)", ti, got, ts.Requests)
		}
		if got := ts.SrvServed + ts.SrvShed + ts.SrvFaulted + ts.SrvDropped; got != ts.SrvArrived {
			fail("tenant %d: server ledger served+shed+faulted+dropped=%d != arrived=%d",
				ti, ts.SrvServed+ts.SrvShed+ts.SrvFaulted+ts.SrvDropped, ts.SrvArrived)
		}
		if got := ts.IOBytes + ts.LateBytes + ts.AbandonedBytes; got != ts.SrvBytes {
			fail("tenant %d: bytes leaked across the wire: client io+late+abandoned=%d, servers=%d",
				ti, got, ts.SrvBytes)
		}
		if ts.Bytes != ts.Done*sc.QoS.RequestSize {
			fail("tenant %d: %d completions delivered %d bytes, want %d",
				ti, ts.Done, ts.Bytes, ts.Done*sc.QoS.RequestSize)
		}
		done += ts.Done
		throttled += ts.Throttled
		overloaded += ts.Overloaded
		failed += ts.Failed
		slomet += ts.SLOMet
	}
	if throttled != q.Throttled || overloaded != q.Overloaded || failed != q.Failed || slomet != q.SLOMet {
		fail("aggregate counters disagree with per-tenant sums")
	}
	if int64(q.Latency.N()) != done {
		fail("latency histogram has %d samples for %d completions", q.Latency.N(), done)
	}
	if fifo && q.Throttled != 0 {
		fail("FIFO twin throttled %d requests; admission must be off", q.Throttled)
	}

	// Trace agreement: one QoSArrival per spawned request, one QoSShed
	// per server-side admission shed.
	if got := int64(r.tl.Count(trace.QoSArrival)); got != q.Arrivals {
		fail("trace recorded %d qos-arrival events, ledger says %d", got, q.Arrivals)
	}
	var srvThrottled int64
	for _, s := range res.Machine.Servers {
		srvThrottled += s.Throttled
	}
	if got := int64(r.tl.Count(trace.QoSShed)); got != srvThrottled {
		fail("trace recorded %d qos-shed events, servers throttled %d", got, srvThrottled)
	}

	// Starvation-freedom and the scheduler invariants, per server: the
	// queue drained, nothing was left in service, no dispatch ever went
	// backwards in virtual time — and, for the real scheduler, no
	// backlogged tenant ever lagged the front-runner by more than the
	// SCFQ bound.
	for i, s := range res.Machine.Servers {
		snap := s.FairSnapshot()
		if snap == nil {
			fail("server %d has no fair scheduler armed", i)
			continue
		}
		if snap.QueueLen != 0 || snap.InService != 0 {
			fail("server %d: %d request(s) still queued, %d in service after drain (starvation)",
				i, snap.QueueLen, snap.InService)
		}
		if snap.MinTagViolations != 0 {
			fail("server %d: %d dispatch(es) below virtual time", i, snap.MinTagViolations)
		}
		if !fifo {
			if bound := uint64(snap.Slots+fairLagSlack) * snap.MaxWeightedCost; snap.MaxLag > bound {
				fail("server %d: fairness violated: max normalized lag %d > (slots %d + %d) x max cost %d = %d",
					i, snap.MaxLag, snap.Slots, fairLagSlack, snap.MaxWeightedCost, bound)
			}
		}
	}
	return fs
}

// qosUnfair scores a run by the exact fairness metric the real scheduler
// is held to, and reports whether any server violated it.
func qosUnfair(res *workload.Result) bool {
	for _, s := range res.Machine.Servers {
		snap := s.FairSnapshot()
		if snap == nil {
			continue
		}
		if snap.MaxLag > uint64(snap.Slots+fairLagSlack)*snap.MaxWeightedCost {
			return true
		}
	}
	return false
}

// CheckQoSRange is CheckRange over CheckQoS: seeds [start, start+n) on a
// worker pool, reports delivered in seed order at every width. It
// returns the failing reports, how many seeds' FIFO twins violated the
// fairness bound, and how many seeds' base runs actually throttled.
func CheckQoSRange(start int64, n, workers int, stopFirst bool, onReport func(QoSReport)) (failed []QoSReport, unfair, throttled int) {
	sweep.Stream(workers, n, func(i int) QoSReport {
		return CheckQoS(start + int64(i))
	}, func(_ int, rep QoSReport) bool {
		if onReport != nil {
			onReport(rep)
		}
		if rep.TwinUnfair {
			unfair++
		}
		if rep.Throttles > 0 {
			throttled++
		}
		if !rep.OK() {
			failed = append(failed, rep)
			if stopFirst {
				return false
			}
		}
		return true
	})
	return failed, unfair, throttled
}

// Describe writes the QoS report: the base run's account plus the FIFO
// twin's fairness verdict.
func (r QoSReport) Describe(w io.Writer) {
	r.Report.Describe(w)
	if r.RunErr == nil {
		fmt.Fprintf(w, "  throttled=%d; fifo twin unfair: %v\n", r.Throttles, r.TwinUnfair)
	}
	if len(r.Failures) > 0 {
		fmt.Fprintf(w, "  replay: go run ./cmd/simcheck -qos -seed %d -v\n", r.Seed)
	}
}
