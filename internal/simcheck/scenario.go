// Package simcheck is the repository's deterministic-simulation checker:
// a seeded random scenario generator plus a set of invariant oracles run
// over every generated scenario. Each seed expands to one fully-specified
// machine + workload configuration; the oracles then run the simulation
// several times (twice identically, once without prefetching, once with a
// longer compute delay) and cross-check the runs:
//
//   - determinism: same seed ⇒ bit-identical result fingerprints and
//     trace digests;
//   - data correctness: the byte ranges delivered to every node with
//     prefetching on are exactly the ranges delivered with it off, and —
//     for the statically-assigned access patterns — exactly what a
//     trivial in-memory reference file model says they must be;
//   - conservation: bytes delivered = bytes read over the fast path =
//     bytes leaving the I/O nodes, and the prefetcher's hit/wait/miss
//     counters sum to the read count;
//   - sanity: positive elapsed time, no residual non-daemon processes,
//     monotone elapsed time in the compute delay.
//
// Any failure carries its seed; `go run ./cmd/simcheck -seed N -v`
// replays that exact scenario.
package simcheck

import (
	"fmt"
	"math/rand"

	"repro/internal/disk"
	"repro/internal/ionode"
	"repro/internal/machine"
	"repro/internal/pfs"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Scenario is one fully-specified check case: everything needed to build
// the machine and drive the workload, derived purely from Seed.
type Scenario struct {
	Seed int64
	Cfg  machine.Config
	Spec workload.Spec

	// Faulty marks scenarios with legacy one-shot disk fault injection
	// armed and no retry protection. Faults make end-to-end success (and
	// thus the byte-accounting oracles) dependent on which requests die,
	// so only the determinism and basic sanity oracles run on them.
	Faulty bool

	// Recoverable marks chaos scenarios: purely transient disk faults at
	// a low rate with the PFS retry layer armed (and sometimes I/O-node
	// shedding and service-time jitter on top). Every fault must be
	// ridden out — a transiently faulted sector succeeds on re-read by
	// construction — so the full oracle set applies, except monotonicity
	// (shifting arrival times shifts which requests draw faults).
	Recoverable bool

	// QoS marks open-loop multi-tenant scenarios: non-nil means the run
	// is driven by workload.RunQoS over this spec (Spec is ignored), with
	// the fair scheduler armed in Cfg.Fair and the QoS oracle set —
	// determinism, per-tenant conservation,
	// starvation-freedom, and the fairness bound — applied instead of the
	// file-workload oracles.
	QoS *workload.QoSSpec

	// Crashy marks crash-chaos scenarios: whole-I/O-node crash–restart
	// outages (and sometimes a permanent RAID member loss with an online
	// rebuild) under the restart-aware failover policy, with the workload
	// tolerating reads the failover deterministically declares
	// unavailable. The crash oracle set proves every requested byte was
	// delivered correctly, counted late, or counted unavailable — never
	// silently lost (see checkCrashScenario).
	Crashy bool
}

// Generate expands a seed into a scenario. The same seed always yields
// the same scenario; different seeds explore machine shapes, stripe
// layouts, I/O modes, access patterns, request sizes, compute delays,
// prefetch configurations, and fault injection.
func Generate(seed int64) Scenario {
	// Decorrelate neighbouring seeds without losing replayability: the
	// scenario is a pure function of the seed either way.
	rng := rand.New(rand.NewSource(seed*6364136223846793005 + 1442695040888963407))

	cfg := machine.DefaultConfig()
	cfg.ComputeNodes = pick(rng, 1, 2, 2, 3, 4, 4, 8)
	cfg.IONodes = pick(rng, 1, 2, 2, 4, 4)
	cfg.ArrayMembers = pick(rng, 1, 2, 4)
	cfg.UFS.BlockSize = pick64(rng, 16<<10, 64<<10, 64<<10)
	cfg.UFS.Seed = seed

	req := pick64(rng, 8<<10, 16<<10, 32<<10, 64<<10)
	rounds := int64(2 + rng.Intn(7)) // reads per node in a full pass
	spec := workload.Spec{
		File:        "simcheck",
		FileSize:    int64(cfg.ComputeNodes) * req * rounds,
		RequestSize: req,
		// Divisor-friendly sizes keep every pattern an exact pass, which
		// the coverage oracle depends on.
		ComputeDelay:     pick(rng, 0, 0, sim.Time(2*sim.Millisecond), sim.Time(10*sim.Millisecond), sim.Time(40*sim.Millisecond)),
		StripeUnit:       pick64(rng, 0, 0, 8<<10, 32<<10, 128<<10),
		Seed:             seed,
		RecordDeliveries: true,
	}
	if g := rng.Intn(cfg.IONodes + 2); g <= cfg.IONodes && g > 0 {
		spec.StripeGroup = g
	}

	// Mode and pattern.
	switch rng.Intn(8) {
	case 0:
		spec.Mode = pfs.MUnix
	case 1:
		spec.Mode = pfs.MLog
	case 2:
		spec.Mode = pfs.MSync
	case 3, 4:
		spec.Mode = pfs.MRecord
	case 5:
		spec.Mode = pfs.MGlobal
	case 6:
		spec.Mode = pfs.MAsync
		spec.Pattern = workload.Pattern(rng.Intn(4))
		spec.Stride = 2 + rng.Intn(3)
	default:
		spec.Mode = pfs.MAsync
		spec.SeparateFiles = true
	}

	// Prefetch placement: the compute-node prototype most of the time,
	// occasionally the server-side hints on a buffered mount, sometimes
	// neither (the baseline still exercises determinism and conservation).
	switch r := rng.Intn(10); {
	case r < 6:
		pcfg := prefetch.DefaultConfig()
		pcfg.Depth = 1 + rng.Intn(3)
		pcfg.MaxBuffers = 2 + rng.Intn(7)
		pcfg.Adaptive = rng.Intn(5) == 0
		pcfg.FreeCopy = rng.Intn(5) == 0
		// The zoo policies and the online controller join the organic
		// population, so every oracle (including the registry's
		// attribution cross-foot in checkConservation) runs over them on
		// every sweep.
		pcfg.Policy = pick(rng, "", "", "", "mode", "sequential", "stride", "hybrid", "hybrid")
		if rng.Intn(3) == 0 {
			pcfg.Controller = prefetch.ControllerConfig{Interval: int64(2 + rng.Intn(6))}
		}
		spec.Prefetch = &pcfg
	case r < 7:
		sscfg := prefetch.DefaultServerSideConfig()
		sscfg.Depth = 1 + rng.Intn(2)
		spec.ServerSide = &sscfg
		spec.Buffered = true
	}

	sc := Scenario{Seed: seed, Cfg: cfg, Spec: spec}

	// Fault injection on ~1 in 8 seeds, reusing the machine's per-disk
	// deterministic fault streams; of the rest, ~1 in 6 becomes a chaos
	// scenario: transient faults the retry layer must fully absorb.
	if rng.Intn(8) == 0 {
		sc.Cfg.DiskFaultRate = 0.01 + 0.1*rng.Float64()
		sc.Cfg.FaultSeed = seed
		sc.Faulty = true
	} else if rng.Intn(6) == 0 {
		armChaos(&sc, rng)
	}
	return sc
}

// armChaos turns sc into a recoverable chaos scenario: a low, purely
// transient disk fault rate, the default retry policy, and sometimes
// shedding and fault-stress jitter. Recovery is guaranteed by the
// transient-fault contract, so the full oracle set (minus monotonicity)
// must hold.
func armChaos(sc *Scenario, rng *rand.Rand) {
	sc.Cfg.DiskFaultRate = 0.01 + 0.04*rng.Float64() // <= 0.05
	sc.Cfg.DiskFaultTransientFrac = 1
	sc.Cfg.FaultSeed = sc.Seed
	sc.Cfg.DiskFaultJitter = pick(rng, 0.0, 0.0, 0.2, 0.5)
	if rng.Intn(2) == 0 {
		sc.Cfg.Shed = ionode.ShedPolicy{Threshold: 3, Cooldown: 20 * sim.Millisecond}
	}
	sc.Cfg.PFS.Retry = pfs.DefaultRetryPolicy()
	if rng.Intn(3) == 0 {
		// Arm the per-attempt deadline far above any service time in the
		// model: the timer machinery runs on every piece without spurious
		// firings destabilizing recovery.
		sc.Cfg.PFS.Retry.Timeout = 10 * sim.Second
	}
	sc.Faulty = false
	sc.Recoverable = true
}

// GenerateChaos expands a seed like Generate and then force-arms the
// chaos profile, whatever fault class the organic draw chose. Chaos
// sweeps (`cmd/simcheck -chaos`) use this so every seed exercises the
// fault-tolerant I/O path.
func GenerateChaos(seed int64) Scenario {
	sc := Generate(seed)
	crng := rand.New(rand.NewSource(seed*2862933555777941757 + 3037000493))
	armChaos(&sc, crng)
	return sc
}

// armScale moves sc onto the large-machine platform: 256 compute × 64
// I/O nodes with (sometimes) tiled default striping, the layouts the
// 1024×256 scale model runs on. The organic draw's mode, pattern,
// prefetch placement, and fault class all carry over — large machines
// earn no oracle exemptions — but per-node work shrinks to 1–3 rounds of
// ≤32 KB requests so a sweep of seeds stays inside the CI race-detector
// budget.
func armScale(sc *Scenario, rng *rand.Rand) {
	cfg := &sc.Cfg
	spec := &sc.Spec
	cfg.ComputeNodes = 256
	cfg.IONodes = 64
	cfg.PFS.GroupWidth = pick(rng, 0, 8, 16)

	// Redraw the stripe group for the wide partition: usually the whole
	// 64-node partition (the widest declustering the indexed merge path
	// sees), sometimes a narrow explicit group.
	spec.StripeGroup = pick(rng, 0, 0, 0, 8, 16, 64)

	req := pick64(rng, 8<<10, 16<<10, 32<<10)
	rounds := int64(1 + rng.Intn(3))
	spec.RequestSize = req
	spec.FileSize = int64(cfg.ComputeNodes) * req * rounds
	if spec.Mode == pfs.MGlobal {
		// Every M_GLOBAL record is read by all 256 parties (one disk read,
		// broadcast delivery), so read calls — and trace events — are
		// parties × records. A handful of records already exercises the
		// broadcast tree at full width without blowing the oracle trace
		// budget.
		spec.FileSize = req * int64(4+rng.Intn(13))
	}
}

// GenerateScale expands a seed like Generate and then moves the
// scenario onto the 256×64 scale platform. Scale sweeps
// (`cmd/simcheck -scale`) use this so the flat layouts and tiled
// striping face the same oracle set as the paper-sized machines.
func GenerateScale(seed int64) Scenario {
	sc := Generate(seed)
	srng := rand.New(rand.NewSource(seed*2862933555777941757 + 7046029254386353087))
	armScale(&sc, srng)
	return sc
}

// armCrash turns sc into a crash-chaos scenario: scheduled whole-node
// outages against the restart-aware failover policy, on a workload whose
// per-node read sequence is a pure function of the spec — so the crash
// oracles can say analytically which bytes each node was owed and check
// that every one was delivered or deliberately counted unavailable.
// About half the seeds additionally lose a RAID member for good, half of
// those with an online rebuild racing the foreground reads.
func armCrash(sc *Scenario, rng *rand.Rand) {
	cfg := &sc.Cfg
	spec := &sc.Spec

	// Crashes need someone left to serve, and member losses need parity
	// survivors to reconstruct from.
	if cfg.IONodes < 2 {
		cfg.IONodes = 2
	}
	if cfg.ArrayMembers < 2 {
		cfg.ArrayMembers = 2
	}
	// Crash purity: the organic draw may have armed disk faults or
	// shedding; both entangle the byte accounting with racing timers, and
	// the crash oracles want every lost byte attributable to an outage.
	cfg.DiskFaultRate = 0
	cfg.DiskFaultTransientFrac = 0
	cfg.DiskFaultJitter = 0
	cfg.Shed = ionode.ShedPolicy{}

	// Restart-aware failover. The per-attempt deadline is far above every
	// healthy service time in the model (a cold 64K read is ~25 ms), so a
	// timeout can only mean the request vanished into a dead node.
	cfg.PFS.Retry = pfs.RetryPolicy{
		MaxRetries:   8,
		Timeout:      2 * sim.Second,
		Backoff:      2 * sim.Millisecond,
		BackoffMax:   100 * sim.Millisecond,
		Seed:         1,
		DownPoll:     50 * sim.Millisecond,
		DownDeadline: 2500 * sim.Millisecond,
	}

	// Statically-assigned access only: skipping an unavailable read must
	// not desequence anyone else, and the reference model must be able to
	// name each node's owed ranges. (M_UNIX/M_LOG/M_SYNC/M_GLOBAL share
	// pointers or broadcasts across nodes, so one node's loss changes
	// what the others read.)
	spec.SeparateFiles = false
	spec.Stride = 0
	switch rng.Intn(4) {
	case 0:
		spec.Mode = pfs.MRecord
		spec.Pattern = workload.Interleaved
	case 1:
		spec.Mode = pfs.MAsync
		spec.Pattern = pick(rng, workload.Interleaved, workload.Partitioned)
	case 2:
		spec.Mode = pfs.MAsync
		spec.Pattern = workload.Strided
		spec.Stride = 2 + rng.Intn(3)
	default:
		spec.Mode = pfs.MAsync
		spec.SeparateFiles = true
		spec.Pattern = workload.Interleaved
	}
	spec.ContinueOnUnavailable = true

	// Long enough that the outages land mid-workload, and request-aligned
	// so an unavailable read's loss is exactly one request.
	rounds := int64(6 + rng.Intn(9))
	spec.RequestSize = pick64(rng, 16<<10, 32<<10, 64<<10)
	spec.FileSize = int64(cfg.ComputeNodes) * spec.RequestSize * rounds
	spec.ComputeDelay = pick(rng, 0, sim.Time(5*sim.Millisecond), sim.Time(20*sim.Millisecond), sim.Time(50*sim.Millisecond))

	// Compute-node prefetching on most seeds: prefetches racing into a
	// crash must retire cleanly and fall back, which is half the point.
	// The server-side placement stages through the I/O-node caches a
	// crash wipes, so its delivered-bytes bookkeeping is not crash-exact;
	// keep crash scenarios on the fast path.
	spec.ServerSide = nil
	spec.Buffered = false
	spec.Prefetch = nil
	if rng.Intn(3) > 0 {
		pcfg := prefetch.DefaultConfig()
		pcfg.Depth = 1 + rng.Intn(3)
		pcfg.MaxBuffers = 2 + rng.Intn(7)
		pcfg.FreeCopy = rng.Intn(5) == 0
		spec.Prefetch = &pcfg
	}

	// The outage schedule. Downtimes straddle the failover deadline:
	// short ones are waited out (delivered late), long ones are declared
	// unavailable without waiting.
	cfg.Crash = machine.CrashPlan{
		Count:    1 + rng.Intn(3),
		Seed:     sc.Seed*31 + 7,
		Start:    50 * sim.Millisecond,
		Window:   500 * sim.Millisecond,
		Downtime: pick(rng, 300*sim.Millisecond, 800*sim.Millisecond, 3*sim.Second),
	}

	// Half the seeds also lose a RAID member inside the stripe group
	// (outside it the array never sees a request and nothing is proved);
	// half of those rebuild onto the hot spare while the reads run.
	cfg.MemberFail = machine.MemberFailPlan{}
	cfg.Rebuild = disk.RebuildPolicy{}
	if rng.Intn(2) == 0 {
		group := spec.StripeGroup
		if group == 0 {
			group = cfg.IONodes
		}
		cfg.MemberFail = machine.MemberFailPlan{
			At:     100 * sim.Millisecond,
			Array:  rng.Intn(group),
			Member: rng.Intn(cfg.ArrayMembers),
		}
		if rng.Intn(2) == 0 {
			cfg.Rebuild = disk.RebuildPolicy{
				Chunk: pick64(rng, 64<<10, 128<<10, 256<<10),
				Gap:   pick(rng, 0, sim.Time(2*sim.Millisecond), sim.Time(10*sim.Millisecond)),
			}
		}
	}

	sc.Faulty = false
	sc.Recoverable = false
	sc.Crashy = true
}

// GenerateCrash expands a seed like Generate and then force-arms the
// crash profile. Crash sweeps (`cmd/simcheck -crash`) use this so every
// seed exercises the crash–restart fault domain.
func GenerateCrash(seed int64) Scenario {
	sc := Generate(seed)
	crng := rand.New(rand.NewSource(seed*6364136223846793005 + 1181783497276652981))
	armCrash(&sc, crng)
	return sc
}

// Label renders the scenario compactly for reports.
func (sc Scenario) Label() string {
	if q := sc.QoS; q != nil {
		l := fmt.Sprintf("%dc/%dio qos tenants=%d files=%d req=%dK gap=%v slots=%d rate=%dK burst=%dK weights=%v",
			sc.Cfg.ComputeNodes, sc.Cfg.IONodes, q.Tenants, q.Files,
			q.RequestSize>>10, q.MeanGap, sc.Cfg.Fair.Slots,
			sc.Cfg.Fair.RatePerWeight>>10, sc.Cfg.Fair.BurstBytes>>10, sc.Cfg.Fair.Weights)
		if q.Prefetch != nil && q.PrefetchEvery > 0 {
			l += fmt.Sprintf(" pf-every=%d", q.PrefetchEvery)
		}
		return l
	}
	l := fmt.Sprintf("%dc/%dio %v %s req=%dK file=%dK delay=%v",
		sc.Cfg.ComputeNodes, sc.Cfg.IONodes, sc.Spec.Mode, patternLabel(sc.Spec),
		sc.Spec.RequestSize>>10, sc.Spec.FileSize>>10, sc.Spec.ComputeDelay)
	switch {
	case sc.Spec.Prefetch != nil:
		l += fmt.Sprintf(" pf(depth=%d,buf=%d", sc.Spec.Prefetch.Depth, sc.Spec.Prefetch.MaxBuffers)
		if sc.Spec.Prefetch.Adaptive {
			l += ",adaptive"
		}
		if sc.Spec.Prefetch.FreeCopy {
			l += ",freecopy"
		}
		l += ")"
	case sc.Spec.ServerSide != nil:
		l += fmt.Sprintf(" serverside(depth=%d)", sc.Spec.ServerSide.Depth)
	}
	if sc.Faulty {
		l += fmt.Sprintf(" faults=%.3f", sc.Cfg.DiskFaultRate)
	}
	if sc.Recoverable {
		l += fmt.Sprintf(" chaos=%.3f", sc.Cfg.DiskFaultRate)
		if sc.Cfg.DiskFaultJitter > 0 {
			l += fmt.Sprintf(" jitter=%.1f", sc.Cfg.DiskFaultJitter)
		}
		if sc.Cfg.Shed.Enabled() {
			l += " shed"
		}
		if sc.Cfg.PFS.Retry.Timeout > 0 {
			l += " deadline"
		}
	}
	if sc.Crashy {
		l += fmt.Sprintf(" crash(n=%d,down=%v)", sc.Cfg.Crash.Count, sc.Cfg.Crash.Downtime)
		if sc.Cfg.MemberFail.Enabled() {
			l += fmt.Sprintf(" memberfail(a%d/m%d", sc.Cfg.MemberFail.Array, sc.Cfg.MemberFail.Member)
			if sc.Cfg.Rebuild.Chunk > 0 {
				l += fmt.Sprintf(",rebuild=%dK/%v", sc.Cfg.Rebuild.Chunk>>10, sc.Cfg.Rebuild.Gap)
			}
			l += ")"
		}
	}
	return l
}

func patternLabel(spec workload.Spec) string {
	if spec.SeparateFiles {
		return "separate-files"
	}
	if spec.Mode != pfs.MAsync {
		return "interleaved"
	}
	return spec.Pattern.String()
}

// pick returns a uniformly random element (repeats weight the draw).
func pick[T any](rng *rand.Rand, choices ...T) T {
	return choices[rng.Intn(len(choices))]
}

func pick64(rng *rand.Rand, choices ...int64) int64 { return pick(rng, choices...) }
