package simcheck

import (
	"fmt"
	"io"

	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// Report is the outcome of checking one seed.
type Report struct {
	Seed     int64
	Scenario Scenario
	Failures []Failure

	// Replay evidence for -v output (zero when the base run errored).
	Elapsed     sim.Time
	Bandwidth   float64
	ReadCalls   int64
	Fingerprint uint64
	TraceDigest uint64
	RunErr      error // base run's error (expected only on Faulty scenarios)
}

// OK reports whether every oracle passed.
func (r Report) OK() bool { return len(r.Failures) == 0 }

// monotoneDelayBump is added to the compute delay for the monotonicity
// rerun. It is large relative to every per-request service time in the
// model so that genuine slowdown dominates any phase effect (a slightly
// shifted arrival pattern can change disk contention either way; +50 ms
// per read cannot make a run faster unless time accounting is broken).
const monotoneDelayBump = 50 * sim.Millisecond

// CheckScenario runs every applicable oracle over an explicitly-built
// scenario — the hook for callers outside the seeded population (the
// prefetcher tournament uses it to prove its hybrid+controller cells
// hold the same determinism, conservation, and data-correctness
// invariants as the generated scenarios).
func CheckScenario(sc Scenario) Report { return checkScenario(sc) }

// Check expands the seed into a scenario and runs every applicable
// oracle over it. It simulates the scenario up to four times: twice
// identically (determinism), once without prefetching (data
// correctness), and once with a longer compute delay (monotonicity).
func Check(seed int64) Report {
	return checkScenario(Generate(seed))
}

// checkScenario runs every oracle applicable to the scenario's fault
// class. Recoverable (chaos) scenarios get the full set minus
// monotonicity, plus the recovery oracle: the run must succeed outright
// and never exhaust a retry budget.
func checkScenario(sc Scenario) Report {
	seed := sc.Seed
	rep := Report{Seed: seed, Scenario: sc}

	base := execute(sc.Cfg, sc.Spec)
	again := execute(sc.Cfg, sc.Spec)
	rep.Failures = append(rep.Failures, checkDeterminism(seed, base, again)...)

	if base.err != nil {
		rep.RunErr = base.err
		switch {
		case sc.Recoverable:
			rep.Failures = append(rep.Failures, Failure{Seed: seed, Oracle: "recovery",
				Detail: fmt.Sprintf("transient faults with retries armed must always recover, run failed: %v", base.err)})
		case !sc.Faulty:
			rep.Failures = append(rep.Failures, Failure{Seed: seed, Oracle: "sanity",
				Detail: fmt.Sprintf("fault-free scenario failed: %v", base.err)})
		}
		return rep
	}
	rep.Elapsed = base.res.Elapsed
	rep.Bandwidth = base.res.Bandwidth
	rep.ReadCalls = base.res.ReadCalls
	rep.Fingerprint = base.res.Fingerprint()
	rep.TraceDigest = base.tl.Digest()

	rep.Failures = append(rep.Failures, checkSanity(seed, sc, base)...)
	if sc.Recoverable {
		rep.Failures = append(rep.Failures, checkRecovered(seed, base)...)
	}

	if !sc.Faulty {
		rep.Failures = append(rep.Failures, checkConservation(seed, sc, base)...)

		// Data correctness: against the prefetch-off twin when a prefetch
		// placement is configured, and always against the reference file
		// model (checkData compares a run to itself when plain == base,
		// which still exercises the analytic expected-sequence check).
		plain := base
		if sc.Spec.Prefetch != nil || sc.Spec.ServerSide != nil {
			spec := sc.Spec
			spec.Prefetch = nil
			spec.ServerSide = nil
			plain = execute(sc.Cfg, spec)
		}
		rep.Failures = append(rep.Failures, checkData(seed, sc, base, plain)...)

		// Monotonicity: more computation between reads can never make the
		// job finish earlier — unless a prefetcher is installed, in which
		// case longer compute gaps are exactly what lets read-ahead overlap
		// I/O with computation (the paper's central effect), and elapsed
		// time may legitimately drop; and under chaos, shifted arrival
		// times shift which requests draw faults, moving elapsed either
		// way. Only the overlap-free healthy baseline is required to be
		// monotone.
		if sc.Spec.Prefetch == nil && sc.Spec.ServerSide == nil && !sc.Recoverable {
			spec := sc.Spec
			spec.ComputeDelay += monotoneDelayBump
			rep.Failures = append(rep.Failures, checkMonotone(seed, base, execute(sc.Cfg, spec))...)
		}
	}
	return rep
}

// ChaosReport extends a chaos seed's Report with the retries-off twin's
// outcome: the same faulty scenario run without the retry layer.
type ChaosReport struct {
	Report
	// UnprotectedErr is the error of the retries-disabled twin run. nil
	// means the twin got lucky (no fault hit a user-facing request); a
	// chaos sweep asserts that at least one seed's twin failed, proving
	// the scenarios genuinely need the protection they exercise.
	UnprotectedErr error
}

// CheckChaos force-arms the chaos profile on the seed's scenario, runs
// the full oracle set, and then replays the identical scenario with the
// retry layer disabled to observe whether the faults would have been
// fatal without it.
func CheckChaos(seed int64) ChaosReport {
	sc := GenerateChaos(seed)
	crep := ChaosReport{Report: checkScenario(sc)}
	twin := sc
	twin.Cfg.PFS.Retry = pfs.RetryPolicy{}
	crep.UnprotectedErr = execute(twin.Cfg, twin.Spec).err
	return crep
}

// CheckChaosRange is CheckRange over CheckChaos: seeds [start, start+n)
// on a worker pool, reports delivered to onReport in seed order at every
// pool width. It returns the failing reports and how many seeds' twin
// runs failed without retry protection.
func CheckChaosRange(start int64, n, workers int, stopFirst bool, onReport func(ChaosReport)) (failed []ChaosReport, unprotected int) {
	sweep.Stream(workers, n, func(i int) ChaosReport {
		return CheckChaos(start + int64(i))
	}, func(_ int, rep ChaosReport) bool {
		if onReport != nil {
			onReport(rep)
		}
		if rep.UnprotectedErr != nil {
			unprotected++
		}
		if !rep.OK() {
			failed = append(failed, rep)
			if stopFirst {
				return false
			}
		}
		return true
	})
	return failed, unprotected
}

// CrashReport extends a crash seed's Report with the failover-off
// twin's outcome: the same outage schedule run without node-down
// awareness, without the unavailable-read policy, and without parity.
type CrashReport struct {
	Report
	// UnfailoveredErr is the error of the failover-disabled twin run. nil
	// means the twin got lucky (no outage hit a user-facing request hard
	// enough); a crash sweep asserts that at least one seed's twin
	// failed, proving the scenarios genuinely need the protection.
	UnfailoveredErr error
}

// CheckCrash force-arms the crash profile on the seed's scenario, runs
// determinism, sanity, and the crash oracle set, and then replays the
// identical outage schedule with the failover stripped — no down-node
// awareness, no unavailable policy, no parity — to observe whether the
// crashes would have been fatal without the protection.
func CheckCrash(seed int64) CrashReport {
	sc := GenerateCrash(seed)
	rep := CheckCrashScenario(sc)

	twin := sc
	twin.Cfg.NoParity = true
	twin.Cfg.PFS.Retry.DownPoll = 0
	twin.Cfg.PFS.Retry.DownDeadline = 0
	twin.Spec.ContinueOnUnavailable = false
	return CrashReport{Report: rep, UnfailoveredErr: execute(twin.Cfg, twin.Spec).err}
}

// CheckCrashScenario runs determinism, sanity, and the crash oracle set
// over an explicitly-built crash scenario: the machine must carry a
// crash (or member-fail) plan with restart-aware failover armed, and the
// spec a statically-assigned access pattern with ContinueOnUnavailable
// and recorded deliveries, as GenerateCrash builds and as the
// ext-tournament experiment's crash family reuses.
func CheckCrashScenario(sc Scenario) Report {
	seed := sc.Seed
	rep := Report{Seed: seed, Scenario: sc}

	base := execute(sc.Cfg, sc.Spec)
	again := execute(sc.Cfg, sc.Spec)
	rep.Failures = append(rep.Failures, checkDeterminism(seed, base, again)...)

	if base.err != nil {
		rep.RunErr = base.err
		rep.Failures = append(rep.Failures, Failure{Seed: seed, Oracle: "crash",
			Detail: fmt.Sprintf("crash run with failover armed must survive, run failed: %v", base.err)})
	} else {
		rep.Elapsed = base.res.Elapsed
		rep.Bandwidth = base.res.Bandwidth
		rep.ReadCalls = base.res.ReadCalls
		rep.Fingerprint = base.res.Fingerprint()
		rep.TraceDigest = base.tl.Digest()
		rep.Failures = append(rep.Failures, checkSanity(seed, sc, base)...)
		rep.Failures = append(rep.Failures, checkCrash(seed, sc, base)...)
	}
	return rep
}

// CheckCrashRange is CheckRange over CheckCrash: seeds [start, start+n)
// on a worker pool, reports delivered to onReport in seed order at every
// pool width. It returns the failing reports and how many seeds' twin
// runs failed without failover protection.
func CheckCrashRange(start int64, n, workers int, stopFirst bool, onReport func(CrashReport)) (failed []CrashReport, unprotected int) {
	sweep.Stream(workers, n, func(i int) CrashReport {
		return CheckCrash(start + int64(i))
	}, func(_ int, rep CrashReport) bool {
		if onReport != nil {
			onReport(rep)
		}
		if rep.UnfailoveredErr != nil {
			unprotected++
		}
		if !rep.OK() {
			failed = append(failed, rep)
			if stopFirst {
				return false
			}
		}
		return true
	})
	return failed, unprotected
}

// CheckScale expands the seed onto the 256×64 scale platform
// (GenerateScale) and runs the same oracle set as Check — determinism,
// conservation, data correctness against the prefetch-off twin and the
// reference model, sanity, and (for the overlap-free healthy baseline)
// monotonicity all apply to the flat large-machine layouts unchanged.
func CheckScale(seed int64) Report {
	return checkScenario(GenerateScale(seed))
}

// CheckScaleRange is CheckRange over CheckScale: seeds [start, start+n)
// on a worker pool, reports delivered in seed order at every width.
func CheckScaleRange(start int64, n, workers int, stopFirst bool, onReport func(Report)) []Report {
	var failed []Report
	sweep.Stream(workers, n, func(i int) Report {
		return CheckScale(start + int64(i))
	}, func(_ int, rep Report) bool {
		if onReport != nil {
			onReport(rep)
		}
		if !rep.OK() {
			failed = append(failed, rep)
			if stopFirst {
				return false
			}
		}
		return true
	})
	return failed
}

// CheckRange checks seeds [start, start+n) across a pool of workers
// (workers <= 1 checks serially on the calling goroutine; workers <= 0
// means one worker per CPU). Reports are delivered to onReport in seed
// order regardless of pool width — each seed's check is an independent
// simulation, so the report stream, the returned failure slice, and the
// stop-at-first-failure point are identical at every width. The failing
// reports are returned. If stopFirst is set, no report after the first
// failing seed is delivered.
func CheckRange(start int64, n, workers int, stopFirst bool, onReport func(Report)) []Report {
	var failed []Report
	sweep.Stream(workers, n, func(i int) Report {
		return Check(start + int64(i))
	}, func(_ int, rep Report) bool {
		if onReport != nil {
			onReport(rep)
		}
		if !rep.OK() {
			failed = append(failed, rep)
			if stopFirst {
				return false
			}
		}
		return true
	})
	return failed
}

// Describe writes a human-readable account of the report: the scenario,
// run evidence, and every failure with its replay command.
func (r Report) Describe(w io.Writer) {
	fmt.Fprintf(w, "seed %d: %s\n", r.Seed, r.Scenario.Label())
	if r.RunErr != nil {
		fmt.Fprintf(w, "  run error: %v\n", r.RunErr)
	} else {
		fmt.Fprintf(w, "  elapsed=%v bandwidth=%.2fMB/s reads=%d fingerprint=%016x trace=%016x\n",
			r.Elapsed, r.Bandwidth, r.ReadCalls, r.Fingerprint, r.TraceDigest)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAIL [%s] %s\n", f.Oracle, f.Detail)
	}
	if len(r.Failures) > 0 {
		fmt.Fprintf(w, "  replay: go run ./cmd/simcheck -seed %d -v\n", r.Seed)
	}
}

// Describe writes the chaos report: the protected run's account plus the
// retries-off twin's fate.
func (r ChaosReport) Describe(w io.Writer) {
	r.Report.Describe(w)
	if r.UnprotectedErr != nil {
		fmt.Fprintf(w, "  without retries: %v\n", r.UnprotectedErr)
	} else {
		fmt.Fprintf(w, "  without retries: survived (no fault hit a user-facing request)\n")
	}
	if len(r.Failures) > 0 {
		fmt.Fprintf(w, "  replay: go run ./cmd/simcheck -chaos -seed %d -v\n", r.Seed)
	}
}

// Describe writes the crash report: the protected run's account plus the
// failover-off twin's fate.
func (r CrashReport) Describe(w io.Writer) {
	r.Report.Describe(w)
	if r.UnfailoveredErr != nil {
		fmt.Fprintf(w, "  without failover: %v\n", r.UnfailoveredErr)
	} else {
		fmt.Fprintf(w, "  without failover: survived (no outage hit a user-facing request hard enough)\n")
	}
	if len(r.Failures) > 0 {
		fmt.Fprintf(w, "  replay: go run ./cmd/simcheck -crash -seed %d -v\n", r.Seed)
	}
}
