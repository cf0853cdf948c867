// Command simcheck runs the deterministic-simulation checker: every seed
// expands to one random machine + workload scenario, which is simulated
// several times under invariant oracles (determinism, data correctness,
// conservation, sanity/monotonicity — see internal/simcheck).
//
// Sweep a seed range:
//
//	simcheck -seeds 100
//
// Seeds are independent, so the sweep fans out across -parallel workers
// (default: all CPUs); output and exit status are identical at any
// width. Any failure prints the offending seed and oracle; replay
// exactly that scenario, with full evidence, via:
//
//	simcheck -seed N -v
//
// Chaos mode force-arms transient disk faults with the retry layer on
// every seed and asserts full recovery, then replays each scenario with
// retries disabled to prove the faults were genuinely fatal without the
// protection:
//
//	simcheck -chaos -seeds 25
//
// Crash mode force-arms scheduled whole-I/O-node outages (and sometimes
// a permanent RAID member loss with an online rebuild) with restart-aware
// failover on every seed and asserts that every requested byte is
// delivered, counted late, or counted unavailable — never silently
// lost — then replays each outage schedule with failover and parity
// stripped to prove the crashes were genuinely fatal without them:
//
//	simcheck -crash -seeds 25
//
// Scale mode moves every seed's scenario onto the 256×64 large-machine
// platform — tiled stripe groups, wide declustering — under the
// unchanged oracle set:
//
//	simcheck -scale -seeds 10
//
// QoS mode expands every seed into an open-loop multi-tenant overload
// scenario — heavy-tailed arrivals from dozens-to-hundreds of weighted
// tenants against the I/O-node fair scheduler and per-tenant admission —
// and checks determinism, per-tenant request and byte conservation,
// starvation-freedom, and the SCFQ fairness bound; each seed's
// deliberately unfair FIFO twin must violate that bound somewhere in the
// sweep or the sweep fails as too tame:
//
//	simcheck -qos -seeds 25
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/simcheck"
)

func main() {
	var (
		seeds     = flag.Int("seeds", 50, "number of consecutive seeds to check")
		start     = flag.Int64("start", 1, "first seed of the sweep")
		seed      = flag.Int64("seed", -1, "check exactly this one seed (replay mode)")
		chaos     = flag.Bool("chaos", false, "force transient faults + retries on every seed (recovery sweep)")
		crash     = flag.Bool("crash", false, "force whole-node outages + failover on every seed (crash sweep)")
		scale     = flag.Bool("scale", false, "move every seed's scenario onto the 256x64 scale platform")
		qos       = flag.Bool("qos", false, "open-loop multi-tenant overload scenarios with the fair scheduler (QoS sweep)")
		verbose   = flag.Bool("v", false, "describe every checked scenario, not just failures")
		keepGoing = flag.Bool("keep-going", false, "sweep past the first failing seed")
		parallel  = flag.Int("parallel", runtime.NumCPU(), "worker-pool width for the sweep (1 = serial)")
	)
	flag.Parse()

	if *seed < 0 && *seeds <= 0 {
		fmt.Fprintln(os.Stderr, "simcheck: -seeds must be positive")
		os.Exit(2)
	}
	modes := 0
	for _, on := range []bool{*chaos, *crash, *scale, *qos} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		fmt.Fprintln(os.Stderr, "simcheck: -chaos, -crash, -scale, and -qos are mutually exclusive")
		os.Exit(2)
	}
	if *seed >= 0 {
		switch {
		case *qos:
			rep := simcheck.CheckQoS(*seed)
			rep.Describe(os.Stdout)
			if !rep.OK() {
				os.Exit(1)
			}
		case *scale:
			rep := simcheck.CheckScale(*seed)
			rep.Describe(os.Stdout)
			if !rep.OK() {
				os.Exit(1)
			}
		case *chaos:
			rep := simcheck.CheckChaos(*seed)
			rep.Describe(os.Stdout)
			if !rep.OK() {
				os.Exit(1)
			}
		case *crash:
			rep := simcheck.CheckCrash(*seed)
			rep.Describe(os.Stdout)
			if !rep.OK() {
				os.Exit(1)
			}
		default:
			rep := simcheck.Check(*seed)
			rep.Describe(os.Stdout)
			if !rep.OK() {
				os.Exit(1)
			}
		}
		fmt.Println("ok")
		return
	}

	if *qos {
		failed, unfair, throttled := simcheck.CheckQoSRange(*start, *seeds, *parallel, !*keepGoing, func(rep simcheck.QoSReport) {
			if *verbose || !rep.OK() {
				rep.Describe(os.Stdout)
			}
		})
		if len(failed) > 0 {
			fmt.Printf("simcheck: %d failing qos seed(s) (replay with -qos -seed N -v)\n", len(failed))
			os.Exit(1)
		}
		fmt.Printf("simcheck: %d qos seeds ok (start=%d); %d throttled under overload, %d FIFO twins unfair\n",
			*seeds, *start, throttled, unfair)
		// A QoS sweep whose FIFO twins all stayed inside the fairness bound
		// proves nothing about the scheduler: either the load was too tame
		// to create contention or the oracle cannot detect unfairness. Any
		// reasonable width hits unfair twins; tiny replay sweeps are exempt.
		if unfair == 0 && *seeds >= 10 {
			fmt.Println("simcheck: qos sweep produced no unfair FIFO twin — scenarios too tame")
			os.Exit(1)
		}
		return
	}

	if *crash {
		failed, unprotected := simcheck.CheckCrashRange(*start, *seeds, *parallel, !*keepGoing, func(rep simcheck.CrashReport) {
			if *verbose || !rep.OK() {
				rep.Describe(os.Stdout)
			}
		})
		if len(failed) > 0 {
			fmt.Printf("simcheck: %d failing crash seed(s)\n", len(failed))
			os.Exit(1)
		}
		fmt.Printf("simcheck: %d crash seeds survived with failover (start=%d); %d would have failed without it\n",
			*seeds, *start, unprotected)
		// A crash sweep whose outages were all survivable without the
		// failover layer proves nothing about it. Any reasonable width
		// hits unprotected failures; tiny replay-style sweeps are exempt.
		if unprotected == 0 && *seeds >= 10 {
			fmt.Println("simcheck: crash sweep exercised no fatal outage — scenarios too tame")
			os.Exit(1)
		}
		return
	}

	if *chaos {
		failed, unprotected := simcheck.CheckChaosRange(*start, *seeds, *parallel, !*keepGoing, func(rep simcheck.ChaosReport) {
			if *verbose || !rep.OK() {
				rep.Describe(os.Stdout)
			}
		})
		if len(failed) > 0 {
			fmt.Printf("simcheck: %d failing chaos seed(s)\n", len(failed))
			os.Exit(1)
		}
		fmt.Printf("simcheck: %d chaos seeds recovered (start=%d); %d would have failed without retries\n",
			*seeds, *start, unprotected)
		// A chaos sweep that never needed its retries proves nothing about
		// the fault path. Any reasonable width hits unprotected failures;
		// tiny replay-style sweeps are exempt.
		if unprotected == 0 && *seeds >= 10 {
			fmt.Println("simcheck: chaos sweep exercised no fatal fault — scenarios too tame")
			os.Exit(1)
		}
		return
	}

	if *scale {
		failed := simcheck.CheckScaleRange(*start, *seeds, *parallel, !*keepGoing, func(rep simcheck.Report) {
			if *verbose || !rep.OK() {
				rep.Describe(os.Stdout)
			}
		})
		if len(failed) > 0 {
			fmt.Printf("simcheck: %d failing scale seed(s) (replay with -scale -seed N -v)\n", len(failed))
			os.Exit(1)
		}
		fmt.Printf("simcheck: %d scale seeds ok on 256x64 (start=%d)\n", *seeds, *start)
		return
	}

	failed := simcheck.CheckRange(*start, *seeds, *parallel, !*keepGoing, func(rep simcheck.Report) {
		if *verbose || !rep.OK() {
			rep.Describe(os.Stdout)
		}
	})
	if len(failed) > 0 {
		fmt.Printf("simcheck: %d failing seed(s)\n", len(failed))
		os.Exit(1)
	}
	fmt.Printf("simcheck: %d seeds ok (start=%d)\n", *seeds, *start)
}
