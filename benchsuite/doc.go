// Command benchsuite is the simulator's performance benchmark: five named
// workloads, each measured end to end in host time with its output
// checked, plus a per-layer ledger that says where the CPU and the
// simulated time went. BENCHMARK.json at the repository root describes it
// (workloads, metrics, units, bounds).
//
// It is a module of its own that builds against the repository through a
// replace directive. Run it with
//
//	bash benchsuite/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bash benchsuite/run.sh -suite [-seed n]
//
// from the repository root; run.sh builds into benchsuite/.bench_build.
// The first form measures one workload and ends with a one-line JSON
// result ({"correct", "attempted", "failed", "metrics"}) holding the
// BENCHMARK.json end-to-end metrics, or with -trace 1 its per-layer
// metrics. The second runs all five, one at a time, each in its own
// child process with 7 timed repetitions (11 for paper-repro) and a
// CPU-profiled phase, then prints every end-to-end metric with its sample
// count and the ledger as a table of metrics by workload. Tests run with
// `go test` in this directory, at about a twelfth of the benchmark's
// size.
//
// # Workloads
//
// All run the default single-kernel engine and heap queue at the default
// GOMAXPROCS (the CPU count; both are recorded). One repetition of each
// takes a second or less on the reference host, so that many
// repetitions, each closely bracketed by host probe samples (see Host
// drift), fit in a run.
//
//   - paper-balanced: the default 8+8 machine (UFS seed = seed) reading
//     one shared 1 GiB file in M_RECORD with 64 KiB requests, the
//     default prefetcher and 20 ms of computation between reads: 16384
//     reads. Compute is below the read access time (about 36 ms), so
//     every read is a prefetch hit-in-wait and the run is disk-bound. It
//     allocates almost nothing per read, so its host cost is the event
//     kernel and proc hand-off.
//   - scale-steady: the 1024+256 scale machine (scenarios.ScaleMachine,
//     with the default 5% UFS fragmentation so the seed moves the
//     layout), one private 2 MiB file per node, 64 KiB reads, prefetch
//     on, 50 ms of computation: 32768 reads. Mesh contention, 1024 live
//     procs whose stacks the GC scans, and the heaviest set-up.
//   - faults: the 8+8 machine with transient disk faults (rate 0.03,
//     jitter 0.2), the fault breaker, the crash-failover retry policy of
//     scenarios.CrashMachine, 32 node outages of 3 s within 500 s, and a
//     RAID member lost at 50 s with an online rebuild; reads as
//     paper-balanced but of a 4 GiB file (65536 reads) with 50 ms of
//     computation and unavailable reads tolerated. The only workload on
//     the retry, timeout, failover, degraded-read and rebuild paths, and
//     the closed loop whose reads fail (about 0.2% are unavailable). The
//     seed moves only the block layout: the fault stream and the outage
//     schedule are fixed (seed 1), because drawn from the seed either
//     moves sim_mbps by about 1% between seeds. Its file is the largest
//     for the same reason: over ten seeds, the layout alone spread
//     sim_mbps by 0.35-0.42% of the median at 1 and 2 GiB, and 0.31% at
//     4 GiB.
//   - qos-overload: an open loop in simulated time. 1024 tenants on the
//     buffered 8+8 machine (Fast Path off, so the UFS cache is live) with
//     weighted fair queueing (4:2:1, 2 slots) and token-bucket admission
//     at 4 KiB/s per weight; 16 KiB reads of 128 Zipf-popular 1 MiB
//     files, 16 base requests per tenant (29727 arrivals) at a 2.4 s
//     mean gap, no prefetching. Overloaded: about 10% of arrivals are
//     throttled and the latency tail grows to seconds while the backlog
//     stays bounded. Each request is timed from its due time, so the
//     generator is never late, and every scheduled arrival must be
//     spawned. It is the workload a prefetch change is predicted not to
//     move. Its inputs do not depend on the seed: in overload, with 64
//     requests per tenant, a seed-drawn schedule put p50 anywhere from 4
//     to 22 ms, and even a seed-drawn block layout alone moved p50 and
//     p99 by 2-4%, so each seed would be a different operating point
//     rather than a sample of one.
//   - paper-repro: fig2, table1, table2, fig4, fig5, table3 and table4 at
//     experiments.PaperScale, serially. What reproducing the paper costs
//     a user: hundreds of short 8+8 runs, where set-up and small-run
//     overheads weigh most. It does not depend on the seed.
//
// # Metrics
//
// A run sets up (timed passes), runs one discarded warm-up repetition,
// then repeats the workload for the given seconds (at least 5 times).
// End to end, with tracing off:
//
//   - wall_s: host seconds of one timed repetition (the run plus checking
//     its output) on the reference host: the median over the repetitions
//     of each one's wall seconds divided by the host slowdown measured
//     around it (see Host drift);
//   - setup_s: host seconds of one machine.Build plus file layout on the
//     reference host, the median of 9 passes of back-to-back set-ups of
//     at least 0.25 s each, timed before anything else runs and scaled
//     as wall_s is. For paper-repro it is the set-up of one Figure 4 cell
//     (the 8+8 machine and its 128 MiB shared file), which Figures 4 and
//     5 repeat 40 times;
//   - max_rss_mb: the process's peak resident memory, MiB, through a
//     fixed amount of work: the set-up passes, the warm-up and the first
//     5 timed repetitions, less the host probe's 32 MiB table;
//   - sim_mbps: simulated application MB/s, the paper's metric;
//   - sim_read_p50_ms: median simulated blocking-read latency (on the
//     open loop timed from each request's due time);
//   - ok_frac: attempted reads (QoS arrivals) that returned their data,
//     over all attempted: failures (unavailable, throttled, overloaded or
//     failed) count against it. It is 1 on paper-balanced, scale-steady
//     and paper-repro.
//
// The simulated metrics are deterministic for a seed and equal on traced
// and untraced runs. paper-repro runs inside the experiments package, so
// it reads them from its tables: sim_mbps is the geometric mean of every
// bandwidth cell and sim_read_p50_ms that of Table 2's read access times
// (per-size medians, printed to 10 ms), and ok_frac is 1 because a table
// exists only when every read of its runs succeeded.
//
// The result line of a traced run also carries the end-to-end numbers
// paper-repro cannot produce: reads_per_s (reads, or QoS arrivals, per
// second of wall_s), sim_read_p99_ms and sim_read_p999_ms (over at least
// 16384 samples, so more than ten lie beyond p999) and slo_frac (reads
// completed within 100 ms over attempted reads).
//
// # Host drift
//
// On a shared host, other tenants slow the simulator by a factor that
// changes within seconds and over minutes: on a 2-CPU Xeon VM, the median
// repetition of one run was up to 2x that of a run minutes earlier, and
// raw wall times of ten runs spread by up to 0.53 of their median. No
// statistic over one run's repetitions removes that; a probe that feels
// the same slowdown removes most of it (hostref.go). Between every two timed
// repetitions, and between set-up passes, the benchmark measures for
// about 0.12 s the latency of dependent loads through a 32 MiB table and
// of goroutine round trips, and divides each repetition's time by the
// mean slowdown just before and after it. The reference host, slowdown 1,
// is one where those take 140 and 400 ns. The probe is the benchmark's
// own code, so a change to the program cannot move it; a change that
// makes the program slower or faster moves wall_s as it moves the raw
// time.
//
// # The ledger
//
// Layers are measured from outside only. X.cpu_frac is the share of
// flat CPU-profile samples (the leaf function decides) in package
// repro/internal/X during the profiled repetitions, which run without
// the probe; the Go runtime counts as runtime and everything else as
// other, so the shares sum to 1. machine.build_s and pfs.layout_s are the
// set-up passes' split. The runtime metrics come from runtime/metrics and
// rusage over the untraced repetitions; all other entries are counters
// and histograms the layers already export, read after the warm-up run
// and normalized per attempted read where named so.
// trace.overhead_frac is the median profiled repetition's raw wall over
// the median untraced one's, minus 1. host.raw_wall_s is the median
// untraced repetition's unscaled wall seconds and host.slowdown the
// median slowdown the probe measured around them, so wall_s is about
// their quotient. The suite's own calls are kept as in-memory spans
// (setup with build and layout children; each repetition with run and
// verify children) and printed with counts, total and self time.
//
// In the suite table "-" marks a metric the workload does not have: the
// prefetcher's on qos-overload, every counter on paper-repro. The
// result line reports those as 0.
//
// What each layer metric should move, and where:
//
//   - runtime (gc_cpu_frac, gc_cycles, allocs_per_read, cpu_per_wall):
//     wall_s and max_rss_mb; heavy on qos-overload and
//     scale-steady (allocation, GC, stacks), light on paper-balanced,
//     whose host cost is hand-off;
//   - sim (cpu_frac, events_per_read, max_queue_depth): wall_s; the
//     largest share on paper-balanced, queue depth on faults and
//     scale-steady;
//   - machine.build_s, pfs.layout_s: setup_s; scale-steady;
//   - mesh (messages_per_read, latency percentiles): sim_read_p99_ms and
//     wall_s on scale-steady, light on 8+8;
//   - pfs (stripe_requests_per_read and the fault counters): ok_frac
//     and sim_read_p99_ms; fault counters are nonzero only on faults;
//   - ionode (service percentiles, shed, throttled, dropped,
//     max_lag_costs): sim_read_p99_ms, slo_frac and ok_frac; the fair
//     queue only on qos-overload, shedding and drops on faults;
//   - ufs (cache_hit_frac, disk_ops_per_read, fill_waits):
//     sim_read_p50_ms and slo_frac, only on qos-overload (the others use
//     Fast Path);
//   - disk (util, requests_per_read, seek_mean_cyl, queue_len_p99,
//     errors, degraded_reads, rebuild_bytes): sim_mbps and
//     sim_read_p99_ms on paper-balanced (disk-bound) and faults;
//   - prefetch (hit_frac, full_hit_frac, accuracy, wasted, wait_p50_ms,
//     copy_bytes_per_read): sim_mbps and sim_read_p50_ms on
//     paper-balanced, faults and scale-steady; absent on qos-overload;
//   - workload, stats, other: the residual of wall_s, always reported.
//
// # Memory across runs
//
// A finished run leaves its daemon procs (each disk server and each
// file's async-I/O loop) parked on simulated queues, and their goroutines
// keep the whole machine reachable, as do the machines paper-repro's
// experiments build. So runs in one process, as in the experiments
// harness, grow the heap by about a machine per run, and max_rss_mb,
// which spans a fixed six runs, is dominated by that growth. Tearing
// finished machines down would lower max_rss_mb and GC work in wall_s.
//
// # Correctness
//
// Every repetition of a workload, warm-up and profiled ones included,
// must produce the same workload.Result fingerprint (for paper-repro, the
// same digest of the rendered tables). Every closed-loop run must
// deliver or count unavailable exactly the requested bytes, and
// paper-balanced and scale-steady may fail no read. On qos-overload
// every tenant must satisfy Done+Throttled+Overloaded+Failed == Requests
// and SrvBytes == IOBytes+LateBytes+AbandonedBytes, and its arrivals
// must equal a reference recomputation of the schedule. A failure ends
// the run with "correct": false and a non-zero exit.
//
// # Bounds
//
// BENCHMARK.json bounds each end-to-end metric by the share of the
// parent commit's median it may worsen: wall_s 0.20, max_rss_mb 0.10,
// 0.01 for each simulated metric, and setup_s 0.25, the largest, so that
// work moved into set-up shows.
//
// On the 2-CPU Xeon VM, two sets of ten 15-second runs per workload, each
// run with its own seed, gave these interquartile ranges over the median
// (first set, second set). wall_s: 0.040-0.063 and 0.027-0.061, while
// the raw median repetition spread 0.029-0.11 and 0.038-0.099; an earlier
// set in a noisier hour (with faults then reading 1 GiB), with the raw
// medians spreading 0.11-0.53, gave 0.034-0.062. setup_s: 0.037-0.063 and 0.025-0.061. max_rss_mb: at most
// 0.021 and 0.023. sim_mbps: 0.0031 on faults, 0.0009 or less elsewhere;
// sim_read_p50_ms 0; ok_frac at most 0.0007. Each is under a third of its
// bound. Between the two sets the medians of wall_s and setup_s moved by
// 4% or less, those of the other metrics by under 1%. A 0.10 bound on
// wall_s would need spreads under 0.033: the probe removes most of the
// host's drift, not all of it.
package main
