// Command runbench is the golden-scenario benchmark harness: it runs the
// four golden scenarios (healthy quickstart, chaos, crash, tournament) —
// the exact runs cmd/detgate digests — and reports how fast the
// simulator gets through them: events per wall-second, simulated seconds
// per wall-second, and heap allocations per simulated read. -scenario
// picks one of them, or the 1024×256 scale scenario. Results land in
// BENCH_run.json next to BENCH_sweep.json (regenerate both with
// `make bench`). The workload-scale benchmark with the per-layer ledger
// is benchsuite/ (see internal/runbench).
//
// Profile capture: -cpuprofile and -memprofile write standard pprof
// files covering the measurement runs, for `go tool pprof`.
//
// Speedup tracking: -baseline takes a previous BENCH_run.json from the
// SAME machine and records the healthy-scenario speedup against it.
// Numbers are wall-clock and machine-dependent — the JSON records
// num_cpu and gomaxprocs, and comparing files from different hardware
// measures the hardware, not the code. With -tolerance it is also a
// regression gate on per-run wall time (see runbench.Gate); a scenario
// whose result fingerprint differs from the baseline's is reported with
// a caveat instead of gated, because the two runs did different work.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/runbench"
	"repro/internal/scenarios"
)

type report struct {
	GoVersion  string                          `json:"go_version"`
	GOOS       string                          `json:"goos"`
	GOARCH     string                          `json:"goarch"`
	NumCPU     int                             `json:"num_cpu"`
	GOMAXPROCS int                             `json:"gomaxprocs"`
	Iterations int                             `json:"iterations"`
	Scenarios  map[string]runbench.Measurement `json:"scenarios"`

	// Baseline comparison (present only with -baseline): the healthy
	// scenario's events/sec ratio against the given earlier report. The
	// two runs cover identical event schedules (detgate pins them), so
	// the events/sec ratio is exactly the end-to-end wall-clock speedup.
	BaselinePath         string  `json:"baseline_path,omitempty"`
	BaselineEventsPerSec float64 `json:"baseline_events_per_sec,omitempty"`
	SpeedupHealthy       float64 `json:"speedup_healthy,omitempty"`

	// Regression gate (present only with -baseline -tolerance): every
	// scenario measured by both reports must finish a run within
	// baseline wall_sec / tolerance, or the run exits non-zero (after
	// writing the JSON, so the regressed numbers are inspectable).
	// BaselineCaveat records the one legitimate skip of the whole gate:
	// the baseline came from a host with a different CPU count, so the
	// wall-clock ratio would measure hardware, not code. GateCaveats
	// lists the scenarios left ungated because their fingerprints differ
	// from the baseline's.
	Tolerance      float64  `json:"tolerance,omitempty"`
	BaselineCaveat string   `json:"baseline_caveat,omitempty"`
	GateCaveats    []string `json:"gate_caveats,omitempty"`
}

func main() {
	var (
		out        = flag.String("o", "BENCH_run.json", "output JSON path (- for stdout)")
		iters      = flag.Int("iterations", 5, "runs per scenario; fastest wall-clock pass wins")
		short      = flag.Bool("short", false, "CI smoke mode: one run per scenario")
		only       = flag.String("scenario", "", "run only this scenario (quickstart, chaos, crash, tournament, or scale)")
		baseline   = flag.String("baseline", "", "earlier BENCH_run.json from this machine to compute speedup against")
		tolerance  = flag.Float64("tolerance", 0, "with -baseline: fail when a shared scenario's baseline wall_sec / this wall_sec drops below tolerance (0 disables; skipped with a caveat when the CPU counts differ, and per scenario when the fingerprints differ)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the measurement runs")
		memprofile = flag.String("memprofile", "", "write a heap profile taken after the measurement runs")
	)
	flag.Parse()
	opt := runbench.Options{Iterations: *iters}
	if *short {
		opt.Iterations = 1
		opt.MinWall = 50 * time.Millisecond
	}

	scs := scenarios.Golden()
	if *only != "" {
		sc, ok := scenarios.ByName(*only)
		if !ok {
			fatal(fmt.Sprintf("unknown scenario %q", *only))
		}
		scs = []scenarios.Scenario{sc}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err.Error())
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err.Error())
		}
		defer pprof.StopCPUProfile()
	}

	rep := report{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Iterations: opt.Iterations,
		Scenarios:  map[string]runbench.Measurement{},
	}
	for _, sc := range scs {
		m, err := runbench.Measure(sc, opt)
		if err != nil {
			fatal(err.Error())
		}
		rep.Scenarios[sc.Name] = m
		fmt.Printf("%-10s %8.3fs wall  %7.1f sim-s/wall-s  %11.0f events/s  %6.1f allocs/read\n",
			sc.Name, m.WallSec, m.SimPerWall, m.EventsPerSec, m.AllocsPerRead)
	}

	var regressions []string
	if *baseline != "" {
		buf, err := os.ReadFile(*baseline)
		if err != nil {
			fatal(err.Error())
		}
		var base report
		if err := json.Unmarshal(buf, &base); err != nil {
			fatal(fmt.Sprintf("parsing %s: %v", *baseline, err))
		}
		rep.BaselinePath = *baseline
		bq, okB := base.Scenarios["quickstart"]
		nq, okN := rep.Scenarios["quickstart"]
		if okB && okN && bq.EventsPerSec > 0 {
			rep.BaselineEventsPerSec = bq.EventsPerSec
			rep.SpeedupHealthy = nq.EventsPerSec / bq.EventsPerSec
			fmt.Printf("healthy speedup vs %s: %.2fx\n", *baseline, rep.SpeedupHealthy)
		}
		if *tolerance > 0 {
			rep.Tolerance = *tolerance
			if base.NumCPU != rep.NumCPU {
				rep.BaselineCaveat = fmt.Sprintf(
					"baseline measured on %d CPU(s), this host has %d: regression gate skipped (the wall-time ratio would measure hardware, not code)",
					base.NumCPU, rep.NumCPU)
				fmt.Println("caveat:", rep.BaselineCaveat)
			} else {
				for _, g := range runbench.Gate(base.Scenarios, rep.Scenarios, *tolerance) {
					fmt.Printf("gate %-10s %.2fx of baseline speed (wall-time ratio)\n", g.Scenario, g.Ratio)
					if g.Caveat != "" {
						rep.GateCaveats = append(rep.GateCaveats, g.Caveat)
						fmt.Println("caveat:", g.Caveat)
					}
					if g.Regressed {
						regressions = append(regressions, fmt.Sprintf(
							"%s: %.6fs per run is %.2fx the baseline's speed (%.6fs; tolerance %.2f)",
							g.Scenario, rep.Scenarios[g.Scenario].WallSec, g.Ratio, base.Scenarios[g.Scenario].WallSec, *tolerance))
					}
				}
			}
		}
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err.Error())
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err.Error())
		}
		f.Close()
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err.Error())
	}
	buf = append(buf, '\n')
	if *out == "-" {
		os.Stdout.Write(buf)
	} else if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatal(err.Error())
	} else {
		fmt.Println("wrote", *out)
	}
	// The report is written even on failure: the JSON is the evidence a
	// human (or a CI artifact download) needs to see what regressed.
	if len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Fprintln(os.Stderr, "runbench: regression: "+r)
		}
		os.Exit(1)
	}
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "runbench: "+msg)
	os.Exit(1)
}
