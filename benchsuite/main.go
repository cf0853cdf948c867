package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"
)

// benchEndToEnd are the end-to-end metrics BENCHMARK.json bounds: the
// host costs a user pays and the simulated results the paper reports,
// all of which every workload produces and none of which is ever 0.
var benchEndToEnd = []string{"wall_s", "setup_s", "max_rss_mb", "sim_mbps", "sim_read_p50_ms", "ok_frac"}

// benchPerLayer are the metrics a traced run reports to BENCHMARK.json:
// the end-to-end numbers paper-repro cannot produce (reads_per_s, the
// latency tail, slo_frac), then every ledger entry.
func benchPerLayer() []string {
	var out []string
	for _, u := range unitOf {
		if !slices.Contains(benchEndToEnd, u.name) {
			out = append(out, u.name)
		}
	}
	return out
}

func main() {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	var (
		name    = flag.String("workload", "", "workload to measure: "+strings.Join(names, ", "))
		seed    = flag.Int64("seed", 1, "seed every workload input is drawn from")
		seconds = flag.Float64("seconds", 15, "seconds of timed repetitions (halved between untraced and profiled with -trace 1)")
		reps    = flag.Int("reps", 0, "run exactly this many timed repetitions instead of -seconds")
		trace   = flag.Int("trace", 0, "1: after the timed repetitions, profile more of them and report the per-layer ledger")
		suite   = flag.Bool("suite", false, "measure every workload, each in its own child process, and print the end-to-end table and the ledger")
	)
	flag.Parse()
	if *suite {
		os.Exit(runSuite(*seed))
	}
	def, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsuite:", err)
		os.Exit(2)
	}
	opt := options{
		seconds: *seconds, reps: *reps, trace: *trace == 1, div: 1,
		// 5.5 CPU seconds at the profiler's 100 Hz give the ledger over
		// 500 samples.
		setupPasses: 9, passMin: 250 * time.Millisecond, profileCPU: 5.5,
	}
	rep, err := measure(def, *seed, opt)
	if err != nil {
		rep.Error = err.Error()
		fmt.Fprintln(os.Stderr, "benchsuite:", err)
	}
	printReport(os.Stdout, rep)
	metricNames := benchEndToEnd
	if opt.trace {
		metricNames = benchPerLayer()
	}
	// The report line is what -suite reads; the result line comes last.
	for _, line := range []struct {
		prefix string
		v      any
	}{{"report ", rep}, {"", summarize(rep, metricNames, opt.trace)}} {
		buf, jerr := json.Marshal(line.v)
		if jerr != nil {
			fmt.Fprintln(os.Stderr, "benchsuite:", jerr)
			os.Exit(1)
		}
		fmt.Printf("%s%s\n", line.prefix, buf)
	}
	if err != nil {
		os.Exit(1)
	}
}

// result is the one-line summary the benchmark prints last. Attempted
// counts the timed repetitions and failed the ones that errored or
// failed an output check; a failure stops the run, so failed is 0 or 1.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summarize builds the result line for the named metrics. A per-layer
// metric the workload has no value for (a layer it does not exercise, or
// any counter of paper-repro, whose runs happen inside the experiments
// package) is reported as 0; every end-to-end metric always has one.
func summarize(rep *report, names []string, traced bool) result {
	res := result{Correct: rep.Error == "", Attempted: rep.Reps, Metrics: map[string]valueUnit{}}
	if traced {
		res.Attempted += rep.tracedReps()
	}
	if !res.Correct {
		res.Attempted++
		res.Failed = 1
	}
	for _, name := range names {
		v, _ := rep.value(name)
		res.Metrics[name] = valueUnit{Value: v, Unit: unit(name)}
	}
	return res
}

// tracedReps reports how many profiled repetitions the run made.
func (r *report) tracedReps() int {
	for _, s := range r.Spans {
		if s.Name == "traced-rep" {
			return s.Count
		}
	}
	return 0
}

// unit returns the unit of a metric the suite reports.
func unit(name string) string {
	for _, u := range unitOf {
		if u.name == name {
			return u.unit
		}
	}
	return ""
}

// printReport writes one workload's measurement for people to read.
func printReport(w io.Writer, rep *report) {
	fmt.Fprintf(w, "workload %s  seed %d  num_cpu %d  gomaxprocs %d  reps %d  fingerprint %s\n",
		rep.Workload, rep.Seed, rep.NumCPU, rep.GOMAXPROCS, rep.Reps, rep.Fingerprint)
	fmt.Fprintf(w, "  repetition walls (s):")
	for _, v := range rep.RepWalls {
		fmt.Fprintf(w, " %.4f", v)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  set-up passes (s):   ")
	for _, v := range rep.SetupPasses {
		fmt.Fprintf(w, " %.6f", v)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  host slowdown:       ")
	for _, v := range rep.RepSlowdown {
		fmt.Fprintf(w, " %.4f", v)
	}
	fmt.Fprintln(w)
	for _, m := range rep.Metrics {
		fmt.Fprintf(w, "  %-30s %14.6g %-10s n=%d\n", m.Name, m.Value, m.Unit, m.N)
	}
	if len(rep.Spans) > 0 {
		fmt.Fprintf(w, "  spans: %-12s %6s %12s %12s\n", "name", "count", "total_s", "self_s")
		for _, s := range rep.Spans {
			fmt.Fprintf(w, "         %-12s %6d %12.4f %12.4f\n", s.Name, s.Count, s.Total, s.Self)
		}
	}
	if rep.Error != "" {
		fmt.Fprintf(w, "  error: %s\n", rep.Error)
	}
}
