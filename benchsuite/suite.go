package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// suiteReps are the timed repetitions per workload in suite mode;
// paper-repro's repetitions are the shortest, so it gets more.
func suiteReps(name string) int {
	if name == "paper-repro" {
		return 11
	}
	return 7
}

// runSuite measures every workload in its own child process, one at a
// time: one warm-up, the timed repetitions, then a CPU-profiled phase.
// It prints every end-to-end metric with its median and sample count,
// then the per-layer ledger, and returns the exit code: non-zero when a
// child failed, an output check failed, or a ledger's CPU shares do not
// sum to 1.
func runSuite(seed int64) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsuite:", err)
		return 1
	}
	start := time.Now()
	var reps []*report
	code := 0
	for _, w := range workloads() {
		t0 := time.Now()
		rep, err := child(exe, "--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
			"--reps", strconv.Itoa(suiteReps(w.name)), "--trace", "1")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchsuite: %s: %v\n", w.name, err)
			code = 1
			if rep == nil {
				continue
			}
		}
		fmt.Printf("%-15s %2d reps  fingerprint %s  %.1f s\n", w.name, rep.Reps, rep.Fingerprint, time.Since(t0).Seconds())
		var sum float64
		for _, l := range layers {
			v, _ := rep.value(l + ".cpu_frac")
			sum += v
		}
		if math.Abs(sum-1) > 0.01 {
			fmt.Fprintf(os.Stderr, "benchsuite: %s: cpu_frac values sum to %.4f, not 1\n", w.name, sum)
			code = 1
		}
		reps = append(reps, rep)
	}
	if len(reps) == 0 {
		return 1
	}
	r0 := reps[0]
	fmt.Printf("\nseed %d  num_cpu %d  gomaxprocs %d  total %.1f s\n", seed, r0.NumCPU, r0.GOMAXPROCS, time.Since(start).Seconds())

	fmt.Printf("\nEnd to end (n = samples: wall_s is the median repetition and setup_s the median pass,\nboth scaled to the reference host; \"-\" = not produced by the workload)\n")
	var e2e, ledger []struct{ name, unit string }
	for _, u := range unitOf {
		if strings.Contains(u.name, ".") { // layer.metric
			ledger = append(ledger, u)
		} else {
			e2e = append(e2e, u)
		}
	}
	printMatrix(reps, e2e, true)
	fmt.Printf("\nPer-layer ledger (traced phase for cpu_frac; counters read after a run)\n")
	printMatrix(reps, ledger, false)
	return code
}

// printMatrix prints one row per metric and one column per workload.
func printMatrix(reps []*report, rows []struct{ name, unit string }, withN bool) {
	fmt.Printf("%-30s %-10s", "metric", "unit")
	for _, r := range reps {
		fmt.Printf(" %20s", r.Workload)
	}
	fmt.Println()
	for _, row := range rows {
		fmt.Printf("%-30s %-10s", row.name, row.unit)
		for _, r := range reps {
			cell := "-"
			for _, m := range r.Metrics {
				if m.Name == row.name {
					cell = strconv.FormatFloat(m.Value, 'g', 6, 64)
					if withN {
						cell += fmt.Sprintf(" (%d)", m.N)
					}
				}
			}
			fmt.Printf(" %20s", cell)
		}
		fmt.Println()
	}
}

// child runs one workload measurement in a fresh process and decodes the
// report line it prints.
func child(exe string, args ...string) (*report, error) {
	var out bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var rep *report
	for _, line := range strings.Split(out.String(), "\n") {
		if js, ok := strings.CutPrefix(line, "report "); ok {
			rep = new(report)
			if err := json.Unmarshal([]byte(js), rep); err != nil {
				return nil, fmt.Errorf("decoding report: %w", err)
			}
		}
	}
	switch {
	case runErr != nil:
		return rep, runErr
	case rep == nil:
		return nil, fmt.Errorf("no report in the output")
	}
	return rep, nil
}
