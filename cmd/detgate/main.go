// Command detgate is the CI determinism and allocation gate.
//
// Determinism: it runs the four golden scenarios from
// internal/scenarios (healthy quickstart; a chaos variant with transient
// faults, shedding, and the retry layer armed; a crash variant with
// whole-node outages, a RAID member loss, and the online rebuild under
// restart-aware failover; and the prefetcher tournament) twice each,
// requires bit-identical result fingerprints and trace digests between
// the runs, and then diffs the digests against a committed golden file —
// so a change that silently moves the simulation's event history fails
// CI until the golden file is deliberately regenerated:
//
//	go run ./cmd/detgate -update
//
// Allocation: with -allocs it shells out to `go test -bench` and asserts
// that the zero-allocation hot paths — the DES kernel's event dispatch
// and process switch, the mesh micro, the event queue's hold-model bench
// at depths 1k and 100k, the disk's callback server, a healthy array's
// lockstep read, plus the pfs client steady-state read, the pfs
// asynchronous read through the ART, the pfs callback positioned read
// (ReadAtCall), and the ionode service paths —
// still report 0 allocs/op.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"

	"repro/internal/scenarios"
	"repro/internal/trace"
	"repro/internal/workload"
)

// digests runs the scenario once and returns (fingerprint, traceDigest).
func digests(sc scenarios.Scenario) (uint64, uint64, error) {
	tl := trace.NewLog(1 << 18)
	spec := scenarios.QuickstartSpec(tl)
	if sc.Tweak != nil {
		sc.Tweak(&spec)
	}
	res, err := workload.Run(sc.Config(), spec)
	if err != nil {
		return 0, 0, fmt.Errorf("%s run failed: %w", sc.Name, err)
	}
	if res.Fault.GiveUps != 0 {
		return 0, 0, fmt.Errorf("%s run exhausted %d retry budget(s) under transient faults", sc.Name, res.Fault.GiveUps)
	}
	return res.Fingerprint(), tl.Digest(), nil
}

func main() {
	var (
		golden = flag.String("golden", "cmd/detgate/golden.digest", "committed digest file to diff against")
		update = flag.Bool("update", false, "rewrite the golden file from this build's digests")
		allocs = flag.Bool("allocs", false, "also gate the zero-allocation hot-path benchmarks")
	)
	flag.Parse()

	var lines []string
	for _, sc := range scenarios.Golden() {
		fp1, td1, err := digests(sc)
		if err != nil {
			fatal(err.Error())
		}
		fp2, td2, err := digests(sc)
		if err != nil {
			fatal(err.Error())
		}
		if fp1 != fp2 || td1 != td2 {
			fatal(fmt.Sprintf("%s: two identical runs diverged: fingerprint %016x vs %016x, trace %016x vs %016x",
				sc.Name, fp1, fp2, td1, td2))
		}
		lines = append(lines,
			fmt.Sprintf("%s fingerprint %016x", sc.Name, fp1),
			fmt.Sprintf("%s trace %016x", sc.Name, td1))
	}
	got := strings.Join(lines, "\n") + "\n"

	if *update {
		if err := os.WriteFile(*golden, []byte(got), 0o644); err != nil {
			fatal(err.Error())
		}
		fmt.Printf("detgate: wrote %s\n%s", *golden, got)
	} else {
		want, err := os.ReadFile(*golden)
		if err != nil {
			fatal(fmt.Sprintf("%v (regenerate with -update)", err))
		}
		if string(want) != got {
			fatal(fmt.Sprintf("digests diverged from %s:\n--- committed\n%s--- this build\n%s"+
				"the simulation's event history changed; if intended, regenerate with: go run ./cmd/detgate -update",
				*golden, want, got))
		}
		fmt.Printf("detgate: digests match %s\n", *golden)
	}

	if *allocs {
		gateAllocs()
	}
}

// allocGatePackages lists each gated package with its benchmark filter.
// Splitting per package keeps the -bench regexps anchored so unrelated
// benchmarks in the same package can't sneak into the gate.
var allocGatePackages = []struct {
	pkg   string
	bench string
}{
	{"./internal/sim/", "BenchmarkEventThroughput$|BenchmarkProcSwitch$|BenchmarkQueuePushPop/depth=(1k|100k)$"},
	{"./internal/mesh/", "BenchmarkSend$"},
	{"./internal/disk/", "BenchmarkDiskServe$|BenchmarkArrayRead$"},
	{"./internal/pfs/", "BenchmarkClientSteadyRead$|BenchmarkAsyncRead$|BenchmarkReadAtCall$"},
	{"./internal/ionode/", "BenchmarkServicePath$"},
}

// zeroAllocBenches are the hot paths pinned at 0 allocs/op. Names are
// matched as the benchmark-name prefix of `go test -bench` output lines
// (which append -N for GOMAXPROCS).
var zeroAllocBenches = map[string]bool{
	"BenchmarkEventThroughput":         true, // sim.Kernel event dispatch
	"BenchmarkProcSwitch":              true, // sim.Proc block/wake coroutine switch
	"BenchmarkQueuePushPop/depth=1k":   true, // event queue hold model, shallow
	"BenchmarkQueuePushPop/depth=100k": true, // event queue hold model, deep
	"BenchmarkSend":                    true, // mesh message delivery
	"BenchmarkDiskServe":               true, // disk callback server, pooled OnDone requests
	"BenchmarkArrayRead":               true, // healthy array's lockstep ReadCall path
	"BenchmarkClientSteadyRead":        true, // pfs client steady-state read path
	"BenchmarkAsyncRead":               true, // pfs asynchronous read through the ART
	"BenchmarkReadAtCall":              true, // pfs callback positioned read (open-loop QoS)
	"BenchmarkServicePath":             true, // ionode request service path
}

func gateAllocs() {
	// One `go test` per package: -bench regexps are slash-split into
	// per-level patterns (sub-benchmark paths like
	// QueuePushPop/depth=1k), so filters from different packages
	// cannot be joined with | without scrambling the levels.
	seen := 0
	for _, g := range allocGatePackages {
		cmd := exec.Command("go", "test", "-run=^$", "-benchtime=100x", "-benchmem",
			"-bench="+g.bench, g.pkg)
		out, err := cmd.CombinedOutput()
		if err != nil {
			fatal(fmt.Sprintf("alloc gate: benchmarks failed in %s: %v\n%s", g.pkg, err, out))
		}
		for _, line := range strings.Split(string(out), "\n") {
			f := strings.Fields(line)
			if len(f) < 3 || !strings.HasPrefix(f[0], "Benchmark") {
				continue
			}
			name := strings.SplitN(f[0], "-", 2)[0]
			if !zeroAllocBenches[name] {
				continue
			}
			seen++
			if f[len(f)-1] != "allocs/op" || f[len(f)-2] != "0" {
				fatal(fmt.Sprintf("alloc gate: %s is no longer allocation-free:\n%s", name, line))
			}
		}
	}
	if seen != len(zeroAllocBenches) {
		fatal(fmt.Sprintf("alloc gate: matched %d of %d gated benchmarks across packages",
			seen, len(zeroAllocBenches)))
	}
	fmt.Println("detgate: hot paths still 0 allocs/op")
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "detgate: "+msg)
	os.Exit(1)
}
