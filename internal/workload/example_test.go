package workload_test

import (
	"fmt"
	"testing"

	"repro/internal/machine"
	"repro/internal/pfs"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The simulation is deterministic, so examples assert exact output.

// ExampleRun reproduces the repository's headline result in a few lines:
// with computation between reads, the prototype lifts observed bandwidth.
func ExampleRun() {
	cfg := machine.DefaultConfig()
	cfg.ComputeNodes = 4
	cfg.IONodes = 4

	spec := workload.Spec{
		FileSize:     8 << 20,
		RequestSize:  64 << 10,
		Mode:         pfs.MRecord,
		ComputeDelay: sim.Seconds(0.05),
	}
	plain, err := workload.Run(cfg, spec)
	if err != nil {
		panic(err)
	}
	pcfg := prefetch.DefaultConfig()
	spec.Prefetch = &pcfg
	fetched, err := workload.Run(cfg, spec)
	if err != nil {
		panic(err)
	}
	fmt.Printf("plain:    %.2f MB/s\n", plain.Bandwidth)
	fmt.Printf("prefetch: %.2f MB/s\n", fetched.Bandwidth)
	fmt.Printf("hit rate: %.0f%%\n", 100*fetched.Prefetch.HitRate())
	// Output:
	// plain:    3.03 MB/s
	// prefetch: 4.64 MB/s
	// hit rate: 97%
}

// TestHeadlineResult is the reproduction's one-line summary: with
// compute to overlap, prefetching lifts observed bandwidth; without it,
// it does not.
func TestHeadlineResult(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.ComputeNodes = 4
	cfg.IONodes = 4
	pcfg := prefetch.DefaultConfig()
	run := func(delay sim.Time, fetch bool) float64 {
		t.Helper()
		spec := workload.Spec{FileSize: 8 << 20, RequestSize: 64 << 10, Mode: pfs.MRecord, ComputeDelay: delay}
		if fetch {
			spec.Prefetch = &pcfg
		}
		res, err := workload.Run(cfg, spec)
		if err != nil {
			t.Fatal(err)
		}
		return res.Bandwidth
	}

	if plain, fetched := run(sim.Seconds(0.05), false), run(sim.Seconds(0.05), true); fetched <= plain*1.1 {
		t.Fatalf("prefetch %.2f MB/s vs plain %.2f MB/s: want >10%% gain with overlap", fetched, plain)
	}
	if plain, fetched := run(0, false), run(0, true); fetched > plain*1.05 {
		t.Fatalf("prefetch %.2f MB/s vs plain %.2f MB/s at zero delay: should not win", fetched, plain)
	}
}
