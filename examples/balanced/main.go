// Balanced workloads: sweep the compute-to-I/O ratio the way Section 4.2
// of the paper does. For each request size, vary the computation time
// between reads and watch where prefetching starts to pay: once the
// compute delay covers the read access time, the next record is already
// resident when the application asks for it.
//
//	go run ./examples/balanced
package main

import (
	"fmt"
	"log"

	"repro/internal/machine"
	"repro/internal/pfs"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	cfg := machine.DefaultConfig()
	pcfg := prefetch.DefaultConfig()
	delays := []float64{0, 0.025, 0.05, 0.1, 0.2}
	requests := []int64{64 << 10, 256 << 10, 1024 << 10}

	fmt.Println("Balanced workloads: bandwidth (MB/s) vs compute delay")
	fmt.Println("(speedup > 1 means prefetching hid I/O behind computation)")
	for _, req := range requests {
		fmt.Printf("\n%d KB requests:\n", req>>10)
		fmt.Printf("  %-10s %-14s %-14s %s\n", "delay (s)", "no prefetch", "prefetch", "speedup")
		for _, d := range delays {
			spec := workload.Spec{
				FileSize:     64 << 20,
				RequestSize:  req,
				Mode:         pfs.MRecord,
				ComputeDelay: sim.Seconds(d),
			}
			plain, err := workload.Run(cfg, spec)
			if err != nil {
				log.Fatal(err)
			}
			spec.Prefetch = &pcfg
			fetched, err := workload.Run(cfg, spec)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %-10.3f %-14.2f %-14.2f %.2fx\n",
				d, plain.Bandwidth, fetched.Bandwidth, fetched.Bandwidth/plain.Bandwidth)
		}
	}
	fmt.Println("\nNote the crossover: 64 KB reads overlap fully at 0.05 s of compute;")
	fmt.Println("1 MB reads take ~0.33 s, so no delay in this range can hide them.")
}
