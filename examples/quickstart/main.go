// Quickstart: build the paper's 8+8-node Paragon, read a 64 MB shared
// file in M_RECORD mode with and without the prefetching prototype, and
// compare the bandwidth the application observes.
//
//	go run ./examples/quickstart
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

	spec := workload.Spec{
		FileSize:     64 << 20, // 64 MB shared file
		RequestSize:  64 << 10, // 64 KB per read per node
		Mode:         pfs.MRecord,
		ComputeDelay: sim.Seconds(0.05), // a balanced application: compute between reads
	}

	plain, err := workload.Run(cfg, spec)
	if err != nil {
		log.Fatal(err)
	}

	pcfg := prefetch.DefaultConfig()
	spec.Prefetch = &pcfg
	fetched, err := workload.Run(cfg, spec)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Paragon PFS prefetching, quickstart")
	fmt.Printf("  without prefetching: %6.2f MB/s  (elapsed %v)\n", plain.Bandwidth, plain.Elapsed)
	fmt.Printf("  with prefetching:    %6.2f MB/s  (elapsed %v)\n", fetched.Bandwidth, fetched.Elapsed)
	fmt.Printf("  speedup:             %6.2fx\n", fetched.Bandwidth/plain.Bandwidth)
	fmt.Printf("  prefetch hit rate:   %6.1f%%  (%d hits, %d waited, %d misses)\n",
		100*fetched.Prefetch.HitRate(), fetched.Prefetch.Hits,
		fetched.Prefetch.HitsInWait, fetched.Prefetch.Misses)
}
