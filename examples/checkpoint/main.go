// Checkpoint: an iterative SPMD solver that periodically checkpoints its
// state to the PFS — the write-heavy counterpart of the paper's read
// workloads. Each solver is a simulated process that opens the file in
// M_ASYNC and writes its partition through pfs.File.
//
// Each iteration computes for a while; every few iterations the solver
// dumps its partition of the state. Synchronous checkpoints stall the
// computation for the full write; write-behind staging (the write-side
// mirror of the paper's prefetching prototype) hides the I/O behind the
// next compute phase.
//
//	go run ./examples/checkpoint
package main

import (
	"fmt"
	"log"

	"repro/internal/machine"
	"repro/internal/pfs"
	"repro/internal/prefetch"
	"repro/internal/sim"
)

const (
	parties    = 8
	stateMB    = 4                     // per-node state
	iterations = 12                    // compute iterations
	ckptEvery  = 3                     // checkpoint cadence
	computeT   = 500 * sim.Millisecond // per iteration
	chunk      = int64(256 << 10)      // checkpoint write granularity
)

func main() {
	fmt.Printf("SPMD solver: %d nodes x %d MB state, checkpoint every %d of %d iterations\n",
		parties, stateMB, ckptEvery, iterations)
	for _, behind := range []bool{false, true} {
		label := "synchronous checkpoints"
		if behind {
			label = "write-behind checkpoints"
		}
		fmt.Printf("  %-25s %v\n", label+":", run(behind))
	}
	fmt.Println("\nWrite-behind hides each checkpoint behind the following compute phase;")
	fmt.Println("only the final flush (and any buffer-pool stalls) remain on the critical path.")
}

func run(behind bool) sim.Time {
	m := machine.Build(machine.DefaultConfig())
	defer m.Close()
	perNode := int64(stateMB) << 20
	if err := m.FS.Create("ckpt", int64(parties)*perNode); err != nil {
		log.Fatal(err)
	}
	var wb *prefetch.WriteBehind
	if behind {
		wb = prefetch.NewWriteBehind(m.K, prefetch.DefaultWriteBehindConfig())
	}
	for i := 0; i < parties; i++ {
		i := i
		m.K.Go(fmt.Sprintf("solver%d", i), func(p *sim.Proc) {
			f, err := m.FS.Open("ckpt", m.Compute[i], pfs.MAsync, nil)
			if err != nil {
				log.Fatal(err)
			}
			base := int64(i) * perNode
			for iter := 1; iter <= iterations; iter++ {
				p.Sleep(computeT) // the science happens here
				if iter%ckptEvery != 0 {
					continue
				}
				for off := base; off < base+perNode; off += chunk {
					if behind {
						if err := wb.Write(p, f, off, chunk); err != nil {
							log.Fatal(err)
						}
					} else {
						if err := f.Write(p, off, chunk); err != nil {
							log.Fatal(err)
						}
					}
				}
			}
			if behind {
				if err := wb.Flush(p, f); err != nil {
					log.Fatal(err)
				}
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		})
	}
	if err := m.K.Run(); err != nil {
		log.Fatal(err)
	}
	return m.K.Now()
}
