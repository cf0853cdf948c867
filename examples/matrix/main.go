// Matrix: the collective-I/O pattern from the paper's introduction. A
// dense matrix of 64-bit values is stored row-major in one PFS file;
// each of the 8 compute nodes owns a block of columns, so reading the
// matrix means every node takes its slice of every row — which is
// exactly an M_RECORD scan with one record per node per row.
//
// After each row arrives the nodes "compute" on it (a delay), which is
// the window the prefetcher uses to fetch each node's slice of the next
// row.
//
//	go run ./examples/matrix
package main

import (
	"fmt"
	"io"
	"log"

	"repro/internal/machine"
	"repro/internal/pfs"
	"repro/internal/prefetch"
	"repro/internal/sim"
)

const (
	matrixDim  = 2048 // 2048 x 2048 matrix
	elemSize   = 8    // float64 values
	rowBytes   = matrixDim * elemSize
	computePer = 20 * sim.Millisecond // per-row computation per node
)

func main() {
	fmt.Printf("Distributing a %dx%d matrix (%d MB) across 8 compute nodes, column blocks\n",
		matrixDim, matrixDim, matrixDim*rowBytes>>20)

	for _, withPrefetch := range []bool{false, true} {
		elapsed, hitRate := run(withPrefetch)
		label := "without prefetching"
		if withPrefetch {
			label = "with prefetching   "
		}
		fmt.Printf("  %s: %v", label, elapsed)
		if withPrefetch {
			fmt.Printf("   (hit rate %.1f%%)", 100*hitRate)
		}
		fmt.Println()
	}
}

// run loads the matrix once and returns the elapsed simulated time.
func run(withPrefetch bool) (sim.Time, float64) {
	m := machine.Build(machine.DefaultConfig())
	defer m.Close()
	const parties = 8
	if err := m.FS.Create("matrix", matrixDim*rowBytes); err != nil {
		log.Fatal(err)
	}

	var pf *prefetch.Prefetcher
	if withPrefetch {
		pf = prefetch.New(m.K, prefetch.DefaultConfig())
	}

	group := pfs.NewOpenGroup(m.K, parties)
	slice := int64(rowBytes / parties) // each node's share of one row
	for i := 0; i < parties; i++ {
		node := m.Compute[i]
		m.K.Go(fmt.Sprintf("solver%d", i), func(p *sim.Proc) {
			f, err := m.FS.Open("matrix", node, pfs.MRecord, group)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			if pf != nil {
				pf.Attach(f)
			}
			for row := 0; ; row++ {
				if _, err := f.Read(p, slice); err == io.EOF {
					return
				} else if err != nil {
					log.Fatal(err)
				}
				p.Sleep(computePer) // work on the row slice
			}
		})
	}
	if err := m.K.Run(); err != nil {
		log.Fatal(err)
	}
	hr := 0.0
	if pf != nil {
		hr = pf.HitRate()
	}
	return m.K.Now(), hr
}
