// I/O modes: the Figure 2 scenario. Eight compute nodes read one shared
// file under each PFS sharing mode; the coordination each mode buys has a
// price, and this prints it.
//
//	go run ./examples/iomodes
package main

import (
	"fmt"
	"log"

	"repro/internal/machine"
	"repro/internal/pfs"
	"repro/internal/workload"
)

func main() {
	cfg := machine.DefaultConfig()

	modes := []struct {
		name string
		mode pfs.Mode
		note string
	}{
		{"M_UNIX", pfs.MUnix, "shared pointer, atomic: fully serialized"},
		{"M_LOG", pfs.MLog, "shared pointer, unordered: serialized claims"},
		{"M_SYNC", pfs.MSync, "node order, variable sizes: per-op barrier"},
		{"M_RECORD", pfs.MRecord, "fixed records in node order: no per-op sync"},
		{"M_ASYNC", pfs.MAsync, "individual pointers: no coordination at all"},
	}

	fmt.Println("PFS I/O mode comparison, 8 compute + 8 I/O nodes, 64 KB requests")
	for _, m := range modes {
		res, err := workload.Run(cfg, workload.Spec{
			FileSize:    32 << 20,
			RequestSize: 64 << 10,
			Mode:        m.mode,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-9s %7.2f MB/s   %s\n", m.name, res.Bandwidth, m.note)
	}

	sep, err := workload.Run(cfg, workload.Spec{
		FileSize:      32 << 20,
		RequestSize:   64 << 10,
		Mode:          pfs.MAsync,
		SeparateFiles: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %-9s %7.2f MB/s   %s\n", "separate", sep.Bandwidth,
		"one private file per node (no sharing)")

	glob, err := workload.Run(cfg, workload.Spec{
		FileSize:    32 << 20,
		RequestSize: 64 << 10,
		Mode:        pfs.MGlobal,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %-9s %7.2f MB/s   %s\n", "M_GLOBAL", glob.Bandwidth,
		"all nodes get the same data: read once, broadcast")
}
