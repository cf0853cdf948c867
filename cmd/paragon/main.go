// Command paragon runs a single workload on the simulated machine and
// dumps a detailed report: bandwidth, per-node completion times, read
// latency distribution, I/O-node load balance, disk utilization, and the
// prefetcher's internal counters.
//
// Example:
//
//	paragon -mode M_RECORD -request 64 -file 128 -delay 0.05 -prefetch
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/machine"
	"repro/internal/pfs"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	var (
		computeN  = flag.Int("compute", 8, "compute nodes")
		ioN       = flag.Int("io", 8, "I/O nodes")
		mode      = flag.String("mode", "M_RECORD", "I/O mode")
		requestKB = flag.Int64("request", 64, "request size in KB")
		fileMB    = flag.Int64("file", 128, "file size in MB")
		delay     = flag.Float64("delay", 0, "compute delay between reads, seconds")
		pf        = flag.Bool("prefetch", false, "enable the prefetching prototype")
		depth     = flag.Int("depth", 1, "prefetch depth")
		suKB      = flag.Int64("sunit", 64, "stripe unit in KB")
		sgroup    = flag.Int("sgroup", 0, "stripe group size (0 = all I/O nodes)")
		traceN    = flag.Int("trace", 0, "print the first N file system events")
		confPath  = flag.String("config", "", "load machine config from JSON (overrides -compute/-io)")
		saveConf  = flag.String("save-config", "", "write the effective machine config to JSON and exit")
	)
	flag.Parse()

	m, ok := map[string]pfs.Mode{
		"M_UNIX": pfs.MUnix, "M_LOG": pfs.MLog, "M_SYNC": pfs.MSync,
		"M_RECORD": pfs.MRecord, "M_GLOBAL": pfs.MGlobal, "M_ASYNC": pfs.MAsync,
	}[strings.ToUpper(*mode)]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
		os.Exit(2)
	}

	cfg := machine.DefaultConfig()
	cfg.ComputeNodes = *computeN
	cfg.IONodes = *ioN
	if *confPath != "" {
		loaded, err := machine.LoadConfig(*confPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cfg = loaded
	}
	if *saveConf != "" {
		if err := machine.SaveConfig(*saveConf, cfg); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *saveConf)
		return
	}

	spec := workload.Spec{
		FileSize:     *fileMB << 20,
		RequestSize:  *requestKB << 10,
		Mode:         m,
		ComputeDelay: sim.Seconds(*delay),
		StripeUnit:   *suKB << 10,
		StripeGroup:  *sgroup,
	}
	if *pf {
		pcfg := prefetch.DefaultConfig()
		pcfg.Depth = *depth
		spec.Prefetch = &pcfg
	}
	if *traceN > 0 {
		spec.Trace = trace.NewLog(*traceN)
	}

	res, err := workload.Run(cfg, spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("machine: %d compute + %d I/O nodes, %d-disk arrays, %s blocks\n",
		cfg.ComputeNodes, cfg.IONodes, cfg.ArrayMembers, kb(cfg.UFS.BlockSize))
	fmt.Printf("workload: %s, %s requests, %s file, delay %.3fs, prefetch %v (depth %d)\n",
		m, kb(spec.RequestSize), mb(spec.FileSize), *delay, *pf, *depth)
	fmt.Printf("stripe: unit %s, group %d\n\n", kb(*suKB<<10), len(stripeList(cfg, spec)))

	fmt.Printf("elapsed          %v\n", res.Elapsed)
	fmt.Printf("data read        %s\n", mb(res.TotalBytes))
	fmt.Printf("read bandwidth   %.2f MB/s (aggregate, the paper's metric)\n", res.Bandwidth)
	fmt.Printf("read latency     min %.4fs  p50 %.4fs  mean %.4fs  p90 %.4fs  max %.4fs\n",
		res.ReadTime.Min(), res.ReadTime.Quantile(0.5), res.ReadTime.Mean(),
		res.ReadTime.Quantile(0.9), res.ReadTime.Max())
	fmt.Printf("disk utilization %.1f%%\n\n", 100*res.Machine.DiskUtilization())

	fmt.Println("per compute node completion:")
	for i, t := range res.NodeTimes {
		fmt.Printf("  node %-2d %v\n", i, t)
	}
	fmt.Println("\nper I/O node bytes served:")
	for i, b := range res.Machine.IONodeBytes() {
		fmt.Printf("  ionode %-2d %s\n", i, mb(b))
	}

	if spec.Trace != nil {
		fmt.Printf("\ntimeline (first %d events):\n", *traceN)
		if err := spec.Trace.WriteText(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if res.Prefetch != nil {
		p := res.Prefetch
		fmt.Println("\nprefetcher:")
		fmt.Printf("  issued        %d\n", p.Issued)
		fmt.Printf("  hits          %d (completed buffers)\n", p.Hits)
		fmt.Printf("  waited hits   %d (caught in flight; mean wait %.4fs)\n", p.HitsInWait, p.WaitTime.Mean())
		fmt.Printf("  misses        %d\n", p.Misses)
		fmt.Printf("  hit rate      %.1f%%\n", 100*p.HitRate())
		fmt.Printf("  wasted        %d buffers freed unused at close\n", p.Wasted)
		fmt.Printf("  skipped       %d issues suppressed by the buffer cap\n", p.Skipped)
	}
}

func kb(b int64) string { return fmt.Sprintf("%dKB", b>>10) }
func mb(b int64) string { return fmt.Sprintf("%dMB", b>>20) }

func stripeList(cfg machine.Config, spec workload.Spec) []int {
	n := spec.StripeGroup
	if n == 0 {
		n = cfg.IONodes
	}
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
