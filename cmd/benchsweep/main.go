// Command benchsweep measures the two performance claims this codebase
// makes — the parallel sweep engine's wall-clock speedup over a serial
// sweep, and the allocation behaviour of the DES hot paths — and writes
// the results as machine-readable JSON (BENCH_sweep.json at the repo
// root is the committed copy; regenerate it with `make bench`).
//
// The sweep measurement times the same bundle of independent simulation
// cells through internal/sweep at width 1 and width GOMAXPROCS. Cells
// are real simulator runs (a 2-compute/2-I/O-node M_RECORD scan), so the
// ratio is what `experiments -parallel` and `simcheck -parallel` see.
// The micro measurements re-run the package benchmarks for the kernel
// event loop and the mesh hot path via testing.Benchmark.
//
// Numbers depend on the machine; the JSON records num_cpu and
// gomaxprocs so a reader can judge the speedup against the cores that
// were available (1 core can not beat 1x).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/mesh"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// micro is one testing.Benchmark result.
type micro struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

type report struct {
	GoVersion   string           `json:"go_version"`
	GOOS        string           `json:"goos"`
	GOARCH      string           `json:"goarch"`
	NumCPU      int              `json:"num_cpu"`
	GOMAXPROCS  int              `json:"gomaxprocs"`
	SweepCells  int              `json:"sweep_cells"`
	Workers     int              `json:"sweep_workers"`
	SerialSec   float64          `json:"sweep_serial_sec"`
	ParallelSec float64          `json:"sweep_parallel_sec"`
	Speedup     float64          `json:"sweep_speedup"`
	Caveat      string           `json:"caveat,omitempty"`
	Micro       map[string]micro `json:"micro"`
}

// cellSpec is one independent simulation cell, varied by seed so the
// cells are distinct work rather than one memoizable run.
func cellSpec(i int) (machine.Config, workload.Spec) {
	cfg := machine.DefaultConfig()
	cfg.ComputeNodes = 2
	cfg.IONodes = 2
	req := int64(64 << 10)
	return cfg, workload.Spec{
		FileSize:    req * 2 * 24,
		RequestSize: req,
		Mode:        pfs.MRecord,
		Seed:        int64(i),
	}
}

// timeSweep runs the cell bundle through the pool at the given width,
// repeats times, and returns the fastest wall-clock pass (minimum, the
// standard way to strip scheduling noise from a wall-clock measurement).
func timeSweep(workers, cells, repeats int) (time.Duration, error) {
	best := time.Duration(0)
	for r := 0; r < repeats; r++ {
		start := time.Now()
		_, err := sweep.MapErr(workers, cells, func(i int) (float64, error) {
			cfg, spec := cellSpec(i)
			res, err := workload.Run(cfg, spec)
			if err != nil {
				return 0, err
			}
			return res.Bandwidth, nil
		})
		if err != nil {
			return 0, err
		}
		if d := time.Since(start); best == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// microBench adapts a testing.Benchmark result for the report.
func microBench(fn func(b *testing.B)) micro {
	r := testing.Benchmark(fn)
	return micro{
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// benchKernelSchedule mirrors internal/sim's BenchmarkSchedule: the
// At + dispatch cycle in the steady state, where every event struct
// comes off the kernel free list. allocs_per_op is the headline: 0 once
// the pool is warm.
func benchKernelSchedule(b *testing.B) {
	k := sim.NewKernel()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.At(k.Now(), fn)
		if k.Pending() >= 1024 {
			if err := k.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// benchKernelThroughput mirrors BenchmarkEventThroughput: a self-refiring
// event chain, the kernel's retire rate.
func benchKernelThroughput(b *testing.B) {
	k := sim.NewKernel()
	b.ReportAllocs()
	var fire func()
	n := 0
	fire = func() {
		n++
		if n < b.N {
			k.After(1, fire)
		}
	}
	b.ResetTimer()
	k.After(1, fire)
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// benchMeshSend mirrors internal/mesh's BenchmarkSend: one 64 KB message
// across the wormhole-routed mesh, link clocks in the flat array.
func benchMeshSend(b *testing.B) {
	k := sim.NewKernel()
	m := mesh.New(k, mesh.Paragon(8, 2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Send(i%8, 8+(i%8), 64<<10, nil)
		if k.Pending() > 4096 {
			b.StopTimer()
			if err := k.Run(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
	b.StopTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

func main() {
	var (
		out     = flag.String("o", "BENCH_sweep.json", "output JSON path (- for stdout)")
		cells   = flag.Int("cells", 64, "independent simulation cells per sweep pass")
		repeats = flag.Int("repeats", 3, "sweep passes per width; fastest wins")
		workers = flag.Int("parallel", runtime.GOMAXPROCS(0), "parallel sweep width")
		short   = flag.Bool("short", false, "CI smoke mode: fewer cells, one pass")
	)
	flag.Parse()
	if *short {
		*cells, *repeats = 16, 1
	}

	rep := report{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		SweepCells: *cells,
		Workers:    *workers,
		Micro:      map[string]micro{},
	}

	serial, err := timeSweep(1, *cells, *repeats)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsweep: serial sweep:", err)
		os.Exit(1)
	}
	parallel, err := timeSweep(*workers, *cells, *repeats)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsweep: parallel sweep:", err)
		os.Exit(1)
	}
	rep.SerialSec = serial.Seconds()
	rep.ParallelSec = parallel.Seconds()
	rep.Speedup = serial.Seconds() / parallel.Seconds()

	// A sweep speedup near 1x on a 1-core box (or with GOMAXPROCS=1) is
	// the expected ceiling, not a parallelism regression; stamp the JSON
	// so readers comparing committed files across machines don't misread
	// it. Compare speedups only against num_cpu/gomaxprocs in the same
	// file.
	if rep.NumCPU == 1 || rep.GOMAXPROCS == 1 || *workers == 1 {
		rep.Caveat = fmt.Sprintf(
			"sweep ran at width %d with num_cpu=%d gomaxprocs=%d; ~1x speedup is the hardware ceiling here, not a regression",
			*workers, rep.NumCPU, rep.GOMAXPROCS)
	}

	rep.Micro["kernel_schedule"] = microBench(benchKernelSchedule)
	rep.Micro["kernel_event_throughput"] = microBench(benchKernelThroughput)
	rep.Micro["mesh_send"] = microBench(benchMeshSend)

	fmt.Printf("sweep: %d cells, serial %v, parallel(%d) %v, speedup %.2fx on %d CPU(s)\n",
		*cells, serial.Round(time.Millisecond), *workers,
		parallel.Round(time.Millisecond), rep.Speedup, rep.NumCPU)
	if rep.Caveat != "" {
		fmt.Println("note:", rep.Caveat)
	}
	for name, m := range rep.Micro {
		fmt.Printf("%-24s %10.1f ns/op %6d B/op %4d allocs/op\n",
			name, m.NsPerOp, m.BytesPerOp, m.AllocsPerOp)
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsweep:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "-" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchsweep:", err)
		os.Exit(1)
	}
	fmt.Println("wrote", *out)
}
