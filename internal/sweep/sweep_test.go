package sweep

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/machine"
	"repro/internal/pfs"
	"repro/internal/workload"
)

// mapAll runs infallible jobs through MapErr.
func mapAll[T any](workers, n int, fn func(int) T) []T {
	out, _ := MapErr(workers, n, func(i int) (T, error) { return fn(i), nil })
	return out
}

func TestMapOrdersResults(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 7, 16, 100} {
		got := mapAll(workers, 50, func(i int) int { return i * i })
		if len(got) != 50 {
			t.Fatalf("workers=%d: got %d results, want 50", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	if got := mapAll(4, 0, func(i int) int { return i }); got != nil {
		t.Fatalf("n=0 returned %v, want nil", got)
	}
}

func TestMapErrReturnsLowestIndexError(t *testing.T) {
	// Jobs 3 and 7 fail; the reported error must be job 3's at every
	// worker count (serial loops meet 3 first; the pool must agree).
	for _, workers := range []int{1, 2, 8} {
		_, err := MapErr(workers, 10, func(i int) (int, error) {
			if i == 3 || i == 7 {
				return 0, fmt.Errorf("cell %d failed", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "cell 3 failed" {
			t.Fatalf("workers=%d: err = %v, want cell 3 failed", workers, err)
		}
	}
}

func TestMapErrNoError(t *testing.T) {
	got, err := MapErr(4, 10, func(i int) (int, error) { return i + 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("result[%d] = %d, want %d", i, v, i+1)
		}
	}
}

func TestMapPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Fatalf("workers=%d: panic did not propagate", workers)
				}
			}()
			mapAll(workers, 8, func(i int) int {
				if i == 5 {
					panic(errors.New("boom"))
				}
				return i
			})
		}()
	}
}

func TestStreamEmitsInOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 5, 32} {
		var seen []int
		Stream(workers, 40, func(i int) int { return i }, func(i, v int) bool {
			if i != v {
				t.Fatalf("workers=%d: emit(%d, %d) disagrees", workers, i, v)
			}
			seen = append(seen, i)
			return true
		})
		if len(seen) != 40 {
			t.Fatalf("workers=%d: emitted %d jobs, want 40", workers, len(seen))
		}
		for i, v := range seen {
			if v != i {
				t.Fatalf("workers=%d: emission order %v not ascending", workers, seen)
			}
		}
	}
}

func TestStreamStopsOnFalse(t *testing.T) {
	for _, workers := range []int{1, 4} {
		emitted := 0
		Stream(workers, 1000, func(i int) int { return i }, func(i, v int) bool {
			emitted++
			return i < 4 // stop after emitting job 4
		})
		if emitted != 5 {
			t.Fatalf("workers=%d: emitted %d jobs after stop, want 5", workers, emitted)
		}
	}
}

func TestStreamStopStartsNoNewJobs(t *testing.T) {
	// After emit returns false, the dispatch counter must freeze: with the
	// stop at job 0 and a single worker, exactly one job runs.
	var ran atomic.Int64
	Stream(1, 1000, func(i int) int { ran.Add(1); return i }, func(i, v int) bool {
		return false
	})
	if got := ran.Load(); got != 1 {
		t.Fatalf("ran %d jobs after immediate stop, want 1", got)
	}
}

// sweepSpec is a small but real simulation cell: the determinism tests
// and benchmarks below run the actual simulator, not a stand-in.
func sweepSpec(i int) (machine.Config, workload.Spec) {
	cfg := machine.DefaultConfig()
	cfg.ComputeNodes = 2
	cfg.IONodes = 2
	req := int64(16 << 10)
	return cfg, workload.Spec{
		FileSize:    req * 2 * 4,
		RequestSize: req,
		Mode:        pfs.MRecord,
		Seed:        int64(i),
	}
}

func TestParallelSimulationsMatchSerial(t *testing.T) {
	// The engine's whole contract: a sweep of real simulations yields
	// bit-identical per-cell fingerprints at any worker count.
	const n = 8
	run := func(workers int) []uint64 {
		return mapAll(workers, n, func(i int) uint64 {
			cfg, spec := sweepSpec(i)
			res, err := workload.Run(cfg, spec)
			if err != nil {
				t.Errorf("cell %d: %v", i, err)
				return 0
			}
			return res.Fingerprint()
		})
	}
	serial := run(1)
	for _, workers := range []int{2, 4, runtime.NumCPU()} {
		got := run(workers)
		for i := range serial {
			if got[i] != serial[i] {
				t.Fatalf("workers=%d: cell %d fingerprint %016x != serial %016x",
					workers, i, got[i], serial[i])
			}
		}
	}
}

// BenchmarkSweepSerial and BenchmarkSweepParallel time the same bundle of
// independent simulations through the pool at width 1 and width
// GOMAXPROCS; their ratio is the sweep engine's wall-clock speedup on
// this machine.
func benchSweep(b *testing.B, workers int) {
	const cells = 8
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mapAll(workers, cells, func(c int) float64 {
			cfg, spec := sweepSpec(c)
			res, err := workload.Run(cfg, spec)
			if err != nil {
				b.Error(err)
				return 0
			}
			return res.Bandwidth
		})
	}
}

func BenchmarkSweepSerial(b *testing.B)   { benchSweep(b, 1) }
func BenchmarkSweepParallel(b *testing.B) { benchSweep(b, runtime.NumCPU()) }

// Regression: the pool must never be wider than the job count. A sweep of
// 3 cells at workers=64 used to spawn 64 goroutines, 61 of which spun the
// shared counter for nothing; clampWorkers caps the pool at n.
func TestClampWorkers(t *testing.T) {
	cases := []struct {
		workers, n, want int
	}{
		{0, 10, runtime.NumCPU()},  // "use every CPU"
		{-3, 10, runtime.NumCPU()}, // negative means the same
		{4, 10, 4},
		{10, 10, 10},
		{64, 3, 3}, // the regression: capped at the job count
		{64, 1, 1},
		{0, 1, 1},
	}
	for _, c := range cases {
		if c.want > c.n {
			c.want = c.n // NumCPU may exceed small n
		}
		if got := clampWorkers(c.workers, c.n); got != c.want {
			t.Errorf("clampWorkers(%d, %d) = %d, want %d", c.workers, c.n, got, c.want)
		}
	}
}

// Regression: with workers far above the job count, observed concurrency
// (a proxy for goroutines actually running jobs) must not exceed the job
// count, and every job must still run exactly once.
func TestMapWorkerCapConcurrency(t *testing.T) {
	const n = 3
	var inFlight, peak, ran atomic.Int64
	mapAll(64, n, func(i int) int {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		ran.Add(1)
		inFlight.Add(-1)
		return i
	})
	if ran.Load() != n {
		t.Fatalf("ran %d jobs, want %d", ran.Load(), n)
	}
	if peak.Load() > n {
		t.Fatalf("observed concurrency %d exceeds job count %d", peak.Load(), n)
	}
}

// MapErr with one job must degenerate to a plain call on the caller's
// goroutine — no pool at all.
func TestMapErrSingleJobSerial(t *testing.T) {
	baseline := runtime.NumGoroutine()
	out, err := MapErr(32, 1, func(i int) (int, error) {
		if g := runtime.NumGoroutine(); g > baseline {
			return 0, fmt.Errorf("single job spawned goroutines: %d > %d", g, baseline)
		}
		return 41 + i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0] != 41 {
		t.Fatalf("out = %v, want [41]", out)
	}
}
