package workload

import (
	"runtime"
	"testing"

	"repro/internal/pfs"
	"repro/internal/prefetch"
	"repro/internal/sim"
)

// checkNoGoroutineLeft runs run and requires that it started processes,
// whose coroutines the kernel pools, and that none of those coroutines
// outlives it: Run and RunQoS close their machine on return.
func checkNoGoroutineLeft(t *testing.T, run func() (*Result, error)) {
	t.Helper()
	before := runtime.NumGoroutine()
	res, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine.Started == 0 {
		t.Fatal("the run started no process, so it proves nothing")
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("%d goroutines after the run, %d before", g, before)
	}
}

func TestRunLeavesNoGoroutine(t *testing.T) {
	checkNoGoroutineLeft(t, func() (*Result, error) {
		pcfg := prefetch.DefaultConfig()
		return Run(cfg4x4(), Spec{
			File:         "quickstart",
			FileSize:     1 << 20,
			RequestSize:  64 << 10,
			Mode:         pfs.MRecord,
			ComputeDelay: 50 * sim.Millisecond,
			Prefetch:     &pcfg,
		})
	})
}

// qosPrefetchSpec is qosTestSpec with the prefetch interference arm:
// every fourth tenant's file has the prefetcher.
func qosPrefetchSpec(seed int64) QoSSpec {
	spec := qosTestSpec(seed)
	pcfg := prefetch.DefaultConfig()
	spec.Prefetch = &pcfg
	spec.PrefetchEvery = 4
	return spec
}

// TestRunQoSLeavesNoGoroutine: the open-loop run, prefetch arm
// included, leaves no goroutine behind.
func TestRunQoSLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	if _, err := RunQoS(qosTestConfig(), qosPrefetchSpec(42)); err != nil {
		t.Fatal(err)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("%d goroutines after the run, %d before", g, before)
	}
}

// TestRunQoSStartsNoProcess: the open-loop driver's arrivals and reads
// are callbacks, on prefetch-attached files too, where ReadAtCall goes
// through the prefetcher's ServeReadCall.
func TestRunQoSStartsNoProcess(t *testing.T) {
	for _, spec := range []QoSSpec{qosTestSpec(42), qosPrefetchSpec(42)} {
		res, err := RunQoS(qosTestConfig(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.QoS.Arrivals == 0 {
			t.Fatal("the run made no arrival")
		}
		if spec.PrefetchEvery > 0 {
			if pf := res.Prefetch; pf == nil || pf.Misses == 0 || pf.Issued == 0 {
				t.Fatal("no read went through the prefetcher")
			}
		}
		if got := res.Engine.Started; got != 0 {
			t.Fatalf("PrefetchEvery %d: the run started %d processes, want 0", spec.PrefetchEvery, got)
		}
	}
}
