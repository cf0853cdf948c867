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
// every fourth tenant's file has the prefetcher, so its reads run on
// processes.
func qosPrefetchSpec(seed int64) QoSSpec {
	spec := qosTestSpec(seed)
	pcfg := prefetch.DefaultConfig()
	spec.Prefetch = &pcfg
	spec.PrefetchEvery = 4
	return spec
}

// TestRunQoSLeavesNoGoroutine runs the prefetch arm: only
// prefetch-attached tenants' reads start processes.
func TestRunQoSLeavesNoGoroutine(t *testing.T) {
	checkNoGoroutineLeft(t, func() (*Result, error) {
		return RunQoS(qosTestConfig(), qosPrefetchSpec(42))
	})
}

// TestRunQoSStartsNoProcess: the open-loop driver's arrivals and its
// reads on files without a prefetcher are callbacks. Only a read on a
// prefetch-attached file starts a process, one per arrival, since the
// prefetcher's ServeRead blocks one.
func TestRunQoSStartsNoProcess(t *testing.T) {
	res, err := RunQoS(qosTestConfig(), qosTestSpec(42))
	if err != nil {
		t.Fatal(err)
	}
	if res.QoS.Arrivals == 0 {
		t.Fatal("the run made no arrival")
	}
	if got := res.Engine.Started; got != 0 {
		t.Fatalf("a run with no prefetcher started %d processes, want 0", got)
	}

	spec := qosPrefetchSpec(42)
	res, err = RunQoS(qosTestConfig(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var want uint64
	for ti := range res.QoS.Tenants {
		if ti%spec.PrefetchEvery == 0 {
			want += uint64(res.QoS.Tenants[ti].Requests)
		}
	}
	if want == 0 || want == uint64(res.QoS.Arrivals) {
		t.Fatalf("%d of %d arrivals on prefetch-attached tenants; the spec does not split them", want, res.QoS.Arrivals)
	}
	if got := res.Engine.Started; got != want {
		t.Fatalf("the prefetch arm started %d processes for %d prefetch-attached arrivals", got, want)
	}
}
