package workload

import (
	"runtime"
	"testing"

	"repro/internal/pfs"
	"repro/internal/prefetch"
	"repro/internal/sim"
)

// checkNoGoroutineLeft runs run and requires that it started daemons
// (disk servers, asynchronous request threads) and that none of them
// outlives it: Run and RunQoS close their machine on return.
func checkNoGoroutineLeft(t *testing.T, run func() (*Result, error)) {
	t.Helper()
	before := runtime.NumGoroutine()
	res, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Machine.K.Daemons() == 0 {
		t.Fatal("the run started no daemon, so it proves nothing")
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

func TestRunQoSLeavesNoGoroutine(t *testing.T) {
	checkNoGoroutineLeft(t, func() (*Result, error) {
		return RunQoS(qosTestConfig(), qosTestSpec(42))
	})
}
