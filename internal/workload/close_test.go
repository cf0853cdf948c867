package workload

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/pfs"
	"repro/internal/prefetch"
	"repro/internal/sim"
)

// TestRunLeavesNoGoroutine: a closed-loop run leaves no goroutine
// behind. (It starts no process; twophase's TestCloseEndsProcesses
// covers the coroutines of a run that does.)
func TestRunLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	pcfg := prefetch.DefaultConfig()
	if _, err := Run(cfg4x4(), Spec{
		File:         "quickstart",
		FileSize:     1 << 20,
		RequestSize:  64 << 10,
		Mode:         pfs.MRecord,
		ComputeDelay: 50 * sim.Millisecond,
		Prefetch:     &pcfg,
	}); err != nil {
		t.Fatal(err)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("%d goroutines after the run, %d before", g, before)
	}
}

// TestRunStartsNoProcess: every compute node's read loop is a callback
// state machine, in every I/O mode, with separate files, and under
// transient faults.
func TestRunStartsNoProcess(t *testing.T) {
	faulty := cfg4x4()
	faulty.DiskFaultRate = 0.05
	faulty.DiskFaultTransientFrac = 1
	faulty.FaultSeed = 42
	faulty.PFS.Retry = pfs.DefaultRetryPolicy()
	type run struct {
		name string
		cfg  machine.Config
		spec Spec
	}
	var runs []run
	for _, mode := range []pfs.Mode{pfs.MUnix, pfs.MLog, pfs.MSync, pfs.MRecord, pfs.MGlobal, pfs.MAsync} {
		runs = append(runs, run{mode.String(), cfg4x4(), Spec{Mode: mode, ComputeDelay: sim.Millisecond}})
	}
	runs = append(runs,
		run{"separate-files", cfg4x4(), Spec{Mode: pfs.MRecord, SeparateFiles: true}},
		run{"faults", faulty, Spec{Mode: pfs.MRecord}})
	for _, r := range runs {
		r.spec.FileSize, r.spec.RequestSize = 1<<20, 64<<10
		res, err := Run(r.cfg, r.spec)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if res.ReadCalls == 0 {
			t.Fatalf("%s: the run made no read", r.name)
		}
		if r.name == "faults" && res.Fault.Retries == 0 {
			t.Fatal("the fault run retried nothing")
		}
		if got := res.Engine.Started; got != 0 {
			t.Fatalf("%s: the run started %d processes, want 0", r.name, got)
		}
	}
}

// TestStuckBroadcastIsAnError: under M_GLOBAL, rank 0 reads for the
// group and broadcasts. When its read fails, ranks 1–3 wait for a
// broadcast that never comes, and the run must end in an error that
// says so rather than drain the queue and report the survivors.
func TestStuckBroadcastIsAnError(t *testing.T) {
	cfg := cfg4x4()
	cfg.DiskFaultRate = 1 // every disk request fails
	res, err := Run(cfg, Spec{FileSize: 1 << 20, RequestSize: 64 << 10, Mode: pfs.MGlobal})
	if err == nil {
		t.Fatalf("the run returned no error (elapsed %v)", res.Elapsed)
	}
	msg := err.Error()
	if !strings.Contains(msg, "deadlock") || !strings.Contains(msg, "blocked with no pending events") {
		t.Fatalf("error %q does not report the deadlock", msg)
	}
	// The three waiting ranks: named by the callback driver, counted as
	// blocked processes when each node ran as one.
	if !strings.Contains(msg, "node(s) 1, 2, 3 ") && !strings.Contains(msg, "3 process(es)") {
		t.Fatalf("error %q does not account for the three waiting ranks", msg)
	}
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
