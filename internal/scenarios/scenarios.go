// Package scenarios defines the four golden scenarios — healthy
// quickstart, chaos, crash, and tournament — and Run, the one way to run
// them. cmd/detgate pins their event history with committed digests, and
// the engine-noise test in internal/sim perturbs the same runs, so both
// see literally the same machine configuration and workload spec. The
// benchmark suite (benchsuite/) builds its scale-steady and faults
// workloads on ScaleMachine and CrashMachine.
package scenarios

import (
	"fmt"

	"repro/internal/disk"
	"repro/internal/ionode"
	"repro/internal/machine"
	"repro/internal/pfs"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Scenario is one golden run: a machine configuration plus an optional
// spec adjustment on top of the shared quickstart workload.
type Scenario struct {
	Name   string
	Config func() machine.Config
	Tweak  func(*workload.Spec) // optional; applied to Spec before Run
}

// QuickstartMachine is the gate platform: 4 compute and 4 I/O nodes,
// fragmentation off (matching internal/workload's golden-trace test).
func QuickstartMachine() machine.Config {
	cfg := machine.DefaultConfig()
	cfg.ComputeNodes = 4
	cfg.IONodes = 4
	cfg.UFS.Fragmentation = 0
	return cfg
}

// QuickstartSpec is the shared workload: M_RECORD readers with
// prefetching and 50 ms of computation between reads.
func QuickstartSpec(tl *trace.Log) workload.Spec {
	pcfg := prefetch.DefaultConfig()
	return workload.Spec{
		File:         "quickstart",
		FileSize:     1 << 20,
		RequestSize:  64 << 10,
		Mode:         pfs.MRecord,
		ComputeDelay: 50 * sim.Millisecond,
		Prefetch:     &pcfg,
		Trace:        tl,
	}
}

// ChaosMachine arms the full fault-tolerance stack on the gate platform.
func ChaosMachine() machine.Config {
	cfg := QuickstartMachine()
	cfg.DiskFaultRate = 0.03
	cfg.DiskFaultTransientFrac = 1
	cfg.DiskFaultJitter = 0.2
	cfg.FaultSeed = 42
	cfg.Shed = ionode.ShedPolicy{Threshold: 3, Cooldown: 20 * sim.Millisecond}
	cfg.PFS.Retry = pfs.DefaultRetryPolicy()
	return cfg
}

// CrashMachine arms the crash–restart fault domain on the gate platform:
// two whole-node outages the restart-aware failover rides out, plus a
// permanent member loss with the online rebuild racing the reads.
func CrashMachine() machine.Config {
	cfg := QuickstartMachine()
	cfg.PFS.Retry = pfs.RetryPolicy{
		MaxRetries:   8,
		Timeout:      2 * sim.Second,
		Backoff:      2 * sim.Millisecond,
		BackoffMax:   100 * sim.Millisecond,
		Seed:         1,
		DownPoll:     50 * sim.Millisecond,
		DownDeadline: 2500 * sim.Millisecond,
	}
	cfg.Crash = machine.CrashPlan{
		Count:    2,
		Seed:     5,
		Start:    50 * sim.Millisecond,
		Window:   400 * sim.Millisecond,
		Downtime: 800 * sim.Millisecond,
	}
	cfg.MemberFail = machine.MemberFailPlan{At: 100 * sim.Millisecond, Array: 0, Member: 1}
	cfg.Rebuild = disk.RebuildPolicy{Chunk: 128 << 10, Gap: 2 * sim.Millisecond}
	return cfg
}

// TournamentTweak arms the prefetcher-zoo stack on a spec: the hybrid
// policy (mode, sequential, and stride sources racing under per-stream
// accuracy grading) with the online controller retuning Depth and
// MaxBuffers every 4 reads. Shared by the golden scenario below and the
// ext-tournament experiment's simcheck twin, so the gated configuration
// is literally the one the experiment verifies.
func TournamentTweak(spec *workload.Spec) {
	spec.Prefetch.Policy = "hybrid"
	spec.Prefetch.Controller = prefetch.ControllerConfig{Interval: 4}
}

// ScaleMachine is the large-configuration platform: 1024 compute and
// 256 I/O nodes on a 36×36 mesh, with files striping over 16-node tiles
// of the I/O side so declustering stays O(stripe width).
func ScaleMachine() machine.Config {
	cfg := QuickstartMachine()
	cfg.ComputeNodes = 1024
	cfg.IONodes = 256
	cfg.PFS.GroupWidth = 16
	return cfg
}

// Golden returns the gated scenarios in golden-file line order.
func Golden() []Scenario {
	return []Scenario{
		{Name: "quickstart", Config: QuickstartMachine},
		{Name: "chaos", Config: ChaosMachine},
		{Name: "crash", Config: CrashMachine,
			Tweak: func(spec *workload.Spec) { spec.ContinueOnUnavailable = true }},
		{Name: "tournament", Config: QuickstartMachine, Tweak: TournamentTweak},
	}
}

// Run executes the scenario once with a 1<<18-event trace log attached
// and returns the result and the log. This is the run detgate digests.
func Run(sc Scenario) (*workload.Result, *trace.Log, error) {
	tl := trace.NewLog(1 << 18)
	spec := QuickstartSpec(tl)
	if sc.Tweak != nil {
		sc.Tweak(&spec)
	}
	res, err := workload.Run(sc.Config(), spec)
	if err != nil {
		return nil, nil, fmt.Errorf("%s run failed: %w", sc.Name, err)
	}
	return res, tl, nil
}
