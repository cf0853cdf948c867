package main

import (
	"fmt"

	"repro/internal/disk"
	"repro/internal/experiments"
	"repro/internal/ionode"
	"repro/internal/machine"
	"repro/internal/pfs"
	"repro/internal/prefetch"
	"repro/internal/scenarios"
	"repro/internal/sim"
	"repro/internal/ufs"
	"repro/internal/workload"
)

// plan is one workload instantiated for a seed: the machine it runs on
// and exactly one of a closed-loop spec, an open-loop QoS spec, or the
// paper's experiment list. For paper-repro, spec is one Figure 4/5 cell,
// whose set-up (machine and shared file) set-up timing measures.
type plan struct {
	cfg   machine.Config
	spec  workload.Spec
	qos   *workload.QoSSpec
	paper *experiments.Scale
}

// workloadDef is one named workload. plan builds its inputs from the seed
// and a size divisor: 1 is the benchmark size, larger values shrink the
// run for tests while keeping its machine and mechanisms.
type workloadDef struct {
	name   string
	why    string
	seeded bool // false: the inputs do not depend on the seed
	noFail bool // every read must succeed (failed_frac must be 0)
	plan   func(seed, div int64) plan
}

// paperIDs are the experiments paper-repro regenerates: every table and
// figure of the paper's evaluation, run serially at the paper's scale.
var paperIDs = []string{"fig2", "table1", "table2", "fig4", "fig5", "table3", "table4"}

// workloads returns the suite in run order.
func workloads() []workloadDef {
	return []workloadDef{
		{
			name:   "paper-balanced",
			why:    "the paper's prototype with compute below read access time: disk-bound, all prefetch hits-in-wait, cost is kernel and proc hand-off",
			seeded: true, noFail: true,
			plan: func(seed, div int64) plan {
				cfg := machine.DefaultConfig()
				cfg.UFS.Seed = seed
				return plan{cfg: cfg, spec: balancedSpec(cfg, (1<<30)/div, 20*sim.Millisecond)}
			},
		},
		{
			name:   "scale-steady",
			why:    "1024+256 machine: mesh contention, 1024 live procs for GC to scan, and the heaviest set-up",
			seeded: true, noFail: true,
			plan: func(seed, div int64) plan {
				// The scale platform with the default 5% UFS fragmentation
				// restored, so the seed moves the block layout.
				cfg := scenarios.ScaleMachine()
				cfg.UFS.Fragmentation = ufs.DefaultConfig().Fragmentation
				cfg.UFS.Seed = seed
				pcfg := prefetch.DefaultConfig()
				const req = 64 << 10
				// Scaled down, each file still puts two blocks on its first
				// server, so the seed's fragmentation draws still happen.
				perNode := max(roundDown((2<<20)/div, req), int64(cfg.PFS.GroupWidth+1)*req)
				return plan{cfg: cfg, spec: workload.Spec{
					File:          "scale",
					FileSize:      int64(cfg.ComputeNodes) * perNode,
					RequestSize:   req,
					Mode:          pfs.MRecord,
					ComputeDelay:  50 * sim.Millisecond,
					Prefetch:      &pcfg,
					SeparateFiles: true,
				}}
			},
		},
		{
			name:   "faults",
			why:    "transient disk faults, node crashes and a RAID member loss: the retry, timeout, failover, degraded-read and rebuild paths",
			seeded: true,
			plan: func(seed, div int64) plan {
				cfg := machine.DefaultConfig()
				cfg.UFS.Seed = seed
				cfg.DiskFaultRate = 0.03
				cfg.DiskFaultTransientFrac = 1
				cfg.DiskFaultJitter = 0.2
				// The fault stream and the outage schedule are fixed: drawn
				// from the seed, either moves sim_mbps by about 1% between
				// seeds, as much as its bound. The seed moves the block
				// layout.
				cfg.FaultSeed = 1
				cfg.Shed = ionode.ShedPolicy{Threshold: 3, Cooldown: 20 * sim.Millisecond}
				cfg.PFS.Retry = scenarios.CrashMachine().PFS.Retry
				cfg.Crash = machine.CrashPlan{
					Count:    int(max(32/div, 1)),
					Seed:     1,
					Window:   500 * sim.Second / sim.Time(div),
					Downtime: 3 * sim.Second,
				}
				cfg.MemberFail = machine.MemberFailPlan{At: 50 * sim.Second / sim.Time(div), Array: 3, Member: 1}
				cfg.Rebuild = disk.RebuildPolicy{Chunk: 128 << 10, Gap: 2 * sim.Millisecond}
				spec := balancedSpec(cfg, (4<<30)/div, 50*sim.Millisecond)
				spec.ContinueOnUnavailable = true
				return plan{cfg: cfg, spec: spec}
			},
		},
		{
			// In overload, any input the seed could move (the arrival
			// schedule, or only the block layout) moves the simulated
			// read latency by more than its 1% bound: at 64 requests per
			// tenant, the heavy-tailed schedule shifted p50 between 4 and
			// 22 ms, the layout alone by 2-4%. So the inputs are fixed, as
			// paper-repro's are.
			name: "qos-overload",
			why:  "open loop in overload, fixed schedule: fair queueing, admission throttling and the UFS cache, one proc per request, no prefetch",
			plan: func(_, div int64) plan {
				cfg := machine.DefaultConfig()
				cfg.PFS.FastPath = false
				cfg.Fair = ionode.FairPolicy{
					Weights:       []int{4, 2, 1},
					Slots:         2,
					RatePerWeight: 4 << 10,
					BurstBytes:    32 << 10,
				}
				return plan{cfg: cfg, qos: &workload.QoSSpec{
					Tenants:     1024,
					Files:       128,
					FileSize:    1 << 20,
					RequestSize: 16 << 10,
					Requests:    int(max(16/div, 1)),
					MeanGap:     2400 * sim.Millisecond,
					Seed:        1,
					SLO:         sloLimit,
				}}
			},
		},
		{
			name: "paper-repro",
			why:  "regenerating the paper's seven tables and figures: hundreds of short 8+8 runs, so set-up and small-run costs dominate",
			plan: func(_, div int64) plan {
				s := experiments.PaperScale()
				if div > 1 {
					s = experiments.QuickScale()
				}
				cfg := machine.DefaultConfig()
				cfg.ComputeNodes, cfg.IONodes = s.Compute, s.IO
				// The 64 KiB, no-delay, no-prefetch cell of Figure 4 (the
				// figures' runs differ only in request size, delay and
				// prefetching, which set-up does not see), under
				// workload.Run's default file name.
				return plan{cfg: cfg, paper: &s, spec: workload.Spec{
					File:        "data",
					FileSize:    s.FileBytes,
					RequestSize: 64 << 10,
					Mode:        pfs.MRecord,
				}}
			},
		},
	}
}

// sloLimit is the latency limit slo_frac counts completions against.
const sloLimit = 100 * sim.Millisecond

// balancedSpec is the paper's balanced workload on cfg: one shared file
// of about size bytes read by every compute node in M_RECORD with 64 KiB
// requests and compute-node prefetching.
func balancedSpec(cfg machine.Config, size int64, delay sim.Time) workload.Spec {
	const req = 64 << 10
	round := int64(cfg.ComputeNodes) * req
	size = max(roundDown(size, round), round)
	pcfg := prefetch.DefaultConfig()
	return workload.Spec{
		File:         "balanced",
		FileSize:     size,
		RequestSize:  req,
		Mode:         pfs.MRecord,
		ComputeDelay: delay,
		Prefetch:     &pcfg,
	}
}

func roundDown(n, unit int64) int64 { return n / unit * unit }

// findWorkload returns the named workload.
func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}
