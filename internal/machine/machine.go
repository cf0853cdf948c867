// Package machine assembles a complete simulated Intel Paragon: a 2-D
// mesh with compute nodes on one row and I/O nodes (each with a RAID
// array and a UFS) on another, plus a mounted PFS. This is the object
// workloads and experiments program against.
package machine

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/disk"
	"repro/internal/ionode"
	"repro/internal/mesh"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/ufs"
)

// CrashPlan schedules whole-I/O-node crashes: Count nodes (drawn with a
// seeded generator, possibly the same node twice) crash at times drawn
// uniformly from (Start, Start+Window] and restart Downtime later. The
// zero plan disables crashes. Overlapping intervals on one node merge
// into a single longer outage.
type CrashPlan struct {
	Count    int      // crashes to schedule (0 disables)
	Seed     int64    // draws the victims and crash times
	Start    sim.Time // earliest crash time
	Window   sim.Time // crash times fall in (Start, Start+Window]
	Downtime sim.Time // outage length per crash
}

// Enabled reports whether the plan schedules any crash.
func (cp CrashPlan) Enabled() bool { return cp.Count > 0 }

// MemberFailPlan kills one RAID member permanently at time At (0
// disables): the array runs degraded from then on, rebuilding onto a hot
// spare if Config.Rebuild is armed.
type MemberFailPlan struct {
	At     sim.Time // when the drive dies (0 disables)
	Array  int      // which I/O node's array
	Member int      // which member disk
}

// Enabled reports whether a member failure is scheduled.
func (mp MemberFailPlan) Enabled() bool { return mp.At > 0 }

// PrefetchOptions carries machine-level defaults for the client
// prefetcher: a predictor policy name and an online controller
// configuration. workload.Run applies them to any Spec that enables
// prefetching without choosing its own; the zero value changes nothing.
//
// The structs mirror prefetch.Config's Policy/ControllerConfig fields
// instead of importing them — machine models hardware, prefetch is
// client software policy, and the prefetch package's own tests build
// machines. The field-for-field struct conversion in workload keeps the
// mirror honest at compile time.
type PrefetchOptions struct {
	// Policy names the predictor: "", "mode", "sequential", "stride", or
	// "hybrid" (see prefetch.NewPolicy).
	Policy string
	// Controller arms the online Depth/MaxBuffers controller when its
	// Interval is non-zero (see prefetch.ControllerConfig).
	Controller PrefetchController
}

// PrefetchController mirrors prefetch.ControllerConfig field for field
// (workload converts between the two), so it survives the machine
// config's JSON round-trip without an interface in sight.
type PrefetchController struct {
	Interval     int64
	MinDepth     int
	MaxDepth     int
	MinBuffers   int
	MaxBuffers   int
	Step         int
	LowHit       float64
	HighHit      float64
	ServiceSlack float64
}

// Config describes the machine to build. Zero values are filled from
// DefaultConfig by Build, so callers can override selectively.
type Config struct {
	ComputeNodes int
	IONodes      int

	Mesh          mesh.Config // geometry fields are set by Build
	DiskGeometry  disk.Geometry
	DiskSched     disk.Sched
	ArrayMembers  int      // disks per I/O node RAID array
	ArrayOverhead sim.Time // RAID controller overhead per request
	Dispatch      sim.Time // I/O node daemon per-request CPU
	UFS           ufs.Config
	PFS           pfs.Config

	// DiskFaultRate arms per-request fault injection on every member
	// disk (0 disables). Faults surface as read errors at the
	// application, with the prefetcher falling back to direct reads.
	DiskFaultRate float64
	FaultSeed     int64

	// DiskFaultTransientFrac and DiskFaultPermanentFrac classify faults
	// (see disk.FaultProfile): a transient fault succeeds on re-read, a
	// permanent one pins its sector dead. Both zero keeps the legacy
	// one-shot fault behaviour bit-for-bit.
	DiskFaultTransientFrac float64
	DiskFaultPermanentFrac float64
	// DiskFaultJitter stretches per-request service times by up to this
	// fraction while fault injection is armed (0 disables).
	DiskFaultJitter float64

	// Prefetch supplies machine-level prefetcher defaults (policy name
	// and online controller) that workload.Run layers under any Spec
	// that enables prefetching without choosing its own.
	Prefetch PrefetchOptions

	// Shed installs the I/O-node fault breaker on every server: after
	// Threshold consecutive disk faults a node fast-fails requests for
	// Cooldown. The zero policy disables shedding.
	Shed ionode.ShedPolicy

	// Fair installs the per-tenant weighted fair scheduler and
	// token-bucket admission on every server. The zero policy disables
	// it — requests reach the disk in arrival order, byte-identical to
	// the pre-QoS machine.
	Fair ionode.FairPolicy

	// Crash schedules whole-I/O-node crash–restart cycles.
	Crash CrashPlan
	// MemberFail kills one RAID member for good at a fixed time.
	MemberFail MemberFailPlan
	// Rebuild, when its Chunk is non-zero, starts the online rebuild onto
	// a hot spare as soon as the member fails (ignored with NoParity).
	Rebuild disk.RebuildPolicy
	// NoParity strips the arrays of their parity: a dead member makes
	// every request touching the array fail instead of running degraded.
	// This is the failover-off twin configuration simcheck uses to prove
	// the parity path matters.
	NoParity bool
}

// DefaultConfig returns the paper's evaluation platform: 8 compute nodes
// and 8 I/O nodes with SCSI RAID arrays, 64 KB file system blocks, and a
// 64 KB default stripe unit across all 8 I/O nodes.
func DefaultConfig() Config {
	return Config{
		ComputeNodes:  8,
		IONodes:       8,
		Mesh:          mesh.Paragon(8, 2),
		DiskGeometry:  disk.Seagate94601(),
		DiskSched:     disk.SCAN,
		ArrayMembers:  4,
		ArrayOverhead: 2 * sim.Millisecond,
		Dispatch:      1 * sim.Millisecond,
		UFS:           ufs.DefaultConfig(),
		PFS:           pfs.DefaultConfig(),
	}
}

// Machine is a built simulation instance. K is the kernel every
// component runs on.
type Machine struct {
	K       *sim.Kernel
	Mesh    *mesh.Mesh
	Servers []*ionode.Server
	Arrays  []*disk.Array
	FS      *pfs.FileSystem
	Compute []int // mesh addresses of the compute nodes
	cfg     Config
}

// Build constructs the machine on a near-square mesh (the Paragon's
// meshes were roughly square, which is what gives broadcasts and
// all-to-alls their bisection bandwidth): compute nodes fill the grid
// row-major from the origin, I/O nodes take the following slots.
func Build(cfg Config) *Machine {
	if cfg.ComputeNodes <= 0 || cfg.IONodes <= 0 {
		panic(fmt.Sprintf("machine: need compute and I/O nodes, got %d/%d", cfg.ComputeNodes, cfg.IONodes))
	}
	if cfg.ArrayMembers <= 0 {
		cfg.ArrayMembers = 4
	}
	total := cfg.ComputeNodes + cfg.IONodes
	w := 1
	for w*w < total {
		w++
	}
	h := (total + w - 1) / w
	cfg.Mesh.Width = w
	cfg.Mesh.Height = h

	k := sim.NewKernel()
	m := mesh.New(k, cfg.Mesh)
	mach := &Machine{K: k, Mesh: m, cfg: cfg}
	for i := 0; i < cfg.ComputeNodes; i++ {
		mach.Compute = append(mach.Compute, i)
	}
	for i := 0; i < cfg.IONodes; i++ {
		array := disk.NewArray(k, fmt.Sprintf("raid%d", i), cfg.ArrayMembers,
			cfg.DiskGeometry, cfg.DiskSched, cfg.ArrayOverhead)
		mach.Arrays = append(mach.Arrays, array)
		if cfg.DiskFaultRate > 0 {
			for j, d := range array.Members() {
				d.InjectFaultProfile(disk.FaultProfile{
					Rate:          cfg.DiskFaultRate,
					TransientFrac: cfg.DiskFaultTransientFrac,
					PermanentFrac: cfg.DiskFaultPermanentFrac,
					Jitter:        cfg.DiskFaultJitter,
					Seed:          cfg.FaultSeed + int64(i*100+j),
				})
			}
		}
		if cfg.NoParity {
			array.SetParity(false)
		}
		ucfg := cfg.UFS
		ucfg.Seed = cfg.UFS.Seed + int64(i)*7919 // distinct, deterministic layouts
		fs := ufs.New(k, array, ucfg)
		srv := ionode.New(k, m, cfg.ComputeNodes+i, fs, cfg.Dispatch)
		srv.SetShedPolicy(cfg.Shed)
		srv.SetFairPolicy(cfg.Fair)
		mach.Servers = append(mach.Servers, srv)
	}
	mach.FS = pfs.Mount(k, m, mach.Servers, cfg.PFS)
	if cfg.Fair.Enabled() {
		mach.FS.SetTenants(cfg.Fair.Tenants)
	}
	mach.scheduleCrashes(cfg.Crash)
	mach.scheduleMemberFail(cfg)
	return mach
}

// scheduleCrashes pre-plans the whole-node outages: victims and crash
// times come from the plan's own generator at build time, so the
// schedule is fixed before the first event runs and identical across
// runs. Overlapping outages of one node merge.
func (m *Machine) scheduleCrashes(plan CrashPlan) {
	if !plan.Enabled() {
		return
	}
	if plan.Window <= 0 || plan.Downtime <= 0 {
		panic(fmt.Sprintf("machine: crash plan needs positive Window and Downtime, got %v/%v",
			plan.Window, plan.Downtime))
	}
	rng := rand.New(rand.NewSource(plan.Seed))
	type outage struct{ at, until sim.Time }
	perNode := make([][]outage, len(m.Servers))
	for c := 0; c < plan.Count; c++ {
		node := rng.Intn(len(m.Servers))
		at := plan.Start + sim.Time(1+rng.Int63n(int64(plan.Window)))
		perNode[node] = append(perNode[node], outage{at: at, until: at + plan.Downtime})
	}
	for i, list := range perNode {
		if len(list) == 0 {
			continue
		}
		sort.Slice(list, func(a, b int) bool { return list[a].at < list[b].at })
		merged := []outage{list[0]}
		for _, o := range list[1:] {
			if last := &merged[len(merged)-1]; o.at <= last.until {
				if o.until > last.until {
					last.until = o.until
				}
			} else {
				merged = append(merged, o)
			}
		}
		// Health queries from other nodes (mesh delivery, client
		// down-polling) consult the static schedule, not the server's
		// runtime state.
		srv := m.Servers[i]
		sched := make([]ionode.Outage, 0, len(merged))
		for _, o := range merged {
			o := o
			m.K.At(o.at, func() { srv.Crash(o.until) })
			m.K.At(o.until, srv.Restart)
			m.Mesh.AddOutage(srv.Node(), o.at, o.until)
			sched = append(sched, ionode.Outage{At: o.at, Until: o.until})
		}
		srv.SetOutageSchedule(sched)
	}
}

// scheduleMemberFail arms the RAID member death (and, when configured,
// the online rebuild that follows it).
func (m *Machine) scheduleMemberFail(cfg Config) {
	if !cfg.MemberFail.Enabled() {
		return
	}
	ai, mi := cfg.MemberFail.Array, cfg.MemberFail.Member
	if ai < 0 || ai >= len(m.Arrays) {
		panic(fmt.Sprintf("machine: member-fail array %d outside %d arrays", ai, len(m.Arrays)))
	}
	if mi < 0 || mi >= m.Arrays[ai].Width() {
		panic(fmt.Sprintf("machine: member-fail member %d outside array of %d", mi, m.Arrays[ai].Width()))
	}
	array := m.Arrays[ai]
	rebuild := cfg.Rebuild
	noParity := cfg.NoParity
	m.K.At(cfg.MemberFail.At, func() {
		array.FailMember(mi)
		if rebuild.Chunk > 0 && !noParity {
			array.StartRebuild(rebuild)
		}
	})
}

// SetTrace attaches tl to every server and array so node crashes,
// degraded reads, and rebuild progress appear on the workload timeline
// alongside the PFS events.
func (m *Machine) SetTrace(tl *trace.Log) {
	for i, s := range m.Servers {
		s.SetTrace(tl)
		m.Arrays[i].SetTrace(tl, s.Node())
	}
}

// Run executes the simulation to completion.
func (m *Machine) Run() error { return m.K.Run() }

// Close ends the processes still parked on the machine's kernel (see
// sim.Kernel.Close). Call it once the last run is over; the machine's
// counters stay readable.
func (m *Machine) Close() { m.K.Close() }

// Executed reports the events executed so far.
func (m *Machine) Executed() uint64 { return m.K.Executed() }

// MaxQueueDepth reports the deepest the event queue ever got — a
// deterministic property of the schedule (benchsuite reports it as
// sim.max_queue_depth).
func (m *Machine) MaxQueueDepth() int { return m.K.MaxPending() }

// Config returns the configuration the machine was built with (geometry
// fields filled in).
func (m *Machine) Config() Config { return m.cfg }

// IONodeBytes reports the bytes served by each I/O node so far.
func (m *Machine) IONodeBytes() []int64 {
	out := make([]int64, len(m.Servers))
	for i, s := range m.Servers {
		out[i] = s.BytesServed
	}
	return out
}

// DiskUtilization reports the mean busy fraction across all member disks
// at the current simulated time.
func (m *Machine) DiskUtilization() float64 {
	now := m.K.Now()
	if now == 0 {
		return 0
	}
	var sum float64
	var n int
	for _, a := range m.Arrays {
		for _, d := range a.Members() {
			sum += d.Busy.Fraction(now)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
