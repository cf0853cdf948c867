// Package workload implements the synthetic workload programs of the
// paper's evaluation: SPMD readers that open a shared PFS file in one of
// the I/O modes and stream through it, optionally "computing" (delaying)
// between reads to form the balanced workloads of Section 4.2, and
// optionally running under the prefetching prototype.
package workload

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/machine"
	"repro/internal/pfs"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Pattern selects the per-node access pattern.
type Pattern int

const (
	// Interleaved reads records in node order: node i reads record
	// r*parties+i in round r. The paper's M_RECORD workload (and its
	// M_ASYNC equivalent, with application-managed pointers).
	Interleaved Pattern = iota
	// Partitioned assigns node i the contiguous i-th slice of the file.
	Partitioned
	// Random reads records at uniformly random record-aligned offsets,
	// one full file's worth. Prefetching should not help here.
	Random
	// Strided reads every Stride-th record in node order: a matrix
	// column walk.
	Strided
)

// String names the pattern.
func (p Pattern) String() string {
	switch p {
	case Interleaved:
		return "interleaved"
	case Partitioned:
		return "partitioned"
	case Random:
		return "random"
	case Strided:
		return "strided"
	default:
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
}

// Spec describes one workload run.
type Spec struct {
	File         string           // PFS path (created by Run)
	FileSize     int64            // total bytes across all nodes
	RequestSize  int64            // bytes per read call per node
	Mode         pfs.Mode         // I/O mode for the shared file
	ComputeDelay sim.Time         // simulated computation between consecutive reads
	Prefetch     *prefetch.Config // nil disables prefetching

	SeparateFiles bool    // each node opens a private file (Figure 2 baseline)
	StripeUnit    int64   // 0 = mount default
	StripeGroup   int     // 0 = all I/O nodes
	Pattern       Pattern // non-collective modes only; collective modes imply Interleaved
	Stride        int     // records skipped by Strided (≥1)
	Seed          int64   // seeds all randomized pattern choices (see Spec.rng)

	// RecordDeliveries keeps each node's full list of delivered byte
	// ranges on the Result (the digest alone is always kept). simcheck's
	// coverage oracles need the ranges; normal runs leave this off to
	// keep memory flat.
	RecordDeliveries bool

	// Buffered disables Fast Path: reads stage through the I/O node
	// buffer caches (required for server-side prefetch placement).
	Buffered bool
	// ServerSide selects the server-side prefetch placement instead of
	// the compute-node prototype. Mutually exclusive with Prefetch.
	ServerSide *prefetch.ServerSideConfig

	// Trace, when non-nil, receives the run's file system and prefetch
	// timeline.
	Trace *trace.Log

	// ContinueOnUnavailable keeps a node's read loop going when a read
	// fails with pfs.ErrUnavailable (its I/O node is dead past the
	// failover deadline): the read is counted as unavailable — requested
	// but never delivered — and the loop moves to the node's next offset.
	// Only meaningful for statically-partitioned access (M_RECORD,
	// M_ASYNC, separate files), where skipping a read cannot desequence
	// a shared pointer. Off, any read error aborts the run as before.
	ContinueOnUnavailable bool
}

// Result is what a run measured.
type Result struct {
	Spec       Spec
	Elapsed    sim.Time        // slowest node's completion of all its reads
	TotalBytes int64           // data delivered to applications
	Bandwidth  float64         // TotalBytes over Elapsed, MB/s (the paper's metric)
	NodeTimes  []sim.Time      // per-node completion times
	ReadTime   stats.Histogram // per-call blocking read latency, seconds
	Prefetch   *prefetch.Prefetcher
	ServerSide *prefetch.ServerSide
	Machine    *machine.Machine

	// Correctness accounting (see internal/simcheck).
	ReadCalls       int64            // successful read calls across all nodes
	IOBytes         int64            // bytes pulled over the stripe fast path by user-facing instances
	DeliveryDigests []uint64         // per-node digest of delivered ranges, node order
	Deliveries      [][]pfs.Delivery // per-node delivered ranges (only with Spec.RecordDeliveries)

	// Unavailable accounting (Spec.ContinueOnUnavailable under crashes):
	// reads the application requested that failed ErrUnavailable, with
	// their byte counts, total and per node.
	UnavailableReads     int64
	UnavailableBytes     int64
	NodeUnavailableBytes []int64

	// Fault summarizes the run's fault-tolerance activity (all zero on a
	// healthy machine with the retry layer disabled).
	Fault FaultCounters

	// Shared-pointer token contention (M_UNIX holds the token across the
	// whole I/O, M_LOG only across the claim; zero elsewhere). TokenOps
	// counts acquisitions, TokenWaits the ones that queued behind another
	// holder, TokenWaitTime the total simulated time spent queued — the
	// serialization cost whose collapse with client count the ext-scale
	// experiment records. Not folded into the fingerprint: the counters
	// observe existing events rather than scheduling new ones.
	TokenOps      int64
	TokenWaits    int64
	TokenWaitTime sim.Time

	// QoS is the open-loop multi-tenant ledger (RunQoS only, nil
	// elsewhere). When present it is folded into the fingerprint.
	QoS *QoSResult

	// Engine is the kernel's census at the end of the run: how many
	// events and processes it took to simulate the model. It is
	// observational — Fingerprint does not fold it, so booking fewer
	// events for the same behaviour moves no golden — but two runs of
	// one build must still agree on it (simcheck's determinism oracle).
	Engine sim.Stats
}

// FaultCounters aggregates the fault-path counters of the PFS client, the
// I/O node servers, and the member disks after a run.
type FaultCounters struct {
	Retries       int64 // stripe pieces re-issued after a failure or timeout
	Timeouts      int64 // attempts whose reply deadline fired first
	GiveUps       int64 // pieces that exhausted the retry budget
	DegradedReads int64 // reads that succeeded only via >=1 retried piece
	LateReplies   int64 // replies that lost the race against their timeout
	LateBytes     int64 // read data delivered late and discarded
	Shed          int64 // requests fast-failed by shedding I/O nodes
	DiskTransient int64 // transient faults injected at the disk layer
	DiskPermanent int64 // permanent faults injected at the disk layer
	ServerFaults  int64 // requests that failed at the disk layer, server view
	Retired       int64 // failed prefetches whose buffer slots were reclaimed

	// Crash-domain counters (all zero without a crash/member-fail plan).
	NodeCrashes    int64 // whole-I/O-node crashes
	NodeRestarts   int64 // nodes that came back up
	NodeDropped    int64 // requests that vanished into down/crashing nodes
	MeshDropped    int64 // messages addressed to a down node, dropped in flight
	DownWaits      int64 // pieces parked on a crashed node's restart
	Unavailable    int64 // pieces failed ErrUnavailable (node dead past deadline)
	AbandonedBytes int64 // piece bytes served inside reads that overall failed
	MemberFails    int64 // RAID members lost for good
	ArrayDegraded  int64 // array requests served by parity reconstruction
	RebuildIOs     int64 // background rebuild passes onto hot spares
	RebuildBytes   int64 // bytes rebuilt onto hot spares
}

// collectFaults fills res.Fault from the machine and prefetcher state.
func collectFaults(res *Result, m *machine.Machine) {
	fs := m.FS
	res.Fault.Retries = fs.Retries
	res.Fault.Timeouts = fs.Timeouts
	res.Fault.GiveUps = fs.GiveUps
	res.Fault.DegradedReads = fs.DegradedReads
	res.Fault.LateReplies = fs.LateReplies
	res.Fault.LateBytes = fs.LateBytes
	for _, s := range m.Servers {
		res.Fault.Shed += s.Shed
		res.Fault.ServerFaults += s.Faults
	}
	for _, a := range m.Arrays {
		for _, d := range a.Members() {
			res.Fault.DiskTransient += d.TransientErrors
			res.Fault.DiskPermanent += d.PermanentErrors
		}
	}
	if res.Prefetch != nil {
		res.Fault.Retired = res.Prefetch.Retired
	}
	res.Fault.DownWaits = fs.DownWaits
	res.Fault.Unavailable = fs.Unavailable
	res.Fault.AbandonedBytes = fs.AbandonedBytes
	for _, s := range m.Servers {
		res.Fault.NodeCrashes += s.Crashes
		res.Fault.NodeRestarts += s.Restarts
		res.Fault.NodeDropped += s.Dropped
	}
	res.Fault.MeshDropped = m.Mesh.Dropped
	for _, a := range m.Arrays {
		res.Fault.MemberFails += a.MemberFails
		res.Fault.ArrayDegraded += a.DegradedReads
		res.Fault.RebuildIOs += a.RebuildIOs
		res.Fault.RebuildBytes += a.RebuildBytes
	}
}

// Run builds a machine from cfg, lays out the file(s), and drives one
// reader process per compute node until every node has consumed its share
// of the data.
func Run(cfg machine.Config, spec Spec) (*Result, error) {
	if err := validate(cfg, &spec); err != nil {
		return nil, err
	}
	if spec.Buffered {
		cfg.PFS.FastPath = false
	}
	m := machine.Build(cfg)
	defer m.Close()
	res := &Result{Spec: spec, Machine: m, NodeTimes: make([]sim.Time, cfg.ComputeNodes)}

	group := stripeGroup(cfg, spec)
	su := spec.StripeUnit
	if su == 0 {
		su = cfg.PFS.StripeUnit
	}

	if spec.Trace != nil {
		m.SetTrace(spec.Trace)
		m.FS.SetTrace(spec.Trace)
	}
	var pf *prefetch.Prefetcher
	var ss *prefetch.ServerSide
	switch {
	case spec.Prefetch != nil && spec.ServerSide != nil:
		return nil, fmt.Errorf("workload: Prefetch and ServerSide are mutually exclusive")
	case spec.Prefetch != nil:
		pcfg := *spec.Prefetch
		if spec.Trace != nil && pcfg.Trace == nil {
			pcfg.Trace = spec.Trace
		}
		// Machine-level defaults fill only what the spec left open: the
		// policy when neither a Predictor nor a Policy is set, and the
		// controller when the spec's is disarmed. The struct conversion
		// fails to compile if machine.PrefetchController ever drifts from
		// prefetch.ControllerConfig.
		if pcfg.Predictor == nil && pcfg.Policy == "" {
			pcfg.Policy = cfg.Prefetch.Policy
		}
		if !pcfg.Controller.Enabled() {
			pcfg.Controller = prefetch.ControllerConfig(cfg.Prefetch.Controller)
		}
		pf = prefetch.New(m.K, pcfg)
		res.Prefetch = pf
	case spec.ServerSide != nil:
		ss = prefetch.NewServerSide(m.K, *spec.ServerSide)
		res.ServerSide = ss
	}

	nodes := cfg.ComputeNodes
	if spec.SeparateFiles {
		share := spec.FileSize / int64(nodes)
		tiled := spec.StripeUnit == 0 && spec.StripeGroup == 0 && cfg.PFS.GroupWidth > 0
		for i := 0; i < nodes; i++ {
			name := fmt.Sprintf("%s.%d", spec.File, i)
			if tiled {
				// Default attributes with a bounded GroupWidth: each
				// private file takes the next GroupWidth-wide tile of the
				// I/O partition (see pfs.Create), so the population covers
				// every I/O node while per-file declustering stays
				// O(GroupWidth) — the large-machine layout.
				if err := m.FS.Create(name, share); err != nil {
					return nil, err
				}
				continue
			}
			if err := m.FS.CreateStriped(name, share, su, group); err != nil {
				return nil, err
			}
		}
	} else {
		if err := m.FS.CreateStriped(spec.File, spec.FileSize, su, group); err != nil {
			return nil, err
		}
	}

	var og *pfs.OpenGroup
	if spec.Mode.Collective() && !spec.SeparateFiles {
		og = pfs.NewOpenGroup(m.K, nodes)
	}

	files := make([]*pfs.File, nodes) // indexed by node rank
	errs := make([]error, nodes)
	unav := make([]unavailTally, nodes)
	for i := 0; i < nodes; i++ {
		i := i
		m.K.Go(fmt.Sprintf("app%d", i), func(p *sim.Proc) {
			name := spec.File
			mode := spec.Mode
			if spec.SeparateFiles {
				name = fmt.Sprintf("%s.%d", spec.File, i)
				mode = pfs.MAsync
			}
			f, err := m.FS.Open(name, m.Compute[i], mode, og)
			if err != nil {
				errs[i] = err
				return
			}
			if spec.RecordDeliveries {
				f.EnableDeliveryLog()
			}
			if pf != nil {
				pf.Attach(f)
			}
			if ss != nil {
				ss.Attach(f)
			}
			errs[i] = drive(p, f, spec, i, nodes, &unav[i])
			res.NodeTimes[i] = p.Now()
			files[i] = f
			if err := f.Close(); err != nil && errs[i] == nil {
				errs[i] = err
			}
		})
	}
	if err := m.Run(); err != nil {
		return nil, err
	}
	res.Engine = m.K.Stats()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("workload: node %d: %w", i, err)
		}
	}
	res.DeliveryDigests = make([]uint64, nodes)
	res.NodeUnavailableBytes = make([]int64, nodes)
	for i, u := range unav {
		res.UnavailableReads += u.reads
		res.UnavailableBytes += u.bytes
		res.NodeUnavailableBytes[i] = u.bytes
	}
	if spec.RecordDeliveries {
		res.Deliveries = make([][]pfs.Delivery, nodes)
	}
	for i, f := range files {
		if f == nil {
			continue
		}
		res.TotalBytes += f.BytesRead
		res.ReadCalls += f.ReadCalls
		res.IOBytes += f.IOBytes
		res.DeliveryDigests[i] = f.DeliveryDigest()
		if spec.RecordDeliveries {
			res.Deliveries[i] = f.Deliveries()
		}
		f.ReadTime.Each(res.ReadTime.Observe)
	}
	for _, t := range res.NodeTimes {
		if t > res.Elapsed {
			res.Elapsed = t
		}
	}
	res.Bandwidth = stats.MBps(res.TotalBytes, res.Elapsed)
	res.TokenOps = m.FS.TokenOps
	res.TokenWaits = m.FS.TokenWaits
	res.TokenWaitTime = m.FS.TokenWaitTime
	collectFaults(res, m)
	return res, nil
}

// unavailTally counts one node's reads lost to dead I/O nodes.
type unavailTally struct {
	reads int64
	bytes int64
}

// tolerate classifies a failed read under the spec's unavailable policy.
// It returns true — after counting the read as requested-but-undelivered
// at the spec's request size — when the loop should move to the next
// offset. (Crash scenarios use file sizes that divide evenly into
// requests, so the request size is the exact loss.)
func tolerate(spec Spec, err error, u *unavailTally) bool {
	if !spec.ContinueOnUnavailable || !errors.Is(err, pfs.ErrUnavailable) {
		return false
	}
	u.reads++
	u.bytes += spec.RequestSize
	return true
}

// drive runs one node's read loop per the spec's pattern.
func drive(p *sim.Proc, f *pfs.File, spec Spec, rank, parties int, u *unavailTally) error {
	req := spec.RequestSize
	delayThen := func(first *bool) {
		if *first {
			*first = false
			return
		}
		if spec.ComputeDelay > 0 {
			p.Sleep(spec.ComputeDelay)
		}
	}

	switch {
	case spec.SeparateFiles:
		first := true
		for {
			delayThen(&first)
			if _, err := f.Read(p, req); err == io.EOF {
				return nil
			} else if err != nil && !tolerate(spec, err, u) {
				return err
			}
		}

	case spec.Mode.Collective() || spec.Mode == pfs.MUnix || spec.Mode == pfs.MLog:
		// Shared-pointer and collective modes: just keep reading. A
		// tolerated unavailable read consumed its round/claim, so the
		// loop continuing stays in step with the other parties.
		first := true
		for {
			delayThen(&first)
			if _, err := f.Read(p, req); err == io.EOF {
				return nil
			} else if err != nil && !tolerate(spec, err, u) {
				return err
			}
		}

	default: // M_ASYNC: the application manages its own pointer.
		return driveAsync(p, f, spec, rank, parties, u)
	}
}

// driveAsync implements the per-pattern M_ASYNC loops.
func driveAsync(p *sim.Proc, f *pfs.File, spec Spec, rank, parties int, u *unavailTally) error {
	req := spec.RequestSize
	size := f.Size()
	readAt := func(off int64, first *bool) error {
		if !*first && spec.ComputeDelay > 0 {
			p.Sleep(spec.ComputeDelay)
		}
		*first = false
		if err := f.SeekTo(off); err != nil {
			return err
		}
		_, err := f.Read(p, req)
		if err == io.EOF {
			return nil
		}
		if err != nil && tolerate(spec, err, u) {
			return nil
		}
		return err
	}

	first := true
	switch spec.Pattern {
	case Interleaved:
		for r := int64(0); ; r++ {
			off := (r*int64(parties) + int64(rank)) * req
			if off >= size {
				return nil
			}
			if err := readAt(off, &first); err != nil {
				return err
			}
		}
	case Partitioned:
		share := size / int64(parties)
		start := int64(rank) * share
		for off := start; off < start+share; off += req {
			if err := readAt(off, &first); err != nil {
				return err
			}
		}
		return nil
	case Random:
		rng := PatternRNG(spec, rank)
		records := size / req / int64(parties)
		maxRec := size / req
		for i := int64(0); i < records; i++ {
			off := rng.Int63n(maxRec) * req
			if off+req > size {
				off = size - req
			}
			if err := readAt(off, &first); err != nil {
				return err
			}
		}
		return nil
	case Strided:
		stride := int64(spec.Stride)
		if stride < 1 {
			stride = 1
		}
		for r := int64(0); ; r++ {
			off := (r*int64(parties)*stride + int64(rank)*stride) * req
			if off >= size {
				return nil
			}
			if err := readAt(off, &first); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("workload: unknown pattern %v", spec.Pattern)
	}
}

// validate fills defaults and rejects nonsense.
func validate(cfg machine.Config, spec *Spec) error {
	if spec.File == "" {
		spec.File = "data"
	}
	if spec.FileSize <= 0 {
		return fmt.Errorf("workload: file size %d must be positive", spec.FileSize)
	}
	if spec.RequestSize <= 0 {
		return fmt.Errorf("workload: request size %d must be positive", spec.RequestSize)
	}
	if spec.SeparateFiles && spec.FileSize%int64(cfg.ComputeNodes) != 0 {
		return fmt.Errorf("workload: file size %d not divisible across %d separate files",
			spec.FileSize, cfg.ComputeNodes)
	}
	if spec.StripeGroup < 0 || spec.StripeGroup > cfg.IONodes {
		return fmt.Errorf("workload: stripe group %d outside [0,%d]", spec.StripeGroup, cfg.IONodes)
	}
	if !spec.Mode.Valid() {
		return fmt.Errorf("workload: invalid mode %d", int(spec.Mode))
	}
	return nil
}

// stripeGroup resolves the stripe group server indices.
func stripeGroup(cfg machine.Config, spec Spec) []int {
	n := spec.StripeGroup
	if n == 0 {
		n = cfg.IONodes
	}
	group := make([]int, n)
	for i := range group {
		group[i] = i
	}
	return group
}
