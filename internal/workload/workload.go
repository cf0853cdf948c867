// Package workload implements the synthetic workload programs of the
// paper's evaluation: SPMD readers that open a shared PFS file in one of
// the I/O modes and stream through it, optionally "computing" (delaying)
// between reads to form the balanced workloads of Section 4.2, and
// optionally running under the prefetching prototype.
package workload

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"

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
	res.Fault.DownWaits = fs.DownWaits
	res.Fault.Unavailable = fs.Unavailable
	res.Fault.AbandonedBytes = fs.AbandonedBytes
	res.Fault.MeshDropped = m.Mesh.Dropped
	if res.Prefetch != nil {
		res.Fault.Retired = res.Prefetch.Retired
	}
	for _, s := range m.Servers {
		res.Fault.Shed += s.Shed
		res.Fault.ServerFaults += s.Faults
		res.Fault.NodeCrashes += s.Crashes
		res.Fault.NodeRestarts += s.Restarts
		res.Fault.NodeDropped += s.Dropped
	}
	for _, a := range m.Arrays {
		for _, d := range a.Members() {
			res.Fault.DiskTransient += d.TransientErrors
			res.Fault.DiskPermanent += d.PermanentErrors
		}
		res.Fault.MemberFails += a.MemberFails
		res.Fault.ArrayDegraded += a.DegradedReads
		res.Fault.RebuildIOs += a.RebuildIOs
		res.Fault.RebuildBytes += a.RebuildBytes
	}
}

// Run builds a machine from cfg, lays out the file(s), and drives one
// closed-loop reader per compute node until every node has consumed its
// share of the data. The readers are callback state machines (see
// reader): the run starts no process.
func Run(cfg machine.Config, spec Spec) (*Result, error) {
	if err := validate(cfg, &spec); err != nil {
		return nil, err
	}
	if spec.Prefetch != nil && spec.ServerSide != nil {
		return nil, fmt.Errorf("workload: Prefetch and ServerSide are mutually exclusive")
	}
	if spec.Buffered {
		cfg.PFS.FastPath = false
	}
	m := machine.Build(cfg)
	defer m.Close()
	res := newResult(m, cfg.ComputeNodes, spec.Trace)
	res.Spec = spec

	group := make([]int, cmp.Or(spec.StripeGroup, cfg.IONodes))
	for i := range group {
		group[i] = i
	}
	su := cmp.Or(spec.StripeUnit, cfg.PFS.StripeUnit)

	switch {
	case spec.Prefetch != nil:
		pcfg := *spec.Prefetch
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
		res.Prefetch = newPrefetcher(m, pcfg, spec.Trace)
	case spec.ServerSide != nil:
		res.ServerSide = prefetch.NewServerSide(m.K, *spec.ServerSide)
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

	readers := make([]reader, nodes)
	for i := range readers {
		readers[i] = reader{m: m, res: res, og: og, rank: i}
		m.K.AfterCall(0, readerStart, &readers[i])
	}
	if err := m.Run(); err != nil {
		return nil, err
	}
	res.Engine = m.K.Stats()
	// A reader that never finished waits on a collective round or a
	// broadcast that cannot complete, and no process is left blocked to
	// report it: name each such node.
	var stuck []string
	for i := range readers {
		if !readers[i].over {
			stuck = append(stuck, strconv.Itoa(i))
		}
	}
	if stuck != nil {
		return nil, fmt.Errorf("workload: deadlock: node(s) %s blocked with no pending events at %v",
			strings.Join(stuck, ", "), m.K.Now())
	}
	for i := range readers {
		if err := readers[i].err; err != nil {
			return nil, fmt.Errorf("workload: node %d: %w", i, err)
		}
	}
	res.DeliveryDigests = make([]uint64, nodes)
	if spec.RecordDeliveries {
		res.Deliveries = make([][]pfs.Delivery, nodes)
	}
	for i := range readers {
		r := &readers[i]
		res.UnavailableReads += r.unavReads
		res.UnavailableBytes += r.unavBytes
		res.NodeUnavailableBytes[i] = r.unavBytes
		res.Elapsed = max(res.Elapsed, res.NodeTimes[i])
		res.addFile(i, r.f)
		if spec.RecordDeliveries {
			res.Deliveries[i] = r.f.Deliveries()
		}
	}
	res.finish(m)
	return res, nil
}

// newResult is the set-up Run and RunQoS share: a result for a run on m
// with nodes compute nodes, and the machine's trace.
func newResult(m *machine.Machine, nodes int, tr *trace.Log) *Result {
	if tr != nil {
		m.SetTrace(tr)
		m.FS.SetTrace(tr)
	}
	return &Result{Machine: m, NodeTimes: make([]sim.Time, nodes),
		NodeUnavailableBytes: make([]int64, nodes)}
}

// newPrefetcher builds the run's client prefetcher, tracing into the
// run's log unless its config names one.
func newPrefetcher(m *machine.Machine, pcfg prefetch.Config, tr *trace.Log) *prefetch.Prefetcher {
	if tr != nil && pcfg.Trace == nil {
		pcfg.Trace = tr
	}
	return prefetch.New(m.K, pcfg)
}

// addFile accounts open instance f's reads, as the result's i-th
// delivery digest.
func (res *Result) addFile(i int, f *pfs.File) {
	res.TotalBytes += f.BytesRead
	res.ReadCalls += f.ReadCalls
	res.IOBytes += f.IOBytes
	res.DeliveryDigests[i] = f.DeliveryDigest()
	f.ReadTime.Each(res.ReadTime.Observe)
}

// finish fills the run-wide figures once Elapsed is known: the
// bandwidth, the token contention and the fault counters.
func (res *Result) finish(m *machine.Machine) {
	res.Bandwidth = stats.MBps(res.TotalBytes, res.Elapsed)
	res.TokenOps = m.FS.TokenOps
	res.TokenWaits = m.FS.TokenWaits
	res.TokenWaitTime = m.FS.TokenWaitTime
	collectFaults(res, m)
}

// tolerate classifies a failed read under the spec's unavailable policy.
// It returns true — after counting the read as requested-but-undelivered
// at the spec's request size — when the loop should move to the next
// offset. (Crash scenarios use file sizes that divide evenly into
// requests, so the request size is the exact loss.)
func (r *reader) tolerate(err error) bool {
	spec := &r.res.Spec
	if !spec.ContinueOnUnavailable || !errors.Is(err, pfs.ErrUnavailable) {
		return false
	}
	r.unavReads++
	r.unavBytes += spec.RequestSize
	return true
}

// reader is one compute node's closed-loop read loop, a callback state
// machine: it opens the node's file, reads with the compute delay
// between consecutive reads, and closes the file when the loop ends.
// Pointer and separate-file loops read until end of file, so the read
// that meets it pays a compute delay too. M_ASYNC loops seek to each
// offset of the spec's pattern and end once the node's share is read.
type reader struct {
	m     *machine.Machine
	res   *Result
	og    *pfs.OpenGroup
	rank  int
	f     *pfs.File
	async bool       // M_ASYNC on the shared file
	rng   *rand.Rand // the Random pattern's draws
	i     int64      // reads made
	off   int64      // where the next M_ASYNC read seeks to
	err   error
	over  bool // the loop has ended

	unavReads, unavBytes int64 // reads lost to dead I/O nodes, and their bytes
}

// readerStart opens the node's file, attaches the run's prefetch
// service, and makes the first read.
func readerStart(a any) {
	r := a.(*reader)
	spec := &r.res.Spec
	name, mode := spec.File, spec.Mode
	if spec.SeparateFiles {
		name, mode = fmt.Sprintf("%s.%d", spec.File, r.rank), pfs.MAsync
	}
	f, err := r.m.FS.Open(name, r.m.Compute[r.rank], mode, r.og)
	if err != nil {
		r.err, r.over = err, true
		return
	}
	r.f = f
	if spec.RecordDeliveries {
		f.EnableDeliveryLog()
	}
	if pf := r.res.Prefetch; pf != nil {
		pf.Attach(f)
	}
	if ss := r.res.ServerSide; ss != nil {
		ss.Attach(f)
	}
	r.async = mode == pfs.MAsync && !spec.SeparateFiles
	if r.async {
		switch spec.Pattern {
		case Random:
			r.rng = PatternRNG(*spec, r.rank)
		case Interleaved, Partitioned, Strided:
		default:
			r.end(fmt.Errorf("workload: unknown pattern %v", spec.Pattern))
			return
		}
	}
	r.next()
}

// next makes the node's next read, after the compute delay unless it is
// the first, or ends an M_ASYNC loop whose offsets have run out.
func (r *reader) next() {
	i := r.i
	r.i++
	if r.async {
		var more bool
		if r.off, more = r.offset(i); !more {
			r.end(nil)
			return
		}
	}
	if d := r.res.Spec.ComputeDelay; i > 0 && d > 0 {
		r.m.K.AfterCall(d, readerRead, r)
		return
	}
	r.read()
}

// offset is the i-th offset of the node's M_ASYNC pattern; false once
// the node's share is read.
func (r *reader) offset(i int64) (int64, bool) {
	spec := &r.res.Spec
	req, size := spec.RequestSize, r.f.Size()
	parties, rank := int64(len(r.res.NodeTimes)), int64(r.rank)
	switch spec.Pattern {
	case Partitioned:
		share := size / parties
		return rank*share + i*req, i*req < share
	case Random:
		if i >= size/req/parties {
			return 0, false
		}
		return min(r.rng.Int63n(size/req)*req, size-req), true
	default: // Interleaved is Strided with a stride of one.
		stride := int64(1)
		if spec.Pattern == Strided && spec.Stride > 1 {
			stride = int64(spec.Stride)
		}
		off := (i*parties + rank) * stride * req
		return off, off < size
	}
}

// readerRead runs when the compute delay has passed.
func readerRead(a any) { a.(*reader).read() }

func (r *reader) read() {
	if r.async {
		if err := r.f.SeekTo(r.off); err != nil {
			r.end(err)
			return
		}
	}
	r.f.ReadCall(r.res.Spec.RequestSize, readerDone, r)
}

// readerDone takes a read's outcome: end of file ends a pointer loop
// (an M_ASYNC loop moves on), as does an error the spec does not
// tolerate. A tolerated unavailable read consumed its round or claim,
// so a shared-pointer loop that goes on stays in step with the other
// parties.
func readerDone(a any, _ int64, err error) {
	r := a.(*reader)
	switch {
	case err == io.EOF:
		if !r.async {
			r.end(nil)
			return
		}
	case err != nil && !r.tolerate(err):
		r.end(err)
		return
	}
	r.next()
}

// end ends the node's loop with err: its completion time, then the
// file's close.
func (r *reader) end(err error) {
	r.err, r.over = err, true
	r.res.NodeTimes[r.rank] = r.m.K.Now()
	if cerr := r.f.Close(); cerr != nil && r.err == nil {
		r.err = cerr
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
