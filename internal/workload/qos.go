package workload

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/ionode"
	"repro/internal/machine"
	"repro/internal/pfs"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// QoSSpec describes one open-loop multi-tenant run: Tenants independent
// users, each with its own open file instance, issuing positioned reads
// on a heavy-tailed arrival schedule that does NOT wait for completions
// (arrivals are spawned, never blocked — the open-loop property that
// makes overload possible).
//
// Every random quantity is a pure function of (Seed, tenant, k) through
// qosRand, so the schedule is bit-identical run to run and needs no
// shared RNG state:
//
//   - per-tenant demand: the request count is Requests scaled by a
//     bounded Pareto factor in [1,8) — a few tenants are bursty whales;
//   - per-tenant file: one Zipf draw over Files (rank r has probability
//     ∝ 1/(r+1)) — popular files are shared by many tenants;
//   - interarrival gaps: bounded Pareto with shape 1.5 and scale
//     MeanGap/3 (mean ≈ MeanGap), the classic heavy-tailed arrival
//     process;
//   - offsets: wrapping-sequential within the tenant's file from a
//     hashed base, so prefetchers have something to predict.
type QoSSpec struct {
	Tenants     int
	Files       int   // file-popularity universe (each FileSize bytes)
	FileSize    int64 // bytes per file
	RequestSize int64 // bytes per positioned read
	Requests    int   // base requests per tenant (Pareto-scaled up to 8x)

	// MeanGap is the mean interarrival gap per tenant. Offered load is
	// roughly Tenants*RequestSize/MeanGap bytes/s; shrink it to push
	// the machine into overload.
	MeanGap sim.Time

	Seed int64

	// SLO, when non-zero, counts requests whose latency met it.
	SLO sim.Time

	// Prefetch attaches the client prefetcher to every PrefetchEvery-th
	// tenant (tenant 0, PrefetchEvery, ...), the interference probe:
	// does one tenant's readahead help it by hurting the others' tails?
	// nil (or PrefetchEvery <= 0) disables it.
	Prefetch      *prefetch.Config
	PrefetchEvery int

	// Trace, when non-nil, receives the run's timeline (arrivals are
	// emitted as QoSArrival events, admission sheds as QoSShed).
	Trace *trace.Log
}

// TenantStats is one tenant's ledger: the client-side view (requests,
// completions, latency, delivered bytes) and the server-side view
// (summed over I/O nodes), which the simcheck conservation oracle
// cross-foots.
type TenantStats struct {
	Weight int // scheduler weight the run used

	// Client side.
	Requests   int64 // arrivals in the tenant's schedule
	Done       int64 // completed successfully
	Throttled  int64 // failed with ionode.ErrThrottled (admission)
	Overloaded int64 // failed with ionode.ErrOverloaded (breaker)
	Failed     int64 // failed with any other error
	Bytes      int64 // bytes delivered to the tenant
	SLOMet     int64 // completions within QoSSpec.SLO
	SumLatency sim.Time
	MaxLatency sim.Time

	// Cross-stack byte accounting (client side of the conservation
	// oracle): bytes pulled over the stripe path for this tenant, and
	// its shares of late/abandoned bytes.
	IOBytes        int64
	LateBytes      int64
	AbandonedBytes int64

	// Server side, summed over all I/O nodes.
	SrvArrived int64
	SrvServed  int64
	SrvShed    int64
	SrvFaulted int64
	SrvDropped int64
	SrvBytes   int64 // bytes served; == IOBytes + LateBytes + AbandonedBytes
}

// QoSResult is the open-loop run's QoS ledger, attached to Result.QoS
// and folded into the fingerprint.
type QoSResult struct {
	Tenants []TenantStats
	Latency stats.Histogram // successful request latency, seconds

	Arrivals   int64 // total requests spawned
	Throttled  int64
	Overloaded int64
	Failed     int64
	SLO        sim.Time
	SLOMet     int64
}

// qosRand is the pure hash every QoS draw comes from: a splitmix64-style
// finalizer over (Seed, tenant, k, salt). No state, no draw order.
func qosRand(seed int64, tenant, k int, salt uint64) uint64 {
	x := uint64(seed)*0x27BB2EE687B0B0FD + uint64(tenant)*0x9E3779B97F4A7C15 + uint64(k)*0xD6E8FEB86659FD93 + salt
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Salts decorrelate the draw families.
const (
	qosSaltCount = 0xC0DE0001
	qosSaltFile  = 0xC0DE0002
	qosSaltBase  = 0xC0DE0003
	qosSaltGap   = 0xC0DE0004
)

// u01 maps a hash to (0,1] — never exactly zero, so inverse-power draws
// stay finite.
func u01(h uint64) float64 {
	return (float64(h>>11) + 1) / (1 << 53)
}

// qosCount is tenant t's request count: Requests scaled by a bounded
// Pareto factor u^-1/2 capped at 8 — most tenants near the base, a few
// whales near 8x.
func qosCount(spec QoSSpec, t int) int {
	u := u01(qosRand(spec.Seed, t, 0, qosSaltCount))
	mult := math.Pow(u, -0.5)
	if mult > 8 {
		mult = 8
	}
	n := int(float64(spec.Requests) * mult)
	if n < 1 {
		n = 1
	}
	return n
}

// qosGap is the k-th interarrival gap of tenant t: bounded Pareto with
// shape 1.5, scale MeanGap/3 (mean ≈ MeanGap), capped at 100 scales.
func qosGap(spec QoSSpec, t, k int) sim.Time {
	if spec.MeanGap <= 0 {
		return 0
	}
	xm := float64(spec.MeanGap) / 3
	u := u01(qosRand(spec.Seed, t, k, qosSaltGap))
	g := xm * math.Pow(u, -1/1.5)
	if max := xm * 100; g > max {
		g = max
	}
	return sim.Time(g)
}

// zipfCDF builds the cumulative Zipf-1 distribution over n files (rank r
// weighted 1/(r+1)), a pure function of n.
func zipfCDF(n int) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for r := 0; r < n; r++ {
		sum += 1 / float64(r+1)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	return cdf
}

// qosFile is tenant t's file: one Zipf draw over the popularity CDF.
func qosFile(spec QoSSpec, t int, cdf []float64) int {
	u := u01(qosRand(spec.Seed, t, 0, qosSaltFile))
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// RunQoS builds the machine and drives one open-loop multi-tenant run.
// cfg.Fair.Tenants is forced to spec.Tenants (the scheduler and the
// workload must agree on the tenant universe); every other Fair knob —
// weights, slots, admission rate, the FIFO twin flag — is the caller's.
func RunQoS(cfg machine.Config, spec QoSSpec) (*Result, error) {
	if err := validateQoS(&spec); err != nil {
		return nil, err
	}
	cfg.Fair.Tenants = spec.Tenants
	m := machine.Build(cfg)
	defer m.Close()
	res := &Result{Machine: m, NodeTimes: make([]sim.Time, cfg.ComputeNodes)}
	qr := &QoSResult{Tenants: make([]TenantStats, spec.Tenants), SLO: spec.SLO}
	res.QoS = qr

	if spec.Trace != nil {
		m.SetTrace(spec.Trace)
		m.FS.SetTrace(spec.Trace)
	}

	var pf *prefetch.Prefetcher
	if spec.Prefetch != nil && spec.PrefetchEvery > 0 {
		pcfg := *spec.Prefetch
		if spec.Trace != nil && pcfg.Trace == nil {
			pcfg.Trace = spec.Trace
		}
		pf = prefetch.New(m.K, pcfg)
		res.Prefetch = pf
	}

	if err := m.FS.Mkdir("qos"); err != nil {
		return nil, err
	}
	for i := 0; i < spec.Files; i++ {
		if err := m.FS.Create(fmt.Sprintf("qos/%d", i), spec.FileSize); err != nil {
			return nil, err
		}
	}

	cdf := zipfCDF(spec.Files)
	units := spec.FileSize / spec.RequestSize
	files := make([]*pfs.File, spec.Tenants)
	var openErr error
	for t := 0; t < spec.Tenants; t++ {
		node := m.Compute[t%cfg.ComputeNodes]
		f, err := m.FS.Open(fmt.Sprintf("qos/%d", qosFile(spec, t, cdf)), node, pfs.MAsync, nil)
		if err != nil {
			return nil, err
		}
		f.SetTenant(t)
		if pf != nil && t%spec.PrefetchEvery == 0 {
			pf.Attach(f)
		}
		files[t] = f
		qr.Tenants[t].Weight = cfg.Fair.Weight(t)
	}

	// The arrivals. Each tenant's arrival state machine walks its
	// heavy-tailed gap sequence and starts a reader per request; readers
	// run concurrently and never delay the next arrival. Their
	// interleaving is the kernel's deterministic event order.
	d := &qosDriver{k: m.K, spec: spec, qr: qr, units: units}
	for t := 0; t < spec.Tenants; t++ {
		ten := &qosTenant{d: d, t: t, f: files[t], st: &qr.Tenants[t],
			count:    qosCount(spec, t),
			base:     int64(qosRand(spec.Seed, t, 0, qosSaltBase) % uint64(units)),
			prefetch: pf != nil && t%spec.PrefetchEvery == 0}
		m.K.AfterCall(0, qosArrivals, ten)
	}
	if err := m.Run(); err != nil {
		return nil, err
	}
	res.Engine = m.K.Stats()

	res.DeliveryDigests = make([]uint64, spec.Tenants)
	res.NodeUnavailableBytes = make([]int64, cfg.ComputeNodes)
	for t, f := range files {
		st := &qr.Tenants[t]
		st.IOBytes = f.IOBytes
		st.LateBytes = m.FS.TenantLateBytes(t)
		st.AbandonedBytes = m.FS.TenantAbandonedBytes(t)
		for _, s := range m.Servers {
			st.SrvArrived += s.TenantArrived[t]
			st.SrvServed += s.TenantServed[t]
			st.SrvShed += s.TenantShed[t]
			st.SrvFaulted += s.TenantFaulted[t]
			st.SrvDropped += s.TenantDropped[t]
			st.SrvBytes += s.TenantBytes[t]
		}
		res.TotalBytes += f.BytesRead
		res.ReadCalls += f.ReadCalls
		res.IOBytes += f.IOBytes
		res.DeliveryDigests[t] = f.DeliveryDigest()
		f.ReadTime.Each(res.ReadTime.Observe)
		if err := f.Close(); err != nil && openErr == nil {
			openErr = err
		}
	}
	if openErr != nil {
		return nil, openErr
	}
	res.Elapsed = d.elapsed
	res.Bandwidth = stats.MBps(res.TotalBytes, res.Elapsed)
	res.TokenOps = m.FS.TokenOps
	res.TokenWaits = m.FS.TokenWaits
	res.TokenWaitTime = m.FS.TokenWaitTime
	collectFaults(res, m)
	return res, nil
}

// qosDriver is the state the arrival and reader callbacks of one RunQoS
// share: the spec, the ledger, and a free list of request structs.
type qosDriver struct {
	k       *sim.Kernel
	spec    QoSSpec
	qr      *QoSResult
	units   int64 // requests that fit in a file
	elapsed sim.Time
	free    []*qosReq
}

// qosTenant is one tenant's arrival state machine: the k-th arrival is
// due once gap k has passed since arrival k-1 (or the start).
type qosTenant struct {
	d        *qosDriver
	t        int
	f        *pfs.File
	st       *TenantStats
	count    int   // arrivals in the tenant's schedule
	base     int64 // first request's index in the file
	k        int   // next arrival
	prefetch bool  // the file has the prefetcher, whose reads block a process
}

// qosReq is one arrival's read, pooled on the driver.
type qosReq struct {
	ten   *qosTenant
	off   int64
	start sim.Time
}

// qosArrivals starts a tenant's arrivals.
func qosArrivals(a any) { a.(*qosTenant).run() }

// qosArrivalDue runs when a gap has passed: the arrival it delayed, then
// the ones after it.
func qosArrivalDue(a any) {
	ten := a.(*qosTenant)
	ten.arrive()
	ten.run()
}

// run makes the arrivals due now and books the next positive gap. A zero
// gap books nothing: that arrival happens in the same event.
func (ten *qosTenant) run() {
	for ten.k < ten.count {
		if g := qosGap(ten.d.spec, ten.t, ten.k); g > 0 {
			ten.d.k.AfterCall(g, qosArrivalDue, ten)
			return
		}
		ten.arrive()
	}
}

// arrive makes arrival k and starts its reader with one zero-delay
// event: a callback read, or on a prefetch-attached file a process,
// since the prefetcher's ServeRead blocks one.
func (ten *qosTenant) arrive() {
	d, spec, k := ten.d, &ten.d.spec, ten.k
	ten.k++
	off := ((ten.base + int64(k)) % d.units) * spec.RequestSize
	ten.st.Requests++
	d.qr.Arrivals++
	if spec.Trace != nil {
		spec.Trace.Add(trace.Event{T: d.k.Now(), Kind: trace.QoSArrival, Node: ten.t, N: spec.RequestSize})
	}
	if ten.prefetch {
		d.k.Go(fmt.Sprintf("qos-rd%d.%d", ten.t, k), func(p *sim.Proc) {
			start := p.Now()
			n, err := ten.f.ReadAt(p, off, spec.RequestSize)
			d.complete(ten, start, n, err)
		})
		return
	}
	var req *qosReq
	if n := len(d.free); n > 0 {
		req = d.free[n-1]
		d.free = d.free[:n-1]
	} else {
		req = &qosReq{}
	}
	req.ten, req.off = ten, off
	d.k.AfterCall(0, qosReadStart, req)
}

// qosReadStart is a callback reader's start.
func qosReadStart(a any) {
	req := a.(*qosReq)
	req.start = req.ten.d.k.Now()
	req.ten.f.ReadAtCall(req.off, req.ten.d.spec.RequestSize, qosReadDone, req)
}

// qosReadDone is a callback read's completion; it frees the request.
func qosReadDone(a any, n int64, err error) {
	req := a.(*qosReq)
	ten, start := req.ten, req.start
	d := ten.d
	req.ten = nil
	d.free = append(d.free, req)
	d.complete(ten, start, n, err)
}

// complete accounts one finished read, started at start, to its tenant.
func (d *qosDriver) complete(ten *qosTenant, start sim.Time, n int64, err error) {
	st, qr, now := ten.st, d.qr, d.k.Now()
	lat := now - start
	switch {
	case err == nil:
		st.Done++
		st.Bytes += n
		st.SumLatency += lat
		if lat > st.MaxLatency {
			st.MaxLatency = lat
		}
		qr.Latency.ObserveTime(lat)
		if d.spec.SLO > 0 && lat <= d.spec.SLO {
			st.SLOMet++
			qr.SLOMet++
		}
	case errors.Is(err, ionode.ErrThrottled):
		st.Throttled++
		qr.Throttled++
	case errors.Is(err, ionode.ErrOverloaded):
		st.Overloaded++
		qr.Overloaded++
	default:
		st.Failed++
		qr.Failed++
	}
	if now > d.elapsed {
		d.elapsed = now
	}
}

// validateQoS fills defaults and rejects nonsense.
func validateQoS(spec *QoSSpec) error {
	if spec.Tenants <= 0 {
		return fmt.Errorf("workload: qos needs tenants, got %d", spec.Tenants)
	}
	if spec.Files <= 0 {
		return fmt.Errorf("workload: qos needs files, got %d", spec.Files)
	}
	if spec.RequestSize <= 0 || spec.FileSize < spec.RequestSize {
		return fmt.Errorf("workload: qos request %d outside file %d", spec.RequestSize, spec.FileSize)
	}
	if spec.Requests <= 0 {
		return fmt.Errorf("workload: qos needs requests per tenant, got %d", spec.Requests)
	}
	if spec.MeanGap < 0 {
		return fmt.Errorf("workload: qos mean gap %v negative", spec.MeanGap)
	}
	return nil
}
