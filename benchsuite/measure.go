package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/stats"
	"repro/internal/workload"
)

// options sets how long a measurement runs.
type options struct {
	seconds float64 // timed phase length (split in half when tracing)
	reps    int     // > 0: exactly this many timed repetitions instead
	trace   bool    // add a CPU-profiled phase and report the ledger
	div     int64   // workload size divisor (1 = benchmark size)

	setupPasses int           // set-up passes; setup_s is their median
	passMin     time.Duration // minimum length of one pass
	profileCPU  float64       // CPU seconds the profiled phase runs at least
}

// minReps is the fewest timed repetitions a run makes. max_rss_mb is read
// after the minReps-th.
const minReps = 5

// metric is one reported number with its sample count.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
}

// report is everything one workload measurement produced.
type report struct {
	Workload    string        `json:"workload"`
	Seed        int64         `json:"seed"`
	NumCPU      int           `json:"num_cpu"`
	GOMAXPROCS  int           `json:"gomaxprocs"`
	Reps        int           `json:"reps"` // timed untraced repetitions
	Fingerprint string        `json:"fingerprint"`
	RepWalls    []float64     `json:"rep_walls"`    // each timed repetition's wall seconds, in order
	RepSlowdown []float64     `json:"rep_slowdown"` // the host's slowdown around each
	SetupPasses []float64     `json:"setup_passes"` // each set-up pass's mean set-up, scaled seconds
	Metrics     []metric      `json:"metrics"`      // end-to-end, then (traced) the ledger
	Spans       []spanSummary `json:"spans,omitempty"`
	Error       string        `json:"error,omitempty"`
}

// value returns the named metric and whether the report has it.
func (r *report) value(name string) (float64, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// runner carries one workload measurement's state across repetitions.
type runner struct {
	def   workloadDef
	p     plan
	spans *spanLog
	hp    *hostProbe
	fp    uint64 // the first repetition's fingerprint; every later one must match
	haveF bool
}

// measure runs def for seed: set-up passes, one warm-up repetition, the
// timed repetitions, and when tracing a CPU-profiled phase. A failed run
// or a failed output check returns the error with whatever the report
// gathered so far.
func measure(def workloadDef, seed int64, opt options) (*report, error) {
	r := &runner{def: def, p: def.plan(seed, opt.div), spans: newSpanLog()}
	rep := &report{
		Workload:   def.name,
		Seed:       seed,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	vals := map[string]float64{}
	counts := map[string]int{}
	put := func(name string, v float64, n int) { vals[name], counts[name] = v, n }

	// The probe's table is resident before anything else runs, so the
	// peak RSS holds all of it.
	hp, err := newHostProbe()
	if err != nil {
		return rep, err
	}
	defer hp.close()
	r.hp = hp

	// Set-up first, while the heap holds nothing else.
	setup, err := r.setupPasses(opt.setupPasses, opt.passMin)
	if err != nil {
		return rep, err
	}
	rep.SetupPasses = setup.setup
	put("setup_s", median(setup.setup), len(setup.setup))

	_, warm, err := r.rep("warmup")
	if err != nil {
		return rep, err
	}
	rep.Fingerprint = fmt.Sprintf("%016x", r.fp)
	var reads int64
	if res := warm.res; res != nil {
		var sim []metric
		reads, sim = simulated(res)
		for _, m := range sim {
			put(m.Name, m.Value, m.N)
		}
		if opt.trace {
			for name, v := range counters(res, reads) {
				put(name, v, 1)
			}
		}
	} else {
		sim, err := paperSimulated(warm.tables)
		if err != nil {
			return rep, err
		}
		for _, m := range sim {
			put(m.Name, m.Value, m.N)
		}
	}

	budget := opt.seconds
	if opt.trace {
		budget /= 2
	}
	untraced, err := r.phase("rep", budget, opt.reps, minReps, 0, true)
	rep.Reps = len(untraced)
	if err != nil {
		return rep, err
	}
	rep.RepWalls = pick(untraced, func(s hostSample) float64 { return s.wall })
	rep.RepSlowdown = pick(untraced, func(s hostSample) float64 { return s.slowdown })
	wall := median(pick(untraced, func(s hostSample) float64 { return s.wall / s.slowdown }))
	put("wall_s", wall, len(untraced))
	if reads > 0 {
		put("reads_per_s", float64(reads)/wall, len(untraced))
	}
	// The process's peak RSS through a fixed amount of work: the set-up
	// passes, the warm-up and the first minReps timed repetitions.
	if len(untraced) >= minReps {
		put("max_rss_mb", untraced[minReps-1].maxRSS-probeResidentMiB, 1)
	}
	if opt.trace {
		var tot hostSample
		for _, s := range untraced {
			tot.add(s)
		}
		n := float64(len(untraced))
		put("runtime.gc_cpu_frac", tot.gcCPU/tot.busyCPU, len(untraced))
		put("runtime.gc_cycles", tot.gcCycles/n, len(untraced))
		put("runtime.cpu_per_wall", tot.cpu/tot.wall, len(untraced))
		if reads > 0 {
			put("runtime.allocs_per_read", tot.allocs/n/float64(reads), len(untraced))
			put("runtime.alloc_bytes_per_read", tot.allocBytes/n/float64(reads), len(untraced))
		}
		put("machine.build_s", median(setup.build), len(setup.build))
		put("pfs.layout_s", median(setup.layout), len(setup.layout))

		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return rep, fmt.Errorf("starting CPU profile: %w", err)
		}
		if opt.reps > 0 {
			budget = 0 // a fixed repetition count: profile just long enough
		}
		// Unprobed, so that the profile holds only the workload.
		traced, err := r.phase("traced-rep", budget, 0, 1, opt.profileCPU, false)
		pprof.StopCPUProfile()
		if err != nil {
			return rep, err
		}
		frac, samples, err := cpuByLayer(prof.Bytes())
		if err != nil {
			return rep, err
		}
		for layer, f := range frac {
			put(layer+".cpu_frac", f, int(samples))
		}
		put("trace.profile_samples", float64(samples), 1)
		rawWall := median(rep.RepWalls)
		put("trace.overhead_frac", median(pick(traced, func(s hostSample) float64 { return s.wall }))/rawWall-1, len(traced))
		put("host.raw_wall_s", rawWall, len(untraced))
		put("host.slowdown", median(rep.RepSlowdown), len(untraced))
		rep.Spans = r.spans.summary()
	}

	for _, u := range unitOf {
		if v, ok := vals[u.name]; ok {
			rep.Metrics = append(rep.Metrics, metric{Name: u.name, Unit: u.unit, Value: v, N: counts[u.name]})
		}
	}
	return rep, nil
}

// setupTimes holds one value per set-up pass: the mean seconds of one
// whole set-up, of its machine build, and of its file layout, scaled to
// the reference host speed.
type setupTimes struct{ setup, build, layout []float64 }

// setupPasses times passes of back-to-back set-ups, each at least
// minPass long and bracketed by host probe samples: one 8+8 build takes
// about 1.5 ms, too short for a single clock reading to mean much.
func (r *runner) setupPasses(passes int, minPass time.Duration) (setupTimes, error) {
	var st setupTimes
	before := r.hp.sample()
	for i := 0; i < passes; i++ {
		runtime.GC() // each pass starts from the same heap
		first := len(r.spans.list)
		start := time.Now()
		n := 0
		for n == 0 || time.Since(start) < minPass {
			if err := r.setUp(); err != nil {
				return st, err
			}
			n++
		}
		sum := map[string]time.Duration{}
		for _, s := range r.spans.list[first:] {
			sum[s.name] += s.end - s.start
		}
		after := r.hp.sample()
		slowdown := (before + after) / 2
		before = after
		mean := func(name string) float64 { return sum[name].Seconds() / float64(n) / slowdown }
		st.setup = append(st.setup, mean("setup"))
		st.build = append(st.build, mean("build"))
		st.layout = append(st.layout, mean("layout"))
	}
	return st, nil
}

// setUp builds the plan's machine and lays out its files — the work every
// run of the workload does before its first event — under a setup span
// with build and layout children.
func (r *runner) setUp() error {
	top := r.spans.begin("setup", -1)
	defer r.spans.end(top)
	cfg := r.p.cfg
	if q := r.p.qos; q != nil {
		cfg.Fair.Tenants = q.Tenants // as workload.RunQoS sets it
	}
	b := r.spans.begin("build", top)
	m := machine.Build(cfg)
	r.spans.end(b)
	l := r.spans.begin("layout", top)
	defer r.spans.end(l)
	return layOut(m, r.p)
}

// layOut creates the plan's files on m as workload.RunQoS and
// workload.Run lay them out. It has only the branches the suite's
// workloads take (TestLayOutMatchesRuns compares the results) and refuses
// any spec that would take another.
func layOut(m *machine.Machine, p plan) error {
	if q := p.qos; q != nil {
		if err := m.FS.Mkdir("qos"); err != nil {
			return err
		}
		for i := 0; i < q.Files; i++ {
			if err := m.FS.Create(fmt.Sprintf("qos/%d", i), q.FileSize); err != nil {
				return err
			}
		}
		return nil
	}
	s := p.spec
	if s.StripeUnit != 0 || s.StripeGroup != 0 || s.SeparateFiles && p.cfg.PFS.GroupWidth == 0 {
		return fmt.Errorf("layOut: %s takes a layout branch of workload.Run the suite does not copy", s.File)
	}
	if s.SeparateFiles {
		// Tiled private files: each takes the next GroupWidth-wide tile.
		share := s.FileSize / int64(p.cfg.ComputeNodes)
		for i := 0; i < p.cfg.ComputeNodes; i++ {
			if err := m.FS.Create(fmt.Sprintf("%s.%d", s.File, i), share); err != nil {
				return err
			}
		}
		return nil
	}
	group := make([]int, p.cfg.IONodes)
	for i := range group {
		group[i] = i
	}
	return m.FS.CreateStriped(s.File, s.FileSize, p.cfg.PFS.StripeUnit, group)
}

// outcome is one repetition's product.
type outcome struct {
	fp     uint64                  // Result.Fingerprint, or the rendered tables' digest
	res    *workload.Result        // nil for paper-repro
	tables map[string]*stats.Table // paper-repro's tables by experiment id
}

// execute runs the plan once.
func execute(p plan) (outcome, error) {
	switch {
	case p.paper != nil:
		h := fnv.New64a()
		tables := map[string]*stats.Table{}
		for _, id := range paperIDs {
			e, err := experiments.Find(id)
			if err != nil {
				return outcome{}, err
			}
			t, err := e.Run(*p.paper)
			if err != nil {
				return outcome{}, fmt.Errorf("%s: %w", id, err)
			}
			if err := t.Render(h); err != nil {
				return outcome{}, fmt.Errorf("%s: %w", id, err)
			}
			tables[id] = t
		}
		return outcome{fp: h.Sum64(), tables: tables}, nil
	case p.qos != nil:
		res, err := workload.RunQoS(p.cfg, *p.qos)
		return outcome{res: res}, err
	default:
		res, err := workload.Run(p.cfg, p.spec)
		return outcome{res: res}, err
	}
}

// rep runs one repetition under a span with run and verify children and
// returns its host-side sample.
func (r *runner) rep(name string) (hostSample, outcome, error) {
	before := probe()
	top := r.spans.begin(name, -1)
	run := r.spans.begin("run", top)
	out, err := execute(r.p)
	r.spans.end(run)
	if err == nil {
		v := r.spans.begin("verify", top)
		err = r.verify(&out)
		r.spans.end(v)
	}
	r.spans.end(top)
	return probe().since(before), out, err
}

// verify fingerprints the outcome, requires it to equal the first
// repetition's, and checks the result's own books.
func (r *runner) verify(out *outcome) error {
	if out.res != nil {
		out.fp = out.res.Fingerprint()
		if err := check(r.def, r.p, out.res); err != nil {
			return err
		}
	}
	if !r.haveF {
		r.fp, r.haveF = out.fp, true
	} else if out.fp != r.fp {
		return fmt.Errorf("%s: fingerprint %016x differs from the first repetition's %016x", r.def.name, out.fp, r.fp)
	}
	return nil
}

// phase runs timed repetitions: exactly reps of them when reps > 0,
// otherwise until at least least ran, budget seconds passed (probing
// included) and they used minCPU seconds of CPU. When probed, each
// repetition is bracketed by host probe samples.
func (r *runner) phase(name string, budget float64, reps, least int, minCPU float64, probed bool) ([]hostSample, error) {
	var out []hostSample
	var cpu float64
	start := time.Now()
	var before float64
	if probed {
		before = r.hp.sample()
	}
	for {
		if reps > 0 && len(out) == reps ||
			reps <= 0 && len(out) >= least && time.Since(start).Seconds() >= budget && cpu >= minCPU {
			return out, nil
		}
		// Collect the last repetition's garbage outside the timed region,
		// so each repetition starts from the same heap.
		runtime.GC()
		s, _, err := r.rep(name)
		if err != nil {
			return out, err
		}
		if probed {
			after := r.hp.sample()
			s.slowdown = (before + after) / 2
			before = after
		}
		out = append(out, s)
		cpu += s.cpu
	}
}

// hostSample is what one repetition cost the host.
type hostSample struct {
	wall, cpu          float64 // seconds
	allocs, allocBytes float64 // heap allocations (objects, bytes)
	gcCycles           float64
	gcCPU, busyCPU     float64 // runtime/metrics CPU classes: GC, and everything but idle
	maxRSS             float64 // the process's peak RSS so far, MiB (not a difference)
	slowdown           float64 // the host's mean slowdown just before and after (probed phases)
}

func (s *hostSample) add(o hostSample) {
	s.wall += o.wall
	s.cpu += o.cpu
	s.allocs += o.allocs
	s.allocBytes += o.allocBytes
	s.gcCycles += o.gcCycles
	s.gcCPU += o.gcCPU
	s.busyCPU += o.busyCPU
}

// runtimeMetrics are the cumulative runtime/metrics counters a sample
// differences, in hostSample field order after wall and cpu.
var runtimeMetrics = [...]string{
	"/gc/heap/allocs:objects",
	"/gc/heap/tiny/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

// reading is a point-in-time snapshot of the host counters.
type reading struct {
	at     time.Time
	cpu    time.Duration
	maxRSS float64 // MiB
	rt     [len(runtimeMetrics)]float64
}

func probe() reading {
	var rd reading
	samples := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		samples[i].Name = name
	}
	metrics.Read(samples)
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			rd.rt[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			rd.rt[i] = s.Value.Float64()
		}
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	rd.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	rd.maxRSS = float64(ru.Maxrss) / 1024 // Linux reports KiB
	rd.at = time.Now()
	return rd
}

func (rd reading) since(b reading) hostSample {
	d := func(i int) float64 { return rd.rt[i] - b.rt[i] }
	return hostSample{
		wall:       rd.at.Sub(b.at).Seconds(),
		cpu:        (rd.cpu - b.cpu).Seconds(),
		allocs:     d(0) + d(1),
		allocBytes: d(2),
		gcCycles:   d(3),
		gcCPU:      d(4),
		busyCPU:    d(5) - d(6),
		maxRSS:     rd.maxRSS,
	}
}

func pick(ss []hostSample, f func(hostSample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

// median returns the middle value (the mean of the two middle values for
// an even count), or NaN for none.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// span is one timed call the suite made into the program.
type span struct {
	name       string
	parent     int // index of the enclosing span, -1 at the top
	start, end time.Duration
}

// spanLog keeps the suite's spans in memory until the run ends.
type spanLog struct {
	origin time.Time
	list   []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

func (l *spanLog) begin(name string, parent int) int {
	l.list = append(l.list, span{name: name, parent: parent, start: time.Since(l.origin)})
	return len(l.list) - 1
}

func (l *spanLog) end(id int) { l.list[id].end = time.Since(l.origin) }

// spanSummary totals the spans of one name: how many, their summed
// duration, and their self time (duration minus what child spans cover).
type spanSummary struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Total float64 `json:"total_s"`
	Self  float64 `json:"self_s"`
}

func (l *spanLog) summary() []spanSummary {
	children := make([]time.Duration, len(l.list))
	for _, s := range l.list {
		if s.parent >= 0 {
			children[s.parent] += s.end - s.start
		}
	}
	var out []spanSummary
	index := map[string]int{}
	for i, s := range l.list {
		j, ok := index[s.name]
		if !ok {
			j = len(out)
			index[s.name] = j
			out = append(out, spanSummary{Name: s.name})
		}
		d := s.end - s.start
		out[j].Count++
		out[j].Total += d.Seconds()
		out[j].Self += (d - children[i]).Seconds()
	}
	return out
}
