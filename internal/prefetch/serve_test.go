package prefetch

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/machine"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// refServeRead is the process form of ServeReadCall, kept as its
// reference: the body ServeRead had before the port, with its raw reads
// parked on StripeReadCall through the same sim.Resume shim the pfs
// modes use.
func (pf *Prefetcher) refServeRead(p *sim.Proc, f *pfs.File, off, n int64) error {
	var st *adaptState
	if pf.cfg.Adaptive {
		var ok bool
		if st, ok = pf.adapt[f]; !ok {
			st = &adaptState{}
			pf.adapt[f] = st
		}
		if st.seen {
			st.gapEWMA = ewma(st.gapEWMA, (p.Now() - st.lastEnd).Seconds(), st.gapSamples)
			st.gapSamples++
		}
	}
	var (
		err       error
		hitServed bool
		direct    bool
		service   sim.Time
	)
	if e := pf.lookup(f, off, n); e != nil {
		waited := false
		if !e.req.Done.Fired() {
			waited = true
			waitFrom := p.Now()
			e.req.Done.Wait(p)
			pf.WaitTime.ObserveTime(p.Now() - waitFrom)
		}
		err = e.req.Done.Err()
		pf.removeEntry(f, e)
		switch {
		case err != nil:
			pf.Fallbacks++
			ioStart := p.Now()
			err = refStripeRead(p, f, off, n)
			if err == nil {
				pf.BytesDirect += n
				direct, service = true, p.Now()-ioStart
			}
		case waited:
			pf.HitsInWait++
			pf.emit(trace.PrefetchWait, f, off, n)
		default:
			pf.Hits++
			pf.emit(trace.PrefetchHit, f, off, n)
		}
		if err == nil && e.req.Done.Err() == nil {
			f.RecordDelivery(e.off, n)
			pf.BytesCopied += n
			hitServed = true
			if pf.track != nil {
				pf.track.noteConsumed(f, e.src)
			}
			if !pf.cfg.FreeCopy {
				p.Sleep(sim.Time(float64(n) / pf.cfg.MemBandwidth * float64(sim.Second)))
			}
		}
		pf.putEntry(e)
	} else {
		pf.Misses++
		pf.emit(trace.PrefetchMiss, f, off, n)
		ioStart := p.Now()
		err = refStripeRead(p, f, off, n)
		if err == nil {
			pf.BytesDirect += n
			direct, service = true, p.Now()-ioStart
			if st != nil {
				st.serviceEWMA = ewma(st.serviceEWMA, service.Seconds(), st.serviceSamples)
				st.serviceSamples++
			}
		}
	}
	if err != nil {
		return err
	}
	pf.cfg.Predictor.Observe(f, off, n)
	if st == nil || st.allowIssue() {
		pf.refIssue(p, f, off, n)
	} else {
		pf.Throttled++
	}
	if st != nil {
		st.lastEnd = p.Now()
		st.seen = true
	}
	if pf.ctl != nil {
		pf.ctl.observe(hitServed, direct, service)
		if nd, nb, changed := pf.ctl.window(pf.cfg.Depth, pf.cfg.MaxBuffers); changed {
			pf.cfg.Depth, pf.cfg.MaxBuffers = nd, nb
			pf.Retunes++
			pf.emit(trace.PrefetchRetune, f, int64(nd), int64(nb))
		}
	}
	return nil
}

// refIssue is the process form of the read-ahead loop, with the read's
// own span list.
func (pf *Prefetcher) refIssue(p *sim.Proc, f *pfs.File, off, n int64) {
	src := -1
	if pf.track != nil {
		src = pf.track.selectedSource(f)
	}
	for _, span := range pf.cfg.Predictor.Predict(f, off, n, pf.cfg.Depth, nil) {
		if pf.lookup(f, span.Off, 0) != nil {
			continue
		}
		if len(pf.lists[f]) >= pf.cfg.MaxBuffers {
			pf.Skipped++
			continue
		}
		p.Sleep(pf.cfg.IssueOverhead)
		e := pf.getEntry()
		e.off, e.n, e.f, e.src = span.Off, span.N, f, src
		e.req = f.IReadAtReusing(e.req, span.Off, span.N)
		pf.lists[f] = append(pf.lists[f], e)
		e.req.Done.OnFireCall(entryFillDone, e)
		pf.Issued++
		if pf.track != nil {
			pf.track.noteIssued(f, src)
		}
		pf.emit(trace.PrefetchIssue, f, span.Off, span.N)
	}
}

// refStripeRead is a raw stripe read on a process; it records the
// delivery, as the process form's direct reads did.
func refStripeRead(p *sim.Proc, f *pfs.File, off, n int64) error {
	f.StripeReadCall(off, n, sim.Resume, p)
	return p.Park()
}

// serveCase is one configuration the differential test drives.
type serveCase struct {
	name       string
	depth      int
	adaptive   bool
	controller bool
	policy     string
	faults     float64 // transient disk fault rate
}

// serveCounters is the prefetcher's ledger.
type serveCounters struct {
	Issued, Hits, HitsInWait, Misses, Wasted, UnreadAtClose, Skipped int64
	Retired, Fallbacks, Throttled, Retunes, BytesCopied, BytesDirect int64
	Wait                                                             uint64
	Depth, Bufs                                                      int
}

// serveRun is everything the differential test compares.
type serveRun struct {
	reads    []string // per read: node, offset, completion instant, error
	counters serveCounters
	digests  []uint64
	trace    uint64
	executed uint64
	end      sim.Time
}

// runServe drives four M_RECORD readers sharing one Prefetcher over a
// seeded schedule of compute gaps (zero, short, and longer than a read),
// each read through ServeReadCall on the sim.Resume shim or, with ref,
// through refServeRead.
func runServe(t *testing.T, c serveCase, seed int64, ref bool) serveRun {
	t.Helper()
	const (
		nodes    = 4
		rec      = 64 << 10
		fileSize = 4 << 20
	)
	cfg := machine.DefaultConfig()
	cfg.ComputeNodes = nodes
	cfg.IONodes = 4
	cfg.UFS.Fragmentation = 0
	if c.faults > 0 {
		cfg.DiskFaultRate = c.faults
		cfg.DiskFaultTransientFrac = 1
	}
	m := machine.Build(cfg)
	defer m.Close()
	tl := trace.NewLog(1 << 16)
	m.FS.SetTrace(tl)
	pcfg := DefaultConfig()
	pcfg.Depth = c.depth
	pcfg.Adaptive = c.adaptive
	pcfg.Policy = c.policy
	pcfg.Trace = tl
	if c.controller {
		pcfg.Controller = ControllerConfig{Interval: 4}
	}
	pf := New(m.K, pcfg)
	if err := m.FS.Create("f", fileSize); err != nil {
		t.Fatal(err)
	}
	group := pfs.NewOpenGroup(m.K, nodes)
	var run serveRun
	files := make([]*pfs.File, nodes)
	gaps := []sim.Time{0, 0, 2 * sim.Millisecond, 20 * sim.Millisecond, 80 * sim.Millisecond}
	for i := 0; i < nodes; i++ {
		i := i
		rng := rand.New(rand.NewSource(seed*16 + int64(i)))
		m.K.Go("reader", func(p *sim.Proc) {
			f, err := m.FS.Open("f", m.Compute[i], pfs.MRecord, group)
			if err != nil {
				t.Error(err)
				return
			}
			files[i] = f
			pf.Attach(f)
			for off := int64(i * rec); off < fileSize; off += nodes * rec {
				p.Sleep(gaps[rng.Intn(len(gaps))])
				if ref {
					err = pf.refServeRead(p, f, off, rec)
				} else {
					pf.ServeReadCall(f, off, rec, sim.Resume, p)
					err = p.Park()
				}
				run.reads = append(run.reads, fmt.Sprintf("%d@%d %v %v", i, off, p.Now(), err))
			}
			if err := f.Close(); err != nil {
				t.Error(err)
			}
		})
	}
	if err := m.K.Run(); err != nil {
		t.Fatal(err)
	}
	depth, bufs, _ := pf.Tuning()
	run.counters = serveCounters{
		Issued: pf.Issued, Hits: pf.Hits, HitsInWait: pf.HitsInWait, Misses: pf.Misses,
		Wasted: pf.Wasted, UnreadAtClose: pf.UnreadAtClose, Skipped: pf.Skipped,
		Retired: pf.Retired, Fallbacks: pf.Fallbacks, Throttled: pf.Throttled, Retunes: pf.Retunes,
		BytesCopied: pf.BytesCopied, BytesDirect: pf.BytesDirect,
		Wait: pf.WaitTime.Fingerprint(), Depth: depth, Bufs: bufs,
	}
	for _, f := range files {
		run.digests = append(run.digests, f.DeliveryDigest())
	}
	run.trace = tl.Digest()
	run.executed = m.K.Executed()
	run.end = m.K.Now()
	return run
}

// TestServeReadCallMatchesServeRead pins the callback prefetcher to its
// process form: the same seeded readers must see every read complete at
// the same instant with the same error, and leave the same counters,
// delivery digests, trace digest, event count and end time.
func TestServeReadCallMatchesServeRead(t *testing.T) {
	cases := []serveCase{
		{name: "depth1", depth: 1},
		{name: "depth3", depth: 3},
		{name: "faults-depth1", depth: 1, faults: 0.08},
		{name: "faults-depth3", depth: 3, faults: 0.08},
		{name: "adaptive", depth: 1, adaptive: true},
		{name: "controller", depth: 3, controller: true, faults: 0.02},
		{name: "hybrid-controller", depth: 1, controller: true, policy: "hybrid"},
	}
	var total serveCounters
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				want := runServe(t, c, seed, true)
				got := runServe(t, c, seed, false)
				for i := range want.reads {
					if want.reads[i] != got.reads[i] {
						t.Fatalf("seed %d read %d: %s with ServeRead, %s with ServeReadCall", seed, i, want.reads[i], got.reads[i])
					}
				}
				if want.counters != got.counters {
					t.Fatalf("seed %d: counters %+v with ServeRead, %+v with ServeReadCall", seed, want.counters, got.counters)
				}
				for i := range want.digests {
					if want.digests[i] != got.digests[i] {
						t.Fatalf("seed %d node %d: delivery digest %#x with ServeRead, %#x with ServeReadCall", seed, i, want.digests[i], got.digests[i])
					}
				}
				if want.trace != got.trace {
					t.Fatalf("seed %d: trace digest %#x with ServeRead, %#x with ServeReadCall", seed, want.trace, got.trace)
				}
				if want.executed != got.executed || want.end != got.end {
					t.Fatalf("seed %d: %d events ending at %v with ServeRead, %d ending at %v with ServeReadCall",
						seed, want.executed, want.end, got.executed, got.end)
				}
				c := want.counters
				total.Hits += c.Hits
				total.HitsInWait += c.HitsInWait
				total.Misses += c.Misses
				total.Fallbacks += c.Fallbacks
				total.Retired += c.Retired
				total.Throttled += c.Throttled
				total.Retunes += c.Retunes
			}
		})
	}
	t.Logf("sweep totals: %+v", total)
	// Every path of the port ran somewhere in the sweep.
	if total.Hits == 0 || total.HitsInWait == 0 || total.Misses == 0 || total.Fallbacks == 0 ||
		total.Retired == 0 || total.Throttled == 0 || total.Retunes == 0 {
		t.Fatalf("the sweep missed a case: %+v", total)
	}
}
