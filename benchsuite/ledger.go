package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/stats"
	"repro/internal/workload"
)

// unitOf gives every metric the suite reports its unit, in report order:
// the end-to-end metrics first, then the per-layer ledger grouped by
// layer. Host time is in s; simulated time is in sim_ms.
var unitOf = []struct{ name, unit string }{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"max_rss_mb", "MiB"},
	{"sim_mbps", "MB/s"},
	{"sim_read_p50_ms", "sim_ms"},
	{"ok_frac", "frac"},
	{"reads_per_s", "1/s"},
	{"sim_read_p99_ms", "sim_ms"},
	{"sim_read_p999_ms", "sim_ms"},
	{"slo_frac", "frac"},

	{"runtime.cpu_frac", "frac"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.gc_cycles", "count/rep"},
	{"runtime.allocs_per_read", "count/read"},
	{"runtime.alloc_bytes_per_read", "B/read"},
	{"runtime.cpu_per_wall", "frac"},
	{"sim.cpu_frac", "frac"},
	{"sim.events_per_read", "count/read"},
	{"sim.max_queue_depth", "count"},
	{"machine.cpu_frac", "frac"},
	{"machine.build_s", "s"},
	{"mesh.cpu_frac", "frac"},
	{"mesh.messages_per_read", "count/read"},
	{"mesh.latency_p50_ms", "sim_ms"},
	{"mesh.latency_p99_ms", "sim_ms"},
	{"pfs.cpu_frac", "frac"},
	{"pfs.layout_s", "s"},
	{"pfs.stripe_requests_per_read", "count/read"},
	{"pfs.retries", "count"},
	{"pfs.timeouts", "count"},
	{"pfs.late_replies", "count"},
	{"pfs.down_waits", "count"},
	{"pfs.unavailable", "count"},
	{"ionode.cpu_frac", "frac"},
	{"ionode.service_p50_ms", "sim_ms"},
	{"ionode.service_p99_ms", "sim_ms"},
	{"ionode.shed", "count"},
	{"ionode.throttled", "count"},
	{"ionode.dropped", "count"},
	{"ionode.max_lag_costs", "count"},
	{"ufs.cpu_frac", "frac"},
	{"ufs.cache_hit_frac", "frac"},
	{"ufs.disk_ops_per_read", "count/read"},
	{"ufs.fill_waits", "count"},
	{"disk.cpu_frac", "frac"},
	{"disk.util", "frac"},
	{"disk.requests_per_read", "count/read"},
	{"disk.seek_mean_cyl", "cyl"},
	{"disk.queue_len_p99", "count"},
	{"disk.errors", "count"},
	{"disk.degraded_reads", "count"},
	{"disk.rebuild_bytes", "B"},
	{"prefetch.cpu_frac", "frac"},
	{"prefetch.hit_frac", "frac"},
	{"prefetch.full_hit_frac", "frac"},
	{"prefetch.accuracy", "frac"},
	{"prefetch.wasted", "count"},
	{"prefetch.wait_p50_ms", "sim_ms"},
	{"prefetch.copy_bytes_per_read", "B/read"},
	{"workload.cpu_frac", "frac"},
	{"stats.cpu_frac", "frac"},
	{"other.cpu_frac", "frac"},
	{"trace.overhead_frac", "frac"},
	{"trace.profile_samples", "count"},
	{"host.raw_wall_s", "s"},
	{"host.slowdown", "ratio"},
}

// simulated returns the attempted reads (QoS arrivals on the open loop)
// and the run's end-to-end numbers in simulated time: the paper's
// application MB/s, blocking-read latency percentiles (on the open loop
// timed from each request's due time) with their sample count, and the
// shares of attempted reads that returned their data and that did so
// within the latency limit.
func simulated(res *workload.Result) (attempted int64, m []metric) {
	lat := &res.ReadTime
	var failed, met int64
	if q := res.QoS; q != nil {
		lat = &q.Latency
		attempted = q.Arrivals
		failed = q.Throttled + q.Overloaded + q.Failed
		met = q.SLOMet
	} else {
		attempted = res.ReadCalls + res.UnavailableReads
		failed = res.UnavailableReads
		limit := sloLimit.Seconds()
		lat.Each(func(v float64) {
			if v <= limit {
				met++
			}
		})
	}
	n := int(attempted)
	return attempted, []metric{
		{Name: "sim_mbps", Value: res.Bandwidth, N: n},
		{Name: "sim_read_p50_ms", Value: 1e3 * lat.Quantile(0.50), N: lat.N()},
		{Name: "ok_frac", Value: 1 - ratio(failed, attempted), N: n},
		{Name: "sim_read_p99_ms", Value: 1e3 * lat.Quantile(0.99), N: lat.N()},
		{Name: "sim_read_p999_ms", Value: 1e3 * lat.Quantile(0.999), N: lat.N()},
		{Name: "slo_frac", Value: ratio(met, attempted), N: n},
	}
}

// paperSimulated derives paper-repro's simulated metrics from its
// rendered tables, keyed by experiment id: sim_mbps is the geometric mean
// of every bandwidth cell (Figure 2's mode columns, and each column whose
// header names MB/s or B/W), and sim_read_p50_ms the geometric mean of
// Table 2's read access times, which are per-size medians. A table only
// exists when every read of its runs succeeded, so ok_frac is 1.
func paperSimulated(tables map[string]*stats.Table) ([]metric, error) {
	var bw, access []float64
	for id, t := range tables {
		for c, h := range t.Headers() {
			isBW := c > 0 && id == "fig2" || strings.Contains(h, "MB/s") || strings.HasPrefix(h, "B/W")
			isAccess := id == "table2" && h == "Read Access Time (sec)"
			if !isBW && !isAccess {
				continue
			}
			for _, row := range t.Rows() {
				v, err := strconv.ParseFloat(strings.TrimSpace(row[c]), 64)
				if err != nil || v <= 0 {
					return nil, fmt.Errorf("%s: column %q: cell %q is not a positive number", id, h, row[c])
				}
				if isBW {
					bw = append(bw, v)
				} else {
					access = append(access, v)
				}
			}
		}
	}
	if len(bw) == 0 || len(access) == 0 {
		return nil, fmt.Errorf("paper tables hold %d bandwidth and %d access-time cells", len(bw), len(access))
	}
	return []metric{
		{Name: "sim_mbps", Value: geomean(bw), N: len(bw)},
		{Name: "sim_read_p50_ms", Value: 1e3 * geomean(access), N: len(access)},
		{Name: "ok_frac", Value: 1, N: len(bw)},
	}, nil
}

func geomean(v []float64) float64 {
	var logs float64
	for _, x := range v {
		logs += math.Log(x)
	}
	return math.Exp(logs / float64(len(v)))
}

// counters reads what every layer of the run's machine already exports
// and normalizes work counts by the attempted reads. Metrics of a layer
// the workload does not exercise (prefetching off) are left out.
func counters(res *workload.Result, reads int64) map[string]float64 {
	m := res.Machine
	out := map[string]float64{
		"sim.events_per_read": ratio(int64(m.Executed()), reads),
		"sim.max_queue_depth": float64(m.MaxQueueDepth()),
	}

	out["mesh.messages_per_read"] = ratio(m.Mesh.Messages, reads)
	out["mesh.latency_p50_ms"] = 1e3 * m.Mesh.Latency.Quantile(0.50)
	out["mesh.latency_p99_ms"] = 1e3 * m.Mesh.Latency.Quantile(0.99)

	fs := m.FS
	out["pfs.stripe_requests_per_read"] = ratio(fs.StripeRequests, reads)
	out["pfs.retries"] = float64(fs.Retries)
	out["pfs.timeouts"] = float64(fs.Timeouts)
	out["pfs.late_replies"] = float64(fs.LateReplies)
	out["pfs.down_waits"] = float64(fs.DownWaits)
	out["pfs.unavailable"] = float64(fs.Unavailable)

	var service stats.Histogram
	var shed, throttled, dropped int64
	var hits, misses, diskOps, fillWaits int64
	var lag float64
	for _, s := range m.Servers {
		s.Service.Each(service.Observe)
		shed += s.Shed
		throttled += s.Throttled
		dropped += s.Dropped
		if snap := s.FairSnapshot(); snap != nil && snap.MaxWeightedCost > 0 {
			if r := float64(snap.MaxLag) / float64(snap.MaxWeightedCost); r > lag {
				lag = r
			}
		}
		u := s.FS()
		hits += u.CacheHits
		misses += u.CacheMisses
		diskOps += u.DiskOps
		fillWaits += u.FillWaits
	}
	out["ionode.service_p50_ms"] = 1e3 * service.Quantile(0.50)
	out["ionode.service_p99_ms"] = 1e3 * service.Quantile(0.99)
	out["ionode.shed"] = float64(shed)
	out["ionode.throttled"] = float64(throttled)
	out["ionode.dropped"] = float64(dropped)
	out["ionode.max_lag_costs"] = lag
	out["ufs.cache_hit_frac"] = ratio(hits, hits+misses)
	out["ufs.disk_ops_per_read"] = ratio(diskOps, reads)
	out["ufs.fill_waits"] = float64(fillWaits)

	var queue stats.Histogram
	var requests, errs, degraded, rebuilt int64
	var seekSum float64
	var seeks int
	for _, a := range m.Arrays {
		degraded += a.DegradedReads
		rebuilt += a.RebuildBytes
		for _, d := range a.Members() {
			requests += d.Requests
			errs += d.Errors
			seekSum += d.SeekDist.Sum()
			seeks += d.SeekDist.N()
			d.QueueLen.Each(queue.Observe)
		}
	}
	out["disk.util"] = m.DiskUtilization()
	out["disk.requests_per_read"] = ratio(requests, reads)
	out["disk.seek_mean_cyl"] = seekSum / float64(max(seeks, 1))
	out["disk.queue_len_p99"] = queue.Quantile(0.99)
	out["disk.errors"] = float64(errs)
	out["disk.degraded_reads"] = float64(degraded)
	out["disk.rebuild_bytes"] = float64(rebuilt)

	if p := res.Prefetch; p != nil {
		out["prefetch.hit_frac"] = p.HitRate()
		out["prefetch.full_hit_frac"] = ratio(p.Hits, p.Hits+p.HitsInWait+p.Misses+p.Fallbacks)
		out["prefetch.accuracy"] = ratio(p.Hits+p.HitsInWait, p.Issued)
		out["prefetch.wasted"] = float64(p.Wasted)
		out["prefetch.wait_p50_ms"] = 1e3 * p.WaitTime.Quantile(0.50)
		out["prefetch.copy_bytes_per_read"] = ratio(p.BytesCopied, reads)
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
