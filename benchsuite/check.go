package main

import (
	"fmt"
	"math"

	"repro/internal/workload"
)

// check verifies a run's books beyond determinism (which verify checks by
// fingerprint): every requested byte was delivered or counted
// unavailable, reads fail only on workloads built to fail them, and on
// the open loop every scheduled arrival was spawned and every tenant's
// client and server ledgers close.
func check(def workloadDef, p plan, res *workload.Result) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%s: %s", def.name, fmt.Sprintf(format, args...))
	}
	q := res.QoS
	if q == nil {
		if got := res.TotalBytes + res.UnavailableBytes; got != p.spec.FileSize {
			return fail("delivered %d + unavailable %d bytes, requested %d",
				res.TotalBytes, res.UnavailableBytes, p.spec.FileSize)
		}
		if def.noFail && res.UnavailableReads != 0 {
			return fail("%d reads failed, none may", res.UnavailableReads)
		}
		return nil
	}
	if len(q.Tenants) != p.qos.Tenants {
		return fail("QoS ledger has %d tenants, the spec %d", len(q.Tenants), p.qos.Tenants)
	}
	var scheduled, spawned int64
	for t := range q.Tenants {
		ts := &q.Tenants[t]
		want := scheduledRequests(*p.qos, t)
		scheduled += want
		spawned += ts.Requests
		if ts.Requests != want {
			return fail("tenant %d spawned %d of %d scheduled arrivals", t, ts.Requests, want)
		}
		if n := ts.Done + ts.Throttled + ts.Overloaded + ts.Failed; n != ts.Requests {
			return fail("tenant %d: done %d + throttled %d + overloaded %d + failed %d != %d requests",
				t, ts.Done, ts.Throttled, ts.Overloaded, ts.Failed, ts.Requests)
		}
		if n := ts.IOBytes + ts.LateBytes + ts.AbandonedBytes; n != ts.SrvBytes {
			return fail("tenant %d: served %d bytes, client accounts for %d (io %d + late %d + abandoned %d)",
				t, ts.SrvBytes, n, ts.IOBytes, ts.LateBytes, ts.AbandonedBytes)
		}
	}
	if q.Arrivals != scheduled || spawned != scheduled {
		return fail("%d arrivals spawned, %d scheduled", q.Arrivals, scheduled)
	}
	if def.noFail && q.Throttled+q.Overloaded+q.Failed != 0 {
		return fail("%d requests failed, none may", q.Throttled+q.Overloaded+q.Failed)
	}
	return nil
}

// scheduledRequests recomputes tenant t's arrival count from the spec
// alone, as a reference for workload.RunQoS's schedule: Requests scaled
// by a bounded Pareto factor u^-1/2 capped at 8, with u drawn from the
// splitmix64-style hash of (Seed, tenant) that the workload package
// documents for its QoS draws.
func scheduledRequests(spec workload.QoSSpec, t int) int64 {
	const saltCount = 0xC0DE0001
	x := uint64(spec.Seed)*0x27BB2EE687B0B0FD + uint64(t)*0x9E3779B97F4A7C15 + saltCount
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	u := (float64(x>>11) + 1) / (1 << 53)
	n := int64(float64(spec.Requests) * math.Min(math.Pow(u, -0.5), 8))
	return max(n, 1)
}
