package workload

import (
	"testing"

	"repro/internal/ionode"
	"repro/internal/machine"
	"repro/internal/sim"
)

func qosTestConfig() machine.Config {
	cfg := machine.DefaultConfig()
	cfg.Fair = ionode.FairPolicy{
		Weights:       []int{4, 2, 1},
		Slots:         2,
		RatePerWeight: 64 << 10, // bytes/s per weight unit
		BurstBytes:    16 << 10,
	}
	return cfg
}

func qosTestSpec(seed int64) QoSSpec {
	return QoSSpec{
		Tenants:     24,
		Files:       6,
		FileSize:    1 << 20,
		RequestSize: 16 << 10,
		Requests:    6,
		MeanGap:     2 * sim.Millisecond, // well into overload
		Seed:        seed,
		SLO:         50 * sim.Millisecond,
	}
}

// TestQoSFingerprintDeterministic is the workload-level determinism
// check: an overloaded QoS run (admission engaged) produces the same
// whole-result fingerprint run to run.
func TestQoSFingerprintDeterministic(t *testing.T) {
	first, err := RunQoS(qosTestConfig(), qosTestSpec(42))
	if err != nil {
		t.Fatal(err)
	}
	if q := first.QoS; q.Arrivals == 0 || q.Throttled == 0 {
		t.Fatalf("run too tame: arrivals=%d throttled=%d (admission never engaged)",
			q.Arrivals, q.Throttled)
	}
	second, err := RunQoS(qosTestConfig(), qosTestSpec(42))
	if err != nil {
		t.Fatal(err)
	}
	if a, b := first.Fingerprint(), second.Fingerprint(); a != b {
		t.Fatalf("QoS run not deterministic: %#x vs %#x", a, b)
	}
}

// TestQoSConservation cross-foots the per-tenant ledgers: every arrival
// is classified exactly once on the client side, server-side requests
// balance, and served bytes equal the client's delivered+late+abandoned
// bytes.
func TestQoSConservation(t *testing.T) {
	res, err := RunQoS(qosTestConfig(), qosTestSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	q := res.QoS
	for ti := range q.Tenants {
		ts := &q.Tenants[ti]
		if got := ts.Done + ts.Throttled + ts.Overloaded + ts.Failed; got != ts.Requests {
			t.Errorf("tenant %d: classified %d of %d arrivals", ti, got, ts.Requests)
		}
		if got := ts.SrvServed + ts.SrvShed + ts.SrvFaulted + ts.SrvDropped; got != ts.SrvArrived {
			t.Errorf("tenant %d: server ledger %d != arrived %d", ti, got, ts.SrvArrived)
		}
		if got := ts.IOBytes + ts.LateBytes + ts.AbandonedBytes; got != ts.SrvBytes {
			t.Errorf("tenant %d: client bytes %d != served bytes %d", ti, got, ts.SrvBytes)
		}
		if ts.Done > 0 && ts.Bytes == 0 {
			t.Errorf("tenant %d: %d completions but zero bytes", ti, ts.Done)
		}
	}
	if int64(q.Latency.N()) != q.Arrivals-q.Throttled-q.Overloaded-q.Failed {
		t.Errorf("latency samples %d != completions %d", q.Latency.N(),
			q.Arrivals-q.Throttled-q.Overloaded-q.Failed)
	}
}

// TestQoSFIFOSharesSchedule proves the FIFO twin sees the same offered
// load (same arrivals and per-tenant requests) while producing a
// different service order — the property the fairness oracle relies on
// when it compares the two.
func TestQoSFIFOSharesSchedule(t *testing.T) {
	wfq, err := RunQoS(qosTestConfig(), qosTestSpec(42))
	if err != nil {
		t.Fatal(err)
	}
	cfg := qosTestConfig()
	cfg.Fair.FIFO = true
	fifo, err := RunQoS(cfg, qosTestSpec(42))
	if err != nil {
		t.Fatal(err)
	}
	if wfq.QoS.Arrivals != fifo.QoS.Arrivals {
		t.Fatalf("arrivals diverged: wfq %d fifo %d", wfq.QoS.Arrivals, fifo.QoS.Arrivals)
	}
	for ti := range wfq.QoS.Tenants {
		if w, f := wfq.QoS.Tenants[ti].Requests, fifo.QoS.Tenants[ti].Requests; w != f {
			t.Fatalf("tenant %d requests diverged: wfq %d fifo %d", ti, w, f)
		}
	}
	if fifo.QoS.Throttled != 0 {
		t.Fatalf("FIFO twin throttled %d requests; admission must be off", fifo.QoS.Throttled)
	}
}
