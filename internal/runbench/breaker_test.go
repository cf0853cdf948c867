package runbench

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/scenarios"
)

// TestBreakerProbesFire drives the ShedPolicy breaker through its
// half-open transition: the chaos platform with the fault rate raised
// until breakers genuinely trip must grant at least one probe, and two
// runs must agree on every server's Probes/Shed/Faults counters.
func TestBreakerProbesFire(t *testing.T) {
	sc := scenarios.Scenario{
		Name: "breaker-probe",
		Config: func() machine.Config {
			cfg := scenarios.ChaosMachine()
			// Hot enough that servers accumulate Threshold faults in a
			// window, open their breakers, and later grant half-open
			// probes; still transient-only, so retries ride everything out.
			cfg.DiskFaultRate = 0.30
			// A rate this hot can exhaust the default retry budget by bad
			// luck; the test is about breaker counters, not give-ups.
			cfg.PFS.Retry.MaxRetries = 64
			return cfg
		},
	}
	type counters struct{ Probes, Shed, Faults int64 }
	collect := func() []counters {
		t.Helper()
		res, _, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		var out []counters
		for _, s := range res.Machine.Servers {
			out = append(out, counters{Probes: s.Probes, Shed: s.Shed, Faults: s.Faults})
		}
		return out
	}

	first := collect()
	var probes int64
	for _, c := range first {
		probes += c.Probes
	}
	if probes == 0 {
		t.Fatalf("no half-open probe fired; counters %+v", first)
	}
	for i, c := range collect() {
		if c != first[i] {
			t.Errorf("server %d: second run %+v, first %+v", i, c, first[i])
		}
	}
}
