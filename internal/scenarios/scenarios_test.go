package scenarios_test

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/scenarios"
	"repro/internal/workload"
)

// TestTraceDoesNotPerturb proves that attaching a trace log observes a
// run without changing it: for every golden scenario, the traced run and
// an untraced one agree on the model fingerprint and on the kernel's
// census (events executed and booked, queue depth, processes). The
// benchmark suite times traced and untraced repetitions of one workload
// as the same work, which holds only if this does.
func TestTraceDoesNotPerturb(t *testing.T) {
	for _, sc := range scenarios.Golden() {
		traced, _, err := scenarios.Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		untraced := sc
		untraced.Tweak = func(spec *workload.Spec) {
			if sc.Tweak != nil {
				sc.Tweak(spec)
			}
			spec.Trace = nil
		}
		plain, _, err := scenarios.Run(untraced)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := plain.Fingerprint(), traced.Fingerprint(); got != want {
			t.Errorf("%s: untraced fingerprint %016x, traced %016x", sc.Name, got, want)
		}
		if plain.Engine != traced.Engine {
			t.Errorf("%s: untraced engine %+v, traced %+v", sc.Name, plain.Engine, traced.Engine)
		}
	}
}

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
		res, _, err := scenarios.Run(sc)
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
