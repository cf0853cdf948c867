package runbench

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/scenarios"
)

// TestMeasureDoesNotPerturb proves the benchmark harness observes the
// simulation without changing it: for every golden scenario, the result
// fingerprint and trace digest of a plain Run equal the ones Measure
// reports from its instrumented run. Wall clocks and MemStats deltas are
// the only instrumentation, and nothing in the simulator can see either.
func TestMeasureDoesNotPerturb(t *testing.T) {
	for _, sc := range scenarios.Golden() {
		res, tl, err := Run(sc)
		if err != nil {
			t.Fatalf("%s: plain run: %v", sc.Name, err)
		}
		plainFP := res.Fingerprint()
		plainTD := tl.Digest()

		m, err := Measure(sc, Options{Iterations: 1, MinWall: time.Millisecond})
		if err != nil {
			t.Fatalf("%s: measured run: %v", sc.Name, err)
		}
		if got, want := m.Fingerprint, hex16(plainFP); got != want {
			t.Errorf("%s: measured fingerprint %s != plain %s", sc.Name, got, want)
		}
		if got, want := m.TraceDigest, hex16(plainTD); got != want {
			t.Errorf("%s: measured trace digest %s != plain %s", sc.Name, got, want)
		}
	}
}

// TestRunRepeatable pins that back-to-back plain runs are bit-identical —
// the property Measure's amortized timing passes rely on.
func TestRunRepeatable(t *testing.T) {
	sc, ok := scenarios.ByName("quickstart")
	if !ok {
		t.Fatal("quickstart scenario missing")
	}
	r1, t1, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	r2, t2, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Fingerprint() != r2.Fingerprint() {
		t.Error("back-to-back runs produced different fingerprints")
	}
	if t1.Digest() != t2.Digest() {
		t.Error("back-to-back runs produced different trace digests")
	}
}

func hex16(v uint64) string { return fmt.Sprintf("%016x", v) }

// TestGate doctors a baseline for each case the regression gate must
// tell apart. The gate compares per-run wall time, so a build that
// retires fewer events but finishes sooner passes even though its
// events/s fell; a fingerprint change earns a caveat instead of a
// verdict, because the runs no longer did the same work.
func TestGate(t *testing.T) {
	cur := map[string]Measurement{
		"fewer-events": {WallSec: 0.8, Events: 500, EventsPerSec: 625, Fingerprint: "aa"},
		"slower":       {WallSec: 1.5, Events: 1000, EventsPerSec: 667, Fingerprint: "bb"},
		"other-work":   {WallSec: 1.5, Events: 1000, EventsPerSec: 667, Fingerprint: "cd"},
	}
	base := map[string]Measurement{
		"fewer-events":  {WallSec: 1.0, Events: 1000, EventsPerSec: 1000, Fingerprint: "aa"},
		"slower":        {WallSec: 1.0, Events: 1000, EventsPerSec: 1000, Fingerprint: "bb"},
		"other-work":    {WallSec: 1.0, Events: 1000, EventsPerSec: 1000, Fingerprint: "cc"},
		"baseline-only": {WallSec: 1.0, Events: 1000, EventsPerSec: 1000, Fingerprint: "ee"},
	}
	got := map[string]GateResult{}
	for _, g := range Gate(base, cur, 0.85) {
		got[g.Scenario] = g
	}
	if len(got) != 3 {
		t.Fatalf("gated %d scenarios, want the 3 measured in both reports: %+v", len(got), got)
	}
	if g := got["fewer-events"]; g.Regressed || g.Caveat != "" || g.Ratio != 1.25 {
		t.Errorf("fewer events in less wall time: got %+v, want a 1.25x pass", g)
	}
	if g := got["slower"]; !g.Regressed || g.Caveat != "" {
		t.Errorf("1.5x the baseline's wall time at tolerance 0.85: got %+v, want a regression", g)
	}
	if g := got["other-work"]; g.Regressed || g.Caveat == "" {
		t.Errorf("fingerprint differs from the baseline: got %+v, want a caveat and no verdict", g)
	}
}
