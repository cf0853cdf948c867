package sim_test

import (
	"math/rand"
	"testing"

	"repro/internal/scenarios"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// goldenRun is one golden-scenario run's digests.
type goldenRun struct {
	model, trace, kernel uint64
	events               []trace.Event
}

// runGolden runs sc as cmd/detgate does, with hook (if non-nil) applied
// to the run's kernel as soon as it exists.
func runGolden(t *testing.T, sc scenarios.Scenario, hook func(*sim.Kernel)) goldenRun {
	t.Helper()
	sim.SetNewKernelHook(hook)
	defer sim.SetNewKernelHook(nil)
	tl := trace.NewLog(1 << 18)
	spec := scenarios.QuickstartSpec(tl)
	if sc.Tweak != nil {
		sc.Tweak(&spec)
	}
	res, err := workload.Run(sc.Config(), spec)
	if err != nil {
		t.Fatalf("%s: %v", sc.Name, err)
	}
	return goldenRun{model: res.Fingerprint(), trace: tl.Digest(),
		kernel: res.Machine.K.Fingerprint(), events: tl.Events()}
}

// instants draws n seeded instants at which the model runs events: the
// times of trace events of a clean run.
func instants(rng *rand.Rand, events []trace.Event, n int) []sim.Time {
	ts := make([]sim.Time, n)
	for i := range ts {
		ts[i] = events[rng.Intn(len(events))].T
	}
	return ts
}

// ties returns every instant at which the trace records two events.
func ties(events []trace.Event) []sim.Time {
	var ts []sim.Time
	for i := 1; i < len(events); i++ {
		if events[i].T == events[i-1].T && (len(ts) == 0 || ts[len(ts)-1] != events[i].T) {
			ts = append(ts, events[i].T)
		}
	}
	return ts
}

// noop is an engine-only event: it books one zero-delay follow-up, so
// noise lands both before and among the model events of its instant.
func noop(a any) {
	if n := a.(*noise); n.followUps > 0 {
		n.followUps--
		n.k.AfterCall(0, func(any) {}, nil)
	}
}

type noise struct {
	k         *sim.Kernel
	followUps int
}

// TestEngineNoiseLeavesModelDigests splits the run digest into its two
// halves. No-op events at seeded model instants take sequence numbers
// but cannot reorder any pair of model events, so on every golden
// scenario they must leave the model fingerprint and the trace digest
// alone while moving the kernel's own fingerprint. Swapping two
// same-time model events is a real change of history, and the trace
// digest must see it.
func TestEngineNoiseLeavesModelDigests(t *testing.T) {
	for _, sc := range scenarios.Golden() {
		base := runGolden(t, sc, nil)
		rng := rand.New(rand.NewSource(1))
		at := instants(rng, base.events, 64)
		noisy := runGolden(t, sc, func(k *sim.Kernel) {
			n := &noise{k: k, followUps: len(at)}
			for _, ti := range at {
				k.AtCall(ti, noop, n)
			}
		})
		if noisy.model != base.model {
			t.Errorf("%s: engine noise moved the model fingerprint %016x -> %016x", sc.Name, base.model, noisy.model)
		}
		if noisy.trace != base.trace {
			t.Errorf("%s: engine noise moved the trace digest %016x -> %016x", sc.Name, base.trace, noisy.trace)
		}
		if noisy.kernel == base.kernel {
			t.Errorf("%s: %d no-op events left the kernel fingerprint %016x unmoved", sc.Name, 2*len(at), base.kernel)
		}

		swaps := ties(base.events)
		if len(swaps) == 0 {
			t.Fatalf("%s: no two trace events share an instant, so there is nothing to swap", sc.Name)
		}
		mutated := runGolden(t, sc, func(k *sim.Kernel) {
			for _, ti := range swaps {
				sim.DeferNextTie(k, ti)
			}
		})
		if mutated.trace == base.trace {
			t.Errorf("%s: reordering same-time model events at %v left the trace digest %016x unmoved",
				sc.Name, swaps, base.trace)
		}
	}
}
