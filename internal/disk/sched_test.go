package disk

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestSchedNames(t *testing.T) {
	for s, want := range map[Sched]string{FIFO: "FIFO", SCAN: "SCAN", CSCAN: "C-SCAN", SSTF: "SSTF"} {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
	if Sched(9).String() != "Sched(9)" {
		t.Fatal("unknown policy formatting wrong")
	}
}

// schedOrder queues requests at known cylinders while the head is busy,
// then reports the order of completion by cylinder.
func schedOrder(t *testing.T, sched Sched, cylinders []int64) []int64 {
	t.Helper()
	k := sim.NewKernel()
	g := testGeo()
	d := New(k, "d0", g, sched)
	sectorsPerCyl := g.SectorsPerTrack * g.Heads
	var order []int64
	// Pin the head with a first request at cylinder 500, then queue the
	// rest while it is in service so the policy chooses from cur=500.
	readSig(d, 500*sectorsPerCyl, 4)
	k.After(sim.Millisecond, func() {
		for _, c := range cylinders {
			c := c
			sig := readSig(d, c*sectorsPerCyl, 4)
			sig.OnFireCall(func(any, error) { order = append(order, c) }, nil)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return order
}

func TestSSTFPicksNearest(t *testing.T) {
	// From cylinder 500: nearest first, then onward.
	got := schedOrder(t, SSTF, []int64{900, 510, 100, 520})
	want := []int64{510, 520, 900, 100}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SSTF order %v, want %v", got, want)
		}
	}
}

func TestCSCANWraps(t *testing.T) {
	// From 500 sweeping upward: 510, 900, then wrap to the bottom.
	got := schedOrder(t, CSCAN, []int64{100, 900, 510, 200})
	want := []int64{510, 900, 100, 200}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("C-SCAN order %v, want %v", got, want)
		}
	}
}

// Property: every policy serves every request exactly once, whatever the
// arrival pattern.
func TestAllPoliciesComplete(t *testing.T) {
	if err := quick.Check(func(seed int64, policyRaw uint8) bool {
		policy := Sched(policyRaw % 4)
		rng := rand.New(rand.NewSource(seed))
		k := sim.NewKernel()
		g := testGeo()
		d := New(k, "d0", g, policy)
		n := 1 + rng.Intn(30)
		served := 0
		max := g.Capacity()/g.SectorSize - 8
		for i := 0; i < n; i++ {
			sig := readSig(d, rng.Int63n(max), 4)
			sig.OnFireCall(func(any, error) { served++ }, nil)
		}
		if err := k.Run(); err != nil {
			return false
		}
		return served == n && d.Requests == int64(n)
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: on a saturated random workload, SSTF's total seek distance
// never exceeds FIFO's.
func TestSSTFSeeksLessThanFIFO(t *testing.T) {
	totalSeek := func(sched Sched, seed int64) float64 {
		k := sim.NewKernel()
		g := testGeo()
		d := New(k, "d0", g, sched)
		rng := rand.New(rand.NewSource(seed))
		max := g.Capacity()/g.SectorSize - 8
		for i := 0; i < 60; i++ {
			readSig(d, rng.Int63n(max), 4)
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return d.SeekDist.Sum()
	}
	for seed := int64(1); seed <= 5; seed++ {
		fifo, sstf := totalSeek(FIFO, seed), totalSeek(SSTF, seed)
		if sstf > fifo {
			t.Fatalf("seed %d: SSTF seeks %v > FIFO %v", seed, sstf, fifo)
		}
	}
}
