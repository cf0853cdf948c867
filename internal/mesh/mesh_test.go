package mesh

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func testConfig() Config {
	return Config{
		Width:         4,
		Height:        4,
		HopLatency:    100 * sim.Nanosecond,
		LinkBandwidth: 100e6,
		NICBandwidth:  100e6,
		SendOverhead:  10 * sim.Microsecond,
		RecvOverhead:  5 * sim.Microsecond,
	}
}

func TestHops(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, testConfig())
	cases := []struct{ src, dst, want int }{
		{0, 0, 0},
		{0, 3, 3},  // same row
		{0, 12, 3}, // same column
		{0, 15, 6}, // opposite corner
		{5, 10, 2}, // one x, one y
		{15, 0, 6}, // reverse of corner
	}
	for _, c := range cases {
		if got := m.Hops(c.src, c.dst); got != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.src, c.dst, got, c.want)
		}
	}
}

func TestRouteLengthMatchesHops(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, testConfig())
	if err := quick.Check(func(a, b uint8) bool {
		src, dst := int(a)%16, int(b)%16
		return len(m.route(src, dst)) == m.Hops(src, dst)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUncontendedLatency(t *testing.T) {
	k := sim.NewKernel()
	cfg := testConfig()
	m := New(k, cfg)
	const size = 1 << 20 // 1 MiB
	var deliveredAt sim.Time
	got := m.Send(0, 15, size, func() { deliveredAt = k.Now() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if deliveredAt != got {
		t.Fatalf("callback at %v, Send returned %v", deliveredAt, got)
	}
	// Cut-through: overhead + (6 link + 1 ejection) hop latencies + ONE
	// serialization of the message (the pipeline overlaps the rest) +
	// receive overhead.
	xfer := bytesTime(size, cfg.LinkBandwidth)
	want := cfg.SendOverhead + 7*cfg.HopLatency + xfer + cfg.RecvOverhead
	if got != want {
		t.Fatalf("delivery = %v, want %v", got, want)
	}
}

func TestLocalDelivery(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, testConfig())
	fired := false
	m.Send(3, 3, 4096, func() { fired = true })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("local message never delivered")
	}
}

func TestInjectionSerializes(t *testing.T) {
	k := sim.NewKernel()
	cfg := testConfig()
	m := New(k, cfg)
	const size = 1 << 20
	t1 := m.Send(0, 1, size, nil)
	t2 := m.Send(0, 2, size, nil)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	xfer := bytesTime(size, cfg.NICBandwidth)
	if t2-t1 < xfer {
		t.Fatalf("second message delivered %v after first, want ≥ %v (injection port serialization)", t2-t1, xfer)
	}
}

func TestEjectionSerializes(t *testing.T) {
	k := sim.NewKernel()
	cfg := testConfig()
	m := New(k, cfg)
	const size = 1 << 20
	// Two different senders, same destination, disjoint paths (row 0 and
	// row 1 into column 3 would share the final link; instead use nodes in
	// the same column as dst so paths share only the destination).
	t1 := m.Send(3, 15, size, nil)  // column 3 downward
	t2 := m.Send(12, 15, size, nil) // row 3 rightward
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	d := t2 - t1
	if d < 0 {
		d = -d
	}
	xfer := bytesTime(size, cfg.NICBandwidth)
	if d < xfer/2 {
		t.Fatalf("deliveries %v apart, want ejection-port spacing ≥ %v", d, xfer/2)
	}
}

func TestLinkContention(t *testing.T) {
	k := sim.NewKernel()
	cfg := testConfig()
	m := New(k, cfg)
	const size = 1 << 20
	// 0->1 and 0->2 share link 0->east... both also share node 0's
	// injection port. To isolate a link, send 0->2 and 1->2: they share
	// link 1->east only.
	t1 := m.Send(0, 2, size, nil)
	t2 := m.Send(1, 2, size, nil)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	xfer := bytesTime(size, cfg.LinkBandwidth)
	if t2-t1 < xfer/2 {
		t.Fatalf("contending deliveries %v apart, want ≥ %v", t2-t1, xfer/2)
	}
}

func TestStatsAccumulate(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, testConfig())
	for i := 0; i < 5; i++ {
		m.Send(0, 15, 1000, nil)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Messages != 5 || m.Bytes != 5000 {
		t.Fatalf("Messages=%d Bytes=%d", m.Messages, m.Bytes)
	}
	if m.Latency.N() != 5 {
		t.Fatalf("latency samples = %d", m.Latency.N())
	}
}

func TestBadArgumentsPanic(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, testConfig())
	for _, fn := range []func(){
		func() { m.Send(-1, 0, 10, nil) },
		func() { m.Send(0, 99, 10, nil) },
		func() { m.Send(0, 1, -5, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad Send did not panic")
				}
			}()
			fn()
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bad geometry did not panic")
			}
		}()
		New(k, Config{Width: 0, Height: 2, LinkBandwidth: 1, NICBandwidth: 1})
	}()
}

// Property: delivery time is monotone in message size on a quiet mesh.
func TestDeliveryMonotoneInSize(t *testing.T) {
	if err := quick.Check(func(a, b uint32) bool {
		if a > b {
			a, b = b, a
		}
		timeFor := func(size int64) sim.Time {
			k := sim.NewKernel()
			m := New(k, testConfig())
			at := m.Send(0, 15, size, nil)
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			return at
		}
		return timeFor(int64(a)) <= timeFor(int64(b))
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: with random traffic, every callback fires and delivery times
// are at least the uncontended minimum.
func TestRandomTrafficDelivers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	k := sim.NewKernel()
	cfg := testConfig()
	m := New(k, cfg)
	const msgs = 200
	var delivered int
	for i := 0; i < msgs; i++ {
		src, dst := rng.Intn(16), rng.Intn(16)
		size := int64(rng.Intn(1 << 18))
		minTime := k.Now() + cfg.SendOverhead + cfg.RecvOverhead +
			sim.Time(m.Hops(src, dst)+1)*cfg.HopLatency
		at := m.Send(src, dst, size, func() { delivered++ })
		if at < minTime {
			t.Fatalf("delivery %v below physical minimum %v", at, minTime)
		}
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != msgs {
		t.Fatalf("delivered %d of %d", delivered, msgs)
	}
}

// TestDownNodeDropsTraffic: a message sent to a node inside one of its
// [at, until) outages is dropped at the destination, and traffic flows
// again from until on.
func TestDownNodeDropsTraffic(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, testConfig())
	m.AddOutage(5, 0, sim.Millisecond)
	delivered := false
	m.Send(0, 5, 4096, func() { delivered = true })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered {
		t.Fatal("message delivered to a down node")
	}
	if m.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", m.Dropped)
	}
	// The sender still paid for the attempt: stats and link clocks moved.
	if m.Messages != 1 || m.Bytes != 4096 {
		t.Fatalf("Messages=%d Bytes=%d, want 1/4096", m.Messages, m.Bytes)
	}
	// Back up at the interval's open end: traffic flows again.
	k.At(sim.Millisecond, func() { m.Send(0, 5, 4096, func() { delivered = true }) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !delivered {
		t.Fatal("message to a restarted node not delivered")
	}
	if m.Dropped != 1 {
		t.Fatalf("Dropped = %d after restart, want still 1", m.Dropped)
	}
}

func TestAddOutageBoundsPanic(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, testConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("AddOutage out of range did not panic")
		}
	}()
	m.AddOutage(99, 0, sim.Millisecond)
}
