package mesh

import (
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// scaleConfig returns a mesh the size of the large simulated machines
// (1024 compute + 256 I/O nodes needs a 36x36 grid; the non-square
// variants stress the Width!=Height index arithmetic).
func scaleConfig(w, h int) Config {
	cfg := Paragon(w, h)
	return cfg
}

// naiveHops is an independent hop-count reference: decompose both ids
// with explicit division and count unit steps one at a time.
func naiveHops(width, src, dst int) int {
	sx, sy := src%width, src/width
	dx, dy := dst%width, dst/width
	hops := 0
	for sx != dx {
		if sx < dx {
			sx++
		} else {
			sx--
		}
		hops++
	}
	for sy != dy {
		if sy < dy {
			sy++
		} else {
			sy--
		}
		hops++
	}
	return hops
}

// Routing on large non-square meshes: the XY walk must agree with a
// naive unit-step reference on hop count, and the materialized route
// must be step-contiguous (each link leaves the node the previous link
// arrived at) with all X movement before any Y movement.
func TestLargeMeshRoutingMatchesNaive(t *testing.T) {
	for _, geo := range []struct{ w, h int }{{32, 40}, {64, 64}, {36, 36}} {
		k := sim.NewKernel()
		m := New(k, scaleConfig(geo.w, geo.h))
		n := m.Nodes()
		rng := rand.New(rand.NewSource(int64(geo.w*1000 + geo.h)))
		// Corners and random interior pairs: corner-to-corner paths hug
		// the mesh boundary where a bad index would walk off the grid.
		corners := []int{0, geo.w - 1, n - geo.w, n - 1}
		var pairs [][2]int
		for _, a := range corners {
			for _, b := range corners {
				pairs = append(pairs, [2]int{a, b})
			}
		}
		for i := 0; i < 200; i++ {
			pairs = append(pairs, [2]int{rng.Intn(n), rng.Intn(n)})
		}
		for _, pr := range pairs {
			src, dst := pr[0], pr[1]
			want := naiveHops(geo.w, src, dst)
			if got := m.Hops(src, dst); got != want {
				t.Fatalf("%dx%d: Hops(%d,%d) = %d, want %d", geo.w, geo.h, src, dst, got, want)
			}
			path := m.route(src, dst)
			if len(path) != want {
				t.Fatalf("%dx%d: route(%d,%d) has %d links, want %d", geo.w, geo.h, src, dst, len(path), want)
			}
			cur := src
			sawY := false
			for _, lk := range path {
				if lk.node != cur {
					t.Fatalf("%dx%d: route(%d,%d) link leaves %d, head is at %d", geo.w, geo.h, src, dst, lk.node, cur)
				}
				switch lk.dir {
				case east:
					cur++
				case west:
					cur--
				case north:
					cur += geo.w
				case south:
					cur -= geo.w
				}
				if lk.dir == north || lk.dir == south {
					sawY = true
				} else if sawY {
					t.Fatalf("%dx%d: route(%d,%d) moves in X after Y (not dimension-ordered)", geo.w, geo.h, src, dst)
				}
				if cur < 0 || cur >= n {
					t.Fatalf("%dx%d: route(%d,%d) walks to node %d outside the mesh", geo.w, geo.h, src, dst, cur)
				}
			}
			if cur != dst {
				t.Fatalf("%dx%d: route(%d,%d) ends at %d", geo.w, geo.h, src, dst, cur)
			}
		}
	}
}

// Per-link clock indexing on a non-square mesh: a boundary-hugging send
// must advance exactly the link clocks of its XY route — no neighbor's
// clock, no out-of-range slot. The inlined walk in transitAt and the
// materialized route must agree on which slots those are.
func TestLargeMeshLinkClockIndexing(t *testing.T) {
	const w, h = 32, 40
	cases := [][2]int{
		{0, w - 1},           // top row, pure east
		{w - 1, 0},           // top row, pure west
		{0, (h - 1) * w},     // left column, pure north
		{(h - 1) * w, 0},     // left column, pure south
		{w - 1, w*h - 1},     // right column
		{w*h - 1, 0},         // corner to corner
		{w - 1, (h - 1) * w}, // anti-diagonal
		{17*w + 5, 3*w + 29}, // interior, west then south
	}
	for _, c := range cases {
		src, dst := c[0], c[1]
		k := sim.NewKernel()
		m := New(k, scaleConfig(w, h))
		m.Send(src, dst, 4096, nil)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		want := make(map[int]bool)
		for _, lk := range m.route(src, dst) {
			want[linkIndex(lk.node, lk.dir)] = true
		}
		for i, free := range m.linkFree {
			if free > 0 != want[i] {
				t.Fatalf("send %d->%d: link slot %d (node %d dir %d) advanced=%v, on route=%v",
					src, dst, i, i/4, i%4, free > 0, want[i])
			}
		}
		if m.injectFree[src] == 0 || m.ejectFree[dst] == 0 {
			t.Fatalf("send %d->%d: port clocks not advanced", src, dst)
		}
	}
}

// The binary-search outage lookup must agree with a naive linear scan
// at every probe, including the interval boundaries (closed-open
// [at, until)) and times before, between, and after all intervals.
func TestOutageLookupMatchesLinearScan(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, scaleConfig(32, 40))

	const node = 777
	rng := rand.New(rand.NewSource(99))
	var ref []outage
	at := sim.Time(0)
	for i := 0; i < 64; i++ {
		at += sim.Time(1 + rng.Intn(1000))
		until := at + sim.Time(1+rng.Intn(500))
		m.AddOutage(node, at, until)
		ref = append(ref, outage{at: at, until: until})
		at = until
	}
	linear := func(t sim.Time) bool {
		for _, o := range ref {
			if t >= o.at && t < o.until {
				return true
			}
		}
		return false
	}
	var probes []sim.Time
	for _, o := range ref {
		probes = append(probes, o.at-1, o.at, o.at+1, o.until-1, o.until, o.until+1)
	}
	for i := 0; i < 2000; i++ {
		probes = append(probes, sim.Time(rng.Intn(int(at)+5000)))
	}
	for _, p := range probes {
		if got, want := m.downAt(node, p), linear(p); got != want {
			t.Fatalf("downAt(%d, %v) = %v, linear reference says %v", node, p, got, want)
		}
	}
	// A node with no schedule is never down.
	if m.downAt(3, 12345) {
		t.Fatal("outage-free node reported down")
	}
}
