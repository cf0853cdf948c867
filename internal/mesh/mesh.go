// Package mesh models the Intel Paragon's 2-D mesh interconnect.
//
// Messages are routed XY (all X hops, then all Y hops), the deadlock-free
// dimension-order routing the Paragon used. Each unidirectional link and
// each node's injection/ejection port is a serially reusable resource: a
// message occupies it for size/bandwidth. The head of a message advances
// one hop per HopLatency (virtual cut-through), so an uncontended
// transfer costs
//
//	SoftwareOverhead + hops·HopLatency + size/LinkBandwidth
//
// and contention appears as queueing delay on whichever link or port is
// busiest. Occupancy is resolved analytically at send time with per-link
// free-at clocks, which is deterministic and accurate for the traffic
// levels in this repository (the Paragon's 175 MB/s links are never the
// bottleneck against mid-90s SCSI RAID arrays; disks are).
package mesh

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Config describes the interconnect hardware.
type Config struct {
	Width, Height int      // mesh dimensions; Width*Height node slots
	HopLatency    sim.Time // per-hop header latency
	LinkBandwidth float64  // bytes per second per link
	NICBandwidth  float64  // bytes per second through a node's network port
	SendOverhead  sim.Time // software cost to initiate a message (sender CPU)
	RecvOverhead  sim.Time // software cost to accept a message (receiver CPU)
}

// Paragon returns a configuration with Intel Paragon XP/S-era parameters:
// 175 MB/s links, ~40 ns per hop in hardware, and OSF/1 message-passing
// software overheads in the tens of microseconds.
func Paragon(width, height int) Config {
	return Config{
		Width:         width,
		Height:        height,
		HopLatency:    40 * sim.Nanosecond,
		LinkBandwidth: 175e6,
		NICBandwidth:  175e6,
		SendOverhead:  30 * sim.Microsecond,
		RecvOverhead:  20 * sim.Microsecond,
	}
}

// direction of a unidirectional link leaving a node.
type direction uint8

const (
	east direction = iota
	west
	north
	south
)

// linkKey identifies one unidirectional link by its origin node and
// direction. The occupancy clocks themselves live in a flat slice
// indexed by node*4+dir (see Mesh.linkFree): every hop of every message
// touches a link clock, and a map lookup there costs a hash per hop
// where the slice costs an add and a bounds check.
type linkKey struct {
	node int
	dir  direction
}

// linkIndex is the linkFree slot for the link leaving node in dir.
func linkIndex(node int, dir direction) int { return node*4 + int(dir) }

// Mesh is the interconnect instance. All methods must be called from
// simulation context (events or processes of the owning kernel).
type Mesh struct {
	k   *sim.Kernel
	cfg Config

	linkFree   []sim.Time // per-link clock, indexed linkIndex(node, dir): earliest next use
	injectFree []sim.Time // per-node injection port clock
	ejectFree  []sim.Time // per-node ejection port clock
	outages    [][]outage // per-node static down intervals (see AddOutage)

	// Measurements.
	Messages int64
	Bytes    int64
	Dropped  int64           // messages addressed to a down node
	Latency  stats.Histogram // end-to-end message latency, seconds
}

// outage is one closed-open [at, until) interval during which a node
// drops deliveries. The machine layer knows every outage at build time,
// so the schedule is static and the lookup is a pure function of the
// send time.
type outage struct{ at, until sim.Time }

// New builds a mesh on kernel k. It panics on a non-positive geometry or
// bandwidth, which would make every transfer time undefined.
func New(k *sim.Kernel, cfg Config) *Mesh {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		panic(fmt.Sprintf("mesh: bad geometry %dx%d", cfg.Width, cfg.Height))
	}
	if cfg.LinkBandwidth <= 0 || cfg.NICBandwidth <= 0 {
		panic("mesh: bandwidth must be positive")
	}
	n := cfg.Width * cfg.Height
	return &Mesh{
		k:          k,
		cfg:        cfg,
		linkFree:   make([]sim.Time, n*4),
		injectFree: make([]sim.Time, n),
		ejectFree:  make([]sim.Time, n),
		outages:    make([][]outage, n),
	}
}

// Nodes reports the number of node slots in the mesh.
func (m *Mesh) Nodes() int { return m.cfg.Width * m.cfg.Height }

// AddOutage schedules a static delivery outage for node over [at,
// until). Messages sent to the node inside the interval traverse the
// mesh — the links do not know the destination died — but the delivery
// callback never runs: the NIC has no host to hand the message to.
// Senders see nothing, exactly like the real machine, and discover the
// loss by timeout. An outage must be added before the simulation
// reaches its start; intervals of one node must be added in
// nondecreasing, non-overlapping order (the machine layer merges them).
func (m *Mesh) AddOutage(node int, at, until sim.Time) {
	if node < 0 || node >= m.Nodes() {
		panic(fmt.Sprintf("mesh: node %d outside %d-node mesh", node, m.Nodes()))
	}
	if until <= at {
		panic(fmt.Sprintf("mesh: empty outage [%v, %v)", at, until))
	}
	m.outages[node] = append(m.outages[node], outage{at: at, until: until})
}

// downAt reports whether node drops deliveries for a message sent at t.
// AddOutage requires sorted, non-overlapping intervals per node, so a
// binary search for the first interval ending after t replaces a linear
// scan (chaos schedules at large node counts put many outages on the
// hot delivery path).
func (m *Mesh) downAt(node int, t sim.Time) bool {
	list := m.outages[node]
	lo, hi := 0, len(list)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if list[mid].until <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(list) && t >= list[lo].at
}

// coord maps a node id to mesh coordinates.
func (m *Mesh) coord(id int) (x, y int) { return id % m.cfg.Width, id / m.cfg.Width }

// route returns the XY path from src to dst as a sequence of links.
func (m *Mesh) route(src, dst int) []linkKey {
	x, y := m.coord(src)
	dx, dy := m.coord(dst)
	var path []linkKey
	cur := src
	for x != dx {
		if x < dx {
			path = append(path, linkKey{cur, east})
			x++
		} else {
			path = append(path, linkKey{cur, west})
			x--
		}
		cur = y*m.cfg.Width + x
	}
	for y != dy {
		if y < dy {
			path = append(path, linkKey{cur, north})
			y++
		} else {
			path = append(path, linkKey{cur, south})
			y--
		}
		cur = y*m.cfg.Width + x
	}
	return path
}

// Hops reports the XY hop count between two nodes.
func (m *Mesh) Hops(src, dst int) int {
	x, y := m.coord(src)
	dx, dy := m.coord(dst)
	abs := func(v int) int {
		if v < 0 {
			return -v
		}
		return v
	}
	return abs(x-dx) + abs(y-dy)
}

// occupy advances a resource clock: the transfer starts at
// max(arrival, free) and holds the resource for dur. It returns the start
// time.
func occupy(free *sim.Time, arrival sim.Time, dur sim.Time) sim.Time {
	start := arrival
	if *free > start {
		start = *free
	}
	*free = start + dur
	return start
}

// Send transmits size bytes from node src to node dst, invoking deliver on
// the destination when the tail of the message (and the receiver software
// overhead) has arrived. It returns the delivery time. Send itself does
// not consume sender CPU time; callers that model a blocking sender should
// sleep SendOverhead around the call.
func (m *Mesh) Send(src, dst int, size int64, deliver func()) sim.Time {
	deliveredAt, delivered := m.transitAt(m.k.Now(), src, dst, size)
	if delivered && deliver != nil {
		m.k.At(deliveredAt, deliver)
	}
	return deliveredAt
}

// SendCall is Send with a pooled-args delivery callback (see
// sim.Kernel.AtCall): deliver(arg) runs at the destination with no
// closure constructed, making the whole send allocation-free. Routing,
// timing, accounting, and drop behavior are identical to Send.
func (m *Mesh) SendCall(src, dst int, size int64, deliver func(any), arg any) sim.Time {
	deliveredAt, delivered := m.transitAt(m.k.Now(), src, dst, size)
	if delivered && deliver != nil {
		m.k.AtCall(deliveredAt, deliver, arg)
	}
	return deliveredAt
}

// transitAt routes a message sent at now, advances the port and link
// clocks, and records the measurement. delivered is false when the
// destination is down and the delivery callback must not run.
func (m *Mesh) transitAt(now sim.Time, src, dst int, size int64) (deliveredAt sim.Time, delivered bool) {
	if src < 0 || src >= m.Nodes() || dst < 0 || dst >= m.Nodes() {
		panic(fmt.Sprintf("mesh: send %d->%d outside %d-node mesh", src, dst, m.Nodes()))
	}
	if size < 0 {
		panic("mesh: negative message size")
	}
	m.Messages++
	m.Bytes += size

	xfer := bytesTime(size, m.cfg.LinkBandwidth)
	nicXfer := bytesTime(size, m.cfg.NICBandwidth)

	// Software initiation, then the injection port.
	headAt := now + m.cfg.SendOverhead
	start := occupy(&m.injectFree[src], headAt, nicXfer)

	// The head advances one hop per HopLatency; each link is held for the
	// serialization time of the whole message from the moment the head
	// claims it. The XY walk is inlined (rather than materializing the
	// route) so the per-message path costs no allocation.
	arrival := start
	x, y := m.coord(src)
	dx, dy := m.coord(dst)
	cur := src
	for x != dx {
		var dir direction
		if x < dx {
			dir, x = east, x+1
		} else {
			dir, x = west, x-1
		}
		arrival = occupy(&m.linkFree[linkIndex(cur, dir)], arrival+m.cfg.HopLatency, xfer)
		cur = y*m.cfg.Width + x
	}
	for y != dy {
		var dir direction
		if y < dy {
			dir, y = north, y+1
		} else {
			dir, y = south, y-1
		}
		arrival = occupy(&m.linkFree[linkIndex(cur, dir)], arrival+m.cfg.HopLatency, xfer)
		cur = y*m.cfg.Width + x
	}

	// Ejection port at the destination, then the tail (serialization time)
	// and receive-side software.
	ejStart := occupy(&m.ejectFree[dst], arrival+m.cfg.HopLatency, nicXfer)
	deliveredAt = ejStart + nicXfer + m.cfg.RecvOverhead

	m.Latency.Observe((deliveredAt - now).Seconds())
	if m.downAt(dst, now) {
		m.Dropped++
		return deliveredAt, false
	}
	return deliveredAt, true
}

// bytesTime converts a byte count at a bandwidth to a duration.
func bytesTime(size int64, bw float64) sim.Time {
	return sim.Time(float64(size) / bw * float64(sim.Second))
}
