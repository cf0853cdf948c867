package pfs

import (
	"fmt"

	"repro/internal/sim"
)

// OpenGroup coordinates the compute nodes that share a collective open
// (M_SYNC, M_RECORD, M_GLOBAL). It assigns ranks in open order, carries
// the per-operation barrier, and runs the round protocol that the Paragon
// OS used to set the individual file pointers before a collective
// operation: every party registers its request size, all synchronize, and
// offsets come out as the rank prefix-sum over the shared pointer (or the
// shared pointer itself for M_GLOBAL).
type OpenGroup struct {
	parties int
	barrier *sim.Barrier
	nextRnk int
	members []*File

	// Round state. The simulator runs one event at a time, so plain
	// fields suffice.
	sizes    []int64
	computed bool
	base     int64
	prefix   []int64
	total    int64
	uniform  bool
	pickedUp int
}

// NewOpenGroup creates a group for a known number of parties.
func NewOpenGroup(k *sim.Kernel, parties int) *OpenGroup {
	if parties <= 0 {
		panic("pfs: open group needs at least one party")
	}
	return &OpenGroup{
		parties: parties,
		barrier: sim.NewBarrier(k, parties),
		sizes:   make([]int64, parties),
		prefix:  make([]int64, parties),
	}
}

// join registers an open instance and returns its rank.
func (g *OpenGroup) join(f *File) int {
	if g.nextRnk >= g.parties {
		panic(fmt.Sprintf("pfs: open group of %d parties joined %d times", g.parties, g.nextRnk+1))
	}
	r := g.nextRnk
	g.nextRnk++
	g.members = append(g.members, f)
	return r
}

// round joins the calling party to the next collective round: it
// registers the party's request size and waits on the barrier, and
// done(arg, nil) runs once every party has arrived. done then takes the
// party's offset with claim.
func (g *OpenGroup) round(rank int, size int64, done func(any, error), arg any) {
	g.sizes[rank] = size
	g.barrier.WaitCall(done, arg)
}

// claim collects the calling party's offset in the round its barrier
// just released. For M_GLOBAL every party receives the same offset and
// the shared pointer advances by one request; otherwise offsets are the
// rank prefix-sum and the pointer advances by the round total. uniform
// reports whether all parties presented equal sizes (a requirement the
// caller enforces for M_RECORD and M_GLOBAL).
func (g *OpenGroup) claim(meta *fileMeta, rank int, global bool) (off int64, uniform bool) {
	if !g.computed {
		g.base = meta.sharedOff
		g.total = 0
		g.uniform = true
		for i, s := range g.sizes {
			g.prefix[i] = g.total
			g.total += s
			if s != g.sizes[0] {
				g.uniform = false
			}
		}
		if global {
			meta.sharedOff = g.base + g.sizes[0]
		} else {
			meta.sharedOff = g.base + g.total
		}
		g.computed = true
	}
	if global {
		off = g.base
	} else {
		off = g.base + g.prefix[rank]
	}
	uniform = g.uniform
	g.pickedUp++
	if g.pickedUp == g.parties {
		g.pickedUp = 0
		g.computed = false
	}
	return off, uniform
}
