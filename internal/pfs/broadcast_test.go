package pfs

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/sim"
)

// TestGlobalBroadcastTree runs one M_GLOBAL round with 16 parties and
// checks the binomial tree: everyone gets the data, the file is read off
// the disks once, and the fan-out does not serialize through the root
// (the spread between first and last delivery stays well under the
// serial 15-message injection bound).
func TestGlobalBroadcastTree(t *testing.T) {
	const parties = 16
	const req = 256 << 10
	r := newRig(t, parties, 4)
	if err := r.fsys.Create("f", req); err != nil {
		t.Fatal(err)
	}
	group := NewOpenGroup(r.k, parties)
	times := make([]sim.Time, parties)
	for i := 0; i < parties; i++ {
		i := i
		node := r.compute[i]
		r.k.Go(fmt.Sprintf("reader%d", i), func(p *sim.Proc) {
			f, err := r.fsys.Open("f", node, MGlobal, group)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := f.Read(p, req); err != nil {
				t.Error(err)
				return
			}
			times[i] = p.Now()
		})
	}
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	var served int64
	for _, srv := range r.fsys.servers {
		served += srv.BytesServed
	}
	if served != req {
		t.Fatalf("I/O nodes served %d, want one file's worth %d", served, req)
	}
	minT, maxT := times[0], times[0]
	for _, ti := range times {
		if ti == 0 {
			t.Fatal("a party never completed")
		}
		if ti < minT {
			minT = ti
		}
		if ti > maxT {
			maxT = ti
		}
	}
	// Serial broadcast would push 15 × 256 KB through the root's port:
	// ≥ 15 × 1.46 ms ≈ 22 ms of spread. The tree needs 4 levels.
	serialSpread := sim.Seconds(15 * float64(req) / 175e6)
	if spread := maxT - minT; spread >= serialSpread {
		t.Fatalf("delivery spread %v not below serial bound %v: tree not effective", spread, serialSpread)
	}
}

// TestGlobalBroadcastManyRounds checks tree forwarding stays correct
// across repeated rounds (credits must not leak or double-fire).
func TestGlobalBroadcastManyRounds(t *testing.T) {
	const parties = 6 // non-power-of-two exercises ragged trees
	r := newRig(t, parties, 2)
	if err := r.fsys.Create("f", 512<<10); err != nil {
		t.Fatal(err)
	}
	group := NewOpenGroup(r.k, parties)
	var total int64
	for i := 0; i < parties; i++ {
		node := r.compute[i]
		r.k.Go(fmt.Sprintf("reader%d", i), func(p *sim.Proc) {
			f, err := r.fsys.Open("f", node, MGlobal, group)
			if err != nil {
				t.Error(err)
				return
			}
			for {
				n, err := f.Read(p, 64<<10)
				if err == io.EOF {
					return
				}
				if err != nil {
					t.Error(err)
					return
				}
				total += n
			}
		})
	}
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := int64(parties) * 512 << 10; total != want {
		t.Fatalf("delivered %d, want %d", total, want)
	}
}
