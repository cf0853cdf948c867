package pfs

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"testing"

	"repro/internal/sim"
)

// FuzzModeOffsets drives random multi-party read workloads through every
// I/O mode and checks the file-pointer semantics from the delivery
// record: M_ASYNC follows the application's explicit pointer exactly;
// the statically-assigned collective modes deliver each rank its
// round-robin records; M_GLOBAL hands every party the whole file; and
// the shared-pointer modes tile the file exactly once across parties.
func FuzzModeOffsets(f *testing.F) {
	f.Add(uint8(5), uint8(0), []byte{1, 2, 3})
	f.Add(uint8(3), uint8(3), []byte{4, 4, 4, 4})
	f.Add(uint8(0), uint8(1), []byte{9})
	f.Add(uint8(4), uint8(2), []byte{0x81, 0x02, 0x43})

	f.Fuzz(func(t *testing.T, modeB, partiesB uint8, script []byte) {
		mode := Mode(modeB % 6)
		parties := 1 + int(partiesB%4)
		if len(script) == 0 {
			script = []byte{1}
		}
		if len(script) > 16 {
			script = script[:16]
		}
		req := int64(1+script[0]%8) * 16 << 10
		rounds := int64(1 + len(script)%5)
		size := req * int64(parties) * rounds
		maxRec := size / req

		r := newRig(t, parties, 2)
		if err := r.fsys.Create("f", size); err != nil {
			t.Fatal(err)
		}
		var group *OpenGroup
		if mode.Collective() {
			group = NewOpenGroup(r.k, parties)
		}

		files := make([]*File, parties)
		for i := 0; i < parties; i++ {
			i := i
			r.k.Go(fmt.Sprintf("reader%d", i), func(p *sim.Proc) {
				f, err := r.fsys.Open("f", r.compute[i], mode, group)
				if err != nil {
					t.Error(err)
					return
				}
				f.EnableDeliveryLog()
				files[i] = f
				if mode == MAsync {
					// Script-driven pointer: alternate explicit seeks and
					// sequential reads, checking Offset() after every call.
					for _, b := range script {
						if b&1 != 0 {
							want := (int64(b>>1) % maxRec) * req
							if err := f.SeekTo(want); err != nil {
								t.Errorf("seek %d: %v", want, err)
								return
							}
							if f.offset != want {
								t.Errorf("Offset=%d after SeekTo(%d)", f.offset, want)
								return
							}
						}
						before := f.offset
						n, err := f.Read(p, req)
						if err == io.EOF {
							if before != size {
								t.Errorf("EOF with pointer at %d of %d", before, size)
							}
							continue
						}
						if err != nil {
							t.Error(err)
							return
						}
						wantN := req
						if before+wantN > size {
							wantN = size - before
						}
						if n != wantN || f.offset != before+wantN {
							t.Errorf("read at %d: n=%d Offset=%d, want n=%d Offset=%d",
								before, n, f.offset, wantN, before+wantN)
							return
						}
					}
					return
				}
				for {
					if _, err := f.Read(p, req); err == io.EOF {
						return
					} else if err != nil && !errors.Is(err, ErrBadSize) {
						t.Error(err)
						return
					}
				}
			})
		}
		if err := r.k.Run(); err != nil {
			t.Fatal(err)
		}
		if t.Failed() {
			return
		}

		switch mode {
		case MAsync:
			// Pointer semantics were asserted inline.
		case MRecord, MSync:
			// Uniform record sizes make both assignments rank round-robin:
			// rank i's r-th record is record r*parties+i.
			for i, f := range files {
				for r, d := range f.Deliveries() {
					want := (int64(r)*int64(parties) + int64(i)) * req
					if d.Off != want || d.N != req {
						t.Fatalf("%v rank %d record %d: [%d,+%d), want [%d,+%d)",
							mode, i, r, d.Off, d.N, want, req)
					}
				}
			}
		case MGlobal:
			// Every party receives the whole file in order.
			for i, f := range files {
				ds := f.Deliveries()
				if int64(len(ds)) != maxRec {
					t.Fatalf("M_GLOBAL rank %d got %d records, want %d", i, len(ds), maxRec)
				}
				for r, d := range ds {
					if d.Off != int64(r)*req || d.N != req {
						t.Fatalf("M_GLOBAL rank %d record %d: [%d,+%d)", i, r, d.Off, d.N)
					}
				}
			}
		case MUnix, MLog:
			// Region claims are timing-dependent, but the union must tile
			// the file exactly once, and each party's own sequence must be
			// strictly increasing (the shared pointer never rewinds).
			var all []Delivery
			for i, f := range files {
				ds := f.Deliveries()
				for r := 1; r < len(ds); r++ {
					if ds[r].Off <= ds[r-1].Off {
						t.Fatalf("%v rank %d: pointer rewound %d -> %d", mode, i, ds[r-1].Off, ds[r].Off)
					}
				}
				all = append(all, ds...)
			}
			sort.Slice(all, func(i, j int) bool { return all[i].Off < all[j].Off })
			var at int64
			for _, d := range all {
				if d.Off != at {
					t.Fatalf("%v: coverage broken at %d (next delivery [%d,+%d))", mode, at, d.Off, d.N)
				}
				at += d.N
			}
			if at != size {
				t.Fatalf("%v: %d of %d bytes delivered", mode, at, size)
			}
		}
	})
}
