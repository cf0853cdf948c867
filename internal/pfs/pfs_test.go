package pfs

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/disk"
	"repro/internal/ionode"
	"repro/internal/mesh"
	"repro/internal/sim"
	"repro/internal/ufs"
)

// rig is a miniature Paragon: compute nodes on row 0, I/O nodes on row 1.
type rig struct {
	k       *sim.Kernel
	m       *mesh.Mesh
	fsys    *FileSystem
	compute []int // mesh addresses of compute nodes
}

func newRig(t testing.TB, computeNodes, ioNodes int) *rig {
	t.Helper()
	k := sim.NewKernel()
	// Near-square mesh: compute nodes first, I/O nodes after.
	total := computeNodes + ioNodes
	w := 1
	for w*w < total {
		w++
	}
	h := (total + w - 1) / w
	m := mesh.New(k, mesh.Paragon(w, h))
	var servers []*ionode.Server
	for i := 0; i < ioNodes; i++ {
		a := disk.NewArray(k, fmt.Sprintf("raid%d", i), 4, disk.Seagate94601(), disk.SCAN, 500*sim.Microsecond)
		cfg := ufs.DefaultConfig()
		cfg.Fragmentation = 0
		cfg.Seed = int64(i + 1)
		servers = append(servers, ionode.New(k, m, computeNodes+i, ufs.New(k, a, cfg), 300*sim.Microsecond))
	}
	fsys := Mount(k, m, servers, DefaultConfig())
	r := &rig{k: k, m: m, fsys: fsys}
	for i := 0; i < computeNodes; i++ {
		r.compute = append(r.compute, i)
	}
	return r
}

func TestDecluster(t *testing.T) {
	const su = 64 << 10
	cases := []struct {
		name   string
		off, n int64
		g      int
		want   []piece
	}{
		{"one unit", 0, su, 8, []piece{{0, 0, su}}},
		{"second unit", su, su, 8, []piece{{1, 0, su}}},
		{"wraps group", 8 * su, su, 8, []piece{{0, su, su}}},
		{"two units two servers", 0, 2 * su, 8, []piece{{0, 0, su}, {1, 0, su}}},
		{"sub-unit", 1024, 512, 8, []piece{{0, 1024, 512}}},
		{"spans boundary", su - 512, 1024, 8, []piece{{0, su - 512, 512}, {1, 0, 512}}},
		{"single server group", 0, 3 * su, 1, []piece{{0, 0, 3 * su}}},
		{"full round merges", 0, 16 * su, 8, []piece{
			{0, 0, 2 * su}, {1, 0, 2 * su}, {2, 0, 2 * su}, {3, 0, 2 * su},
			{4, 0, 2 * su}, {5, 0, 2 * su}, {6, 0, 2 * su}, {7, 0, 2 * su},
		}},
	}
	for _, c := range cases {
		got := decluster(c.off, c.n, su, c.g)
		if len(got) != len(c.want) {
			t.Errorf("%s: %d pieces, want %d (%v)", c.name, len(got), len(c.want), got)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s: piece %d = %+v, want %+v", c.name, i, got[i], c.want[i])
			}
		}
	}
}

// Property: declustered pieces cover exactly n bytes, land on valid
// servers, and each server gets at most one piece for a contiguous range.
func TestDeclusterProperties(t *testing.T) {
	if err := quick.Check(func(offRaw, nRaw uint32, suExp, gRaw uint8) bool {
		su := int64(1) << (10 + suExp%8) // 1 KB .. 128 KB
		g := int(gRaw%8) + 1
		off := int64(offRaw % (1 << 24))
		n := int64(nRaw%(1<<22)) + 1
		pieces := decluster(off, n, su, g)
		var total int64
		seen := make(map[int]bool)
		for _, pc := range pieces {
			if pc.server < 0 || pc.server >= g || pc.n <= 0 || pc.localOff < 0 {
				return false
			}
			if seen[pc.server] {
				return false // contiguous range must merge per server
			}
			seen[pc.server] = true
			total += pc.n
		}
		return total == n
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The indexed scratch-buffer decluster must produce byte-identical
// pieces to the naive reference across offsets, sizes, units, and group
// widths — including the wide-group regime the index exists for.
func TestDeclusterIntoMatchesReference(t *testing.T) {
	r := newRig(t, 1, 1)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		su := int64(1) << (10 + rng.Intn(8))
		g := 1 + rng.Intn(256)
		off := rng.Int63n(1 << 30)
		n := 1 + rng.Int63n(int64(g)*su*3)
		want := decluster(off, n, su, g)
		got := r.fsys.declusterInto(off, n, su, g)
		if len(got) != len(want) {
			t.Fatalf("case %d (off=%d n=%d su=%d g=%d): %d pieces, want %d",
				i, off, n, su, g, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("case %d (off=%d n=%d su=%d g=%d): piece %d = %+v, want %+v",
					i, off, n, su, g, j, got[j], want[j])
			}
		}
	}
}

// Create with GroupWidth set tiles successive files over successive
// GroupWidth-wide windows of the I/O partition, wrapping around.
func TestCreateGroupWidthTiling(t *testing.T) {
	r := newRig(t, 2, 6)
	r.fsys.cfg.GroupWidth = 4
	for i := 0; i < 4; i++ {
		if err := r.fsys.Create(fmt.Sprintf("f%d", i), 1<<20); err != nil {
			t.Fatal(err)
		}
	}
	// Tile i covers servers {(4i+j) % 6}; CreateStriped then applies the
	// legacy stripe-base rotation (created % width) within the tile.
	want := [][]int{
		{0, 1, 2, 3},
		{5, 0, 1, 4},
		{4, 5, 2, 3},
		{3, 0, 1, 2},
	}
	for i, w := range want {
		meta := r.fsys.files[clean(fmt.Sprintf("f%d", i))]
		if meta == nil {
			t.Fatalf("f%d missing", i)
		}
		if len(meta.group) != len(w) {
			t.Fatalf("f%d group %v, want %v", i, meta.group, w)
		}
		for j := range w {
			if meta.group[j] != w[j] {
				t.Fatalf("f%d group %v, want %v", i, meta.group, w)
			}
		}
	}
}

func TestCreateValidation(t *testing.T) {
	r := newRig(t, 2, 4)
	if err := r.fsys.Create("f", 1<<20); err != nil {
		t.Fatal(err)
	}
	if err := r.fsys.Create("f", 1<<20); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: %v", err)
	}
	if err := r.fsys.Create("bad", 0); err == nil {
		t.Fatal("zero-size create succeeded")
	}
	if err := r.fsys.CreateStriped("bad2", 1<<20, 0, []int{0}); err == nil {
		t.Fatal("zero stripe unit succeeded")
	}
	if err := r.fsys.CreateStriped("bad3", 1<<20, 64<<10, []int{9}); err == nil {
		t.Fatal("out-of-range group member succeeded")
	}
	if err := r.fsys.CreateStriped("bad4", 1<<20, 64<<10, nil); err == nil {
		t.Fatal("empty group succeeded")
	}
	if sz, err := r.fsys.Size("f"); err != nil || sz != 1<<20 {
		t.Fatalf("Size = %d, %v", sz, err)
	}
	if _, err := r.fsys.Size("ghost"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("Size(ghost): %v", err)
	}
}

func TestStripeFilesBalanced(t *testing.T) {
	r := newRig(t, 1, 4)
	// 16 units of 64 KB over 4 I/O nodes: 4 units (256 KB) each.
	if err := r.fsys.Create("f", 1<<20); err != nil {
		t.Fatal(err)
	}
	for i, srv := range r.fsys.servers {
		sz, err := srv.FS().Size("pfs:/f")
		if err != nil || sz != 256<<10 {
			t.Fatalf("I/O node %d stripe size = %d, %v; want 256KiB", i, sz, err)
		}
	}
	// Uneven: 5 units over 4 nodes. This is the second file created, so
	// the stripe base rotates to I/O node 1, which receives units 0 and 4.
	if err := r.fsys.Create("g", 5*64<<10); err != nil {
		t.Fatal(err)
	}
	want := []int64{64 << 10, 2 * 64 << 10, 64 << 10, 64 << 10}
	for i, srv := range r.fsys.servers {
		sz, _ := srv.FS().Size("pfs:/g")
		if sz != want[i] {
			t.Fatalf("I/O node %d stripe of g = %d, want %d", i, sz, want[i])
		}
	}
}

func TestOpenValidation(t *testing.T) {
	r := newRig(t, 2, 2)
	if err := r.fsys.Create("f", 1<<20); err != nil {
		t.Fatal(err)
	}
	if _, err := r.fsys.Open("ghost", 0, MAsync, nil); !errors.Is(err, ErrNotExist) {
		t.Fatalf("open missing: %v", err)
	}
	if _, err := r.fsys.Open("f", 0, Mode(9), nil); err == nil {
		t.Fatal("invalid mode accepted")
	}
	if _, err := r.fsys.Open("f", 0, MRecord, nil); !errors.Is(err, ErrNeedGroup) {
		t.Fatalf("collective без group: %v", err)
	}
	f, err := r.fsys.Open("f", 0, MAsync, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double close: %v", err)
	}
}

func TestAsyncSequentialRead(t *testing.T) {
	r := newRig(t, 1, 4)
	const size = 1 << 20
	if err := r.fsys.Create("f", size); err != nil {
		t.Fatal(err)
	}
	var total int64
	var calls int
	r.k.Go("reader", func(p *sim.Proc) {
		f, err := r.fsys.Open("f", 0, MAsync, nil)
		if err != nil {
			t.Error(err)
			return
		}
		defer f.Close()
		for {
			n, err := f.Read(p, 256<<10)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Error(err)
				return
			}
			total += n
			calls++
		}
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if total != size || calls != 4 {
		t.Fatalf("read %d bytes in %d calls, want %d in 4", total, calls, size)
	}
	// Everything came off the I/O nodes exactly once.
	var served int64
	for _, srv := range r.fsys.servers {
		served += srv.BytesServed
	}
	if served != size {
		t.Fatalf("I/O nodes served %d bytes, want %d", served, size)
	}
}

func TestSeek(t *testing.T) {
	r := newRig(t, 1, 2)
	if err := r.fsys.Create("f", 1<<20); err != nil {
		t.Fatal(err)
	}
	r.k.Go("reader", func(p *sim.Proc) {
		f, _ := r.fsys.Open("f", 0, MAsync, nil)
		if err := f.SeekTo(-1); err == nil {
			t.Error("negative seek succeeded")
		}
		if err := f.SeekTo(2 << 20); err == nil {
			t.Error("seek past EOF succeeded")
		}
		if err := f.SeekTo(512 << 10); err != nil {
			t.Error(err)
		}
		n, err := f.Read(p, 1<<20) // clamped to remaining half
		if err != nil || n != 512<<10 {
			t.Errorf("read after seek = %d, %v", n, err)
		}
		if _, err := f.Read(p, 1); err != io.EOF {
			t.Errorf("read at EOF = %v, want io.EOF", err)
		}
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
}

// runCollective drives nodes parties through a whole-file read in the
// given mode and returns total bytes read and the finish time.
func runCollective(t *testing.T, mode Mode, parties int, reqSize, fileSize int64) (int64, sim.Time) {
	t.Helper()
	r := newRig(t, parties, 8)
	if err := r.fsys.Create("f", fileSize); err != nil {
		t.Fatal(err)
	}
	var group *OpenGroup
	if mode.Collective() {
		group = NewOpenGroup(r.k, parties)
	}
	var total int64
	for i := 0; i < parties; i++ {
		i := i
		node := r.compute[i]
		r.k.Go(fmt.Sprintf("reader%d", i), func(p *sim.Proc) {
			f, err := r.fsys.Open("f", node, mode, group)
			if err != nil {
				t.Error(err)
				return
			}
			defer f.Close()
			// With individual pointers there is no implicit partitioning:
			// the benchmark walks the same interleaved record pattern as
			// M_RECORD, with the application managing its own pointer.
			if mode == MAsync {
				for round := int64(0); ; round++ {
					off := (round*int64(parties) + int64(i)) * reqSize
					if off >= fileSize {
						return
					}
					if err := f.SeekTo(off); err != nil {
						t.Error(err)
						return
					}
					n, err := f.Read(p, reqSize)
					if err == io.EOF {
						return
					}
					if err != nil {
						t.Error(err)
						return
					}
					total += n
				}
			}
			for {
				n, err := f.Read(p, reqSize)
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
	return total, r.k.Now()
}

func TestRecordModeCoversFile(t *testing.T) {
	total, _ := runCollective(t, MRecord, 4, 64<<10, 1<<20)
	if total != 1<<20 {
		t.Fatalf("M_RECORD read %d bytes, want %d (disjoint full coverage)", total, 1<<20)
	}
}

func TestSyncModeCoversFile(t *testing.T) {
	total, _ := runCollective(t, MSync, 4, 64<<10, 1<<20)
	if total != 1<<20 {
		t.Fatalf("M_SYNC read %d bytes, want %d", total, 1<<20)
	}
}

func TestUnixAndLogModesCoverFile(t *testing.T) {
	for _, mode := range []Mode{MUnix, MLog} {
		total, _ := runCollective(t, mode, 4, 64<<10, 1<<20)
		if total != 1<<20 {
			t.Fatalf("%v read %d bytes, want %d", mode, total, 1<<20)
		}
	}
}

func TestGlobalModeBroadcasts(t *testing.T) {
	// 4 parties × whole file: each read call returns the same region, so
	// total bytes = parties × file size, but the I/O nodes serve the file
	// only once.
	parties := 4
	fileSize := int64(512 << 10)
	r := newRig(t, parties, 8)
	if err := r.fsys.Create("f", fileSize); err != nil {
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
	if total != int64(parties)*fileSize {
		t.Fatalf("M_GLOBAL total = %d, want %d", total, int64(parties)*fileSize)
	}
	var served int64
	for _, srv := range r.fsys.servers {
		served += srv.BytesServed
	}
	if served != fileSize {
		t.Fatalf("I/O nodes served %d, want %d (data read once, then broadcast)", served, fileSize)
	}
}

func TestModePerformanceOrdering(t *testing.T) {
	// The Figure 2 shape: M_UNIX slowest, M_LOG faster, M_RECORD and
	// M_ASYNC fastest.
	const parties, req, size = 4, 64 << 10, 1 << 20
	times := make(map[Mode]sim.Time)
	for _, mode := range []Mode{MUnix, MLog, MSync, MRecord, MAsync} {
		_, elapsed := runCollective(t, mode, parties, req, size)
		times[mode] = elapsed
	}
	if !(times[MUnix] > times[MLog]) {
		t.Errorf("M_UNIX (%v) not slower than M_LOG (%v)", times[MUnix], times[MLog])
	}
	if !(times[MLog] > times[MRecord]) {
		t.Errorf("M_LOG (%v) not slower than M_RECORD (%v)", times[MLog], times[MRecord])
	}
	if !(times[MSync] > times[MRecord]) {
		t.Errorf("M_SYNC (%v) not slower than M_RECORD (%v)", times[MSync], times[MRecord])
	}
	if !(times[MRecord] >= times[MAsync]) {
		t.Errorf("M_RECORD (%v) faster than M_ASYNC (%v)", times[MRecord], times[MAsync])
	}
}

func TestRecordModeRequiresUniformSizes(t *testing.T) {
	r := newRig(t, 2, 2)
	if err := r.fsys.Create("f", 1<<20); err != nil {
		t.Fatal(err)
	}
	group := NewOpenGroup(r.k, 2)
	sawErr := 0
	for i := 0; i < 2; i++ {
		i := i
		node := r.compute[i]
		r.k.Go(fmt.Sprintf("reader%d", i), func(p *sim.Proc) {
			f, _ := r.fsys.Open("f", node, MRecord, group)
			size := int64(64 << 10)
			if i == 1 {
				size = 128 << 10
			}
			if _, err := f.Read(p, size); errors.Is(err, ErrBadSize) {
				sawErr++
			}
		})
	}
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	// The first operation on the file fixes the record size; the party
	// presenting a different size gets the error.
	if sawErr != 1 {
		t.Fatalf("%d parties saw ErrBadSize, want 1", sawErr)
	}
}

func TestARTFIFOAndCompletion(t *testing.T) {
	r := newRig(t, 1, 4)
	if err := r.fsys.Create("f", 1<<20); err != nil {
		t.Fatal(err)
	}
	var order []int
	r.k.Go("issuer", func(p *sim.Proc) {
		f, _ := r.fsys.Open("f", 0, MAsync, nil)
		var reqs []*Async
		for i := 0; i < 4; i++ {
			i := i
			a := f.IReadAt(int64(i)*256<<10, 256<<10)
			a.Done.OnFireCall(func(any, error) { order = append(order, i) }, nil)
			reqs = append(reqs, a)
		}
		if f.art.issued != 4 {
			t.Errorf("ART issued %d", f.art.issued)
		}
		for _, a := range reqs {
			if err := a.Done.Wait(p); err != nil {
				t.Errorf("async err: %v", err)
			}
		}
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("ART completion order %v, want FIFO", order)
		}
	}
}

func TestARTBadRequestFailsAsync(t *testing.T) {
	r := newRig(t, 1, 2)
	if err := r.fsys.Create("f", 1<<20); err != nil {
		t.Fatal(err)
	}
	r.k.Go("issuer", func(p *sim.Proc) {
		f, _ := r.fsys.Open("f", 0, MAsync, nil)
		a := f.IReadAt(1<<20, 64<<10) // past EOF
		if err := a.Done.Wait(p); err == nil {
			t.Error("out-of-range async read reported success")
		}
		f.Close()
		b := f.IReadAt(0, 1024)
		if err := b.Done.Wait(p); !errors.Is(err, ErrClosed) {
			t.Errorf("async after close: %v", err)
		}
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNextRecordOffset(t *testing.T) {
	r := newRig(t, 4, 2)
	if err := r.fsys.Create("f", 4<<20); err != nil {
		t.Fatal(err)
	}
	group := NewOpenGroup(r.k, 4)
	fr, err := r.fsys.Open("f", 0, MRecord, group)
	if err != nil {
		t.Fatal(err)
	}
	if got := fr.NextRecordOffset(64<<10, 64<<10); got != 64<<10+4*64<<10 {
		t.Fatalf("M_RECORD next = %d", got)
	}
	fa, err := r.fsys.Open("f", 1, MAsync, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := fa.NextRecordOffset(0, 64<<10); got != 64<<10 {
		t.Fatalf("M_ASYNC next = %d", got)
	}
	fu, err := r.fsys.Open("f", 2, MUnix, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := fu.NextRecordOffset(0, 64<<10); got >= 0 {
		t.Fatalf("M_UNIX should not predict, got %d", got)
	}
}

func TestModeStringsAndPredicates(t *testing.T) {
	if MUnix.String() != "M_UNIX" || MRecord.String() != "M_RECORD" || MAsync.String() != "M_ASYNC" {
		t.Fatal("mode names wrong")
	}
	if Mode(42).String() == "" {
		t.Fatal("unknown mode has empty name")
	}
	if !MRecord.Collective() || MAsync.Collective() {
		t.Fatal("Collective predicate wrong")
	}
	if Mode(-1).Valid() || Mode(6).Valid() || !MGlobal.Valid() {
		t.Fatal("Valid predicate wrong")
	}
}

func TestLargerRequestsHigherBandwidth(t *testing.T) {
	// Figure 2's dominant trend: bandwidth rises with request size.
	bw := func(req int64) float64 {
		total, elapsed := runCollective(t, MRecord, 4, req, 4<<20)
		return float64(total) / elapsed.Seconds()
	}
	small, large := bw(64<<10), bw(1<<20)
	if large <= small {
		t.Fatalf("1MB-request bandwidth (%.0f B/s) not above 64KB (%.0f B/s)", large, small)
	}
}

func TestReadStatsAccumulate(t *testing.T) {
	r := newRig(t, 1, 2)
	if err := r.fsys.Create("f", 512<<10); err != nil {
		t.Fatal(err)
	}
	var f *File
	r.k.Go("reader", func(p *sim.Proc) {
		f, _ = r.fsys.Open("f", 0, MAsync, nil)
		for {
			if _, err := f.Read(p, 128<<10); err != nil {
				return
			}
		}
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if f.ReadCalls != 4 || f.BytesRead != 512<<10 {
		t.Fatalf("ReadCalls=%d BytesRead=%d", f.ReadCalls, f.BytesRead)
	}
	if f.ReadTime.N() != 4 || f.ReadTime.Mean() <= 0 {
		t.Fatalf("ReadTime: N=%d mean=%v", f.ReadTime.N(), f.ReadTime.Mean())
	}
}

// Property: for random request sizes, an M_ASYNC scan reads the whole
// file exactly once.
func TestAsyncScanAlwaysCoversFile(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		req := int64(1+rng.Intn(64)) * 16 << 10
		size := int64(1+rng.Intn(16)) * 128 << 10
		r := newRig(t, 1, 4)
		if err := r.fsys.Create("f", size); err != nil {
			t.Fatal(err)
		}
		var total int64
		r.k.Go("reader", func(p *sim.Proc) {
			f, _ := r.fsys.Open("f", 0, MAsync, nil)
			for {
				n, err := f.Read(p, req)
				if err != nil {
					return
				}
				total += n
			}
		})
		if err := r.k.Run(); err != nil {
			return false
		}
		return total == size
	}, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
