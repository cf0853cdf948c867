package ionode

import (
	"testing"

	"repro/internal/disk"
	"repro/internal/mesh"
	"repro/internal/sim"
	"repro/internal/ufs"
)

// rig builds a 2x2 mesh with one server at node 3 and returns the pieces.
func rig(t *testing.T) (*sim.Kernel, *mesh.Mesh, *Server) {
	t.Helper()
	k := sim.NewKernel()
	m := mesh.New(k, mesh.Paragon(2, 2))
	a := disk.NewArray(k, "raid", 4, disk.Seagate94601(), disk.FIFO, 500*sim.Microsecond)
	cfg := ufs.DefaultConfig()
	cfg.Fragmentation = 0
	fs := ufs.New(k, a, cfg)
	if err := fs.Create("stripe", 8<<20); err != nil {
		t.Fatal(err)
	}
	return k, m, New(k, m, 3, fs, 300*sim.Microsecond)
}

// callReply adapts a func(error) reply, carried as arg, to the
// callback form.
func callReply(v any, err error) { v.(func(error))(err) }

// readReply issues a ReadCall from node 0 for local file name (an
// invalid handle when it does not exist) and hands the outcome to reply.
func readReply(s *Server, name string, off, n int64, fastPath bool, reply func(error)) {
	h, _ := s.FS().Lookup(name)
	s.ReadCall(0, 0, h, off, n, fastPath, callReply, reply)
}

// writeReply is readReply for WriteCall.
func writeReply(s *Server, name string, off, n int64, reply func(error)) {
	h, _ := s.FS().Lookup(name)
	s.WriteCall(0, h, off, n, callReply, reply)
}

// hint sends the server a Prefetch hint for local file name.
func hint(s *Server, name string, off, n int64) {
	h, _ := s.FS().Lookup(name)
	s.Prefetch(h, off, n)
}

func TestReadRoundTrip(t *testing.T) {
	k, m, s := rig(t)
	var done bool
	var when sim.Time
	// Simulate a client at node 0 sending a request, then the server
	// replying.
	m.Send(0, 3, 128, func() {
		readReply(s, "stripe", 0, 64<<10, true, func(err error) {
			if err != nil {
				t.Errorf("reply err: %v", err)
			}
			done = true
			when = k.Now()
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("reply never arrived")
	}
	// Sanity: a 64 KB read off a cold array takes ~10-30 ms in this model.
	if when < 5*sim.Millisecond || when > 100*sim.Millisecond {
		t.Fatalf("round trip %v outside plausible window", when)
	}
	if s.Requests != 1 || s.BytesServed != 64<<10 {
		t.Fatalf("Requests=%d BytesServed=%d", s.Requests, s.BytesServed)
	}
	if s.Service.N() != 1 {
		t.Fatalf("service samples = %d", s.Service.N())
	}
}

func TestReadErrorReply(t *testing.T) {
	k, _, s := rig(t)
	var got error
	k.At(0, func() {
		readReply(s, "missing", 0, 64<<10, true, func(err error) { got = err })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("expected error reply for missing file")
	}
	if s.BytesServed != 0 {
		t.Fatal("error reply should serve no bytes")
	}
}

func TestWriteRoundTrip(t *testing.T) {
	k, _, s := rig(t)
	var done bool
	k.At(0, func() {
		writeReply(s, "stripe", 0, 64<<10, func(err error) {
			if err != nil {
				t.Errorf("write reply err: %v", err)
			}
			done = true
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("write reply never arrived")
	}
	if s.Requests != 1 || s.BytesServed != 64<<10 || s.Service.N() != 1 {
		t.Fatalf("Requests=%d BytesServed=%d service samples=%d", s.Requests, s.BytesServed, s.Service.N())
	}
}

func TestDispatchSerializes(t *testing.T) {
	k, _, s := rig(t)
	var completions []sim.Time
	k.At(0, func() {
		for i := 0; i < 4; i++ {
			off := int64(i) * (64 << 10)
			readReply(s, "stripe", off, 64<<10, true, func(err error) {
				if err != nil {
					t.Errorf("reply err: %v", err)
				}
				completions = append(completions, k.Now())
			})
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(completions) != 4 {
		t.Fatalf("%d completions, want 4", len(completions))
	}
	for i := 1; i < len(completions); i++ {
		if completions[i] <= completions[i-1] {
			t.Fatalf("completions not strictly ordered: %v", completions)
		}
	}
}

func TestConcurrentRequestsShareDisk(t *testing.T) {
	// Four sequential 64 KB reads back-to-back should take much less than
	// 4x a cold single read because the disk stays on-track.
	k, _, s := rig(t)
	var last sim.Time
	k.At(0, func() {
		for i := 0; i < 4; i++ {
			off := int64(i) * (64 << 10)
			readReply(s, "stripe", off, 64<<10, true, func(err error) { last = k.Now() })
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	single := coldSingleReadTime(t)
	if last >= 4*single {
		t.Fatalf("4 sequential reads took %v, want < 4x cold single (%v)", last, 4*single)
	}
}

func TestPrefetchHintWarmsCache(t *testing.T) {
	k, _, s := rig(t)
	hint(s, "stripe", 0, 64<<10)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if s.PrefetchHints != 1 {
		t.Fatalf("PrefetchHints = %d", s.PrefetchHints)
	}
	// A buffered read of the hinted range now hits the cache.
	var when sim.Time
	k.At(k.Now(), func() {
		readReply(s, "stripe", 0, 64<<10, false, func(err error) {
			if err != nil {
				t.Errorf("reply err: %v", err)
			}
			when = k.Now()
		})
	})
	warmStart := k.Now()
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if s.FS().CacheHits != 1 {
		t.Fatalf("CacheHits = %d after hint", s.FS().CacheHits)
	}
	// Cache-hit service is orders of magnitude under a disk read.
	if when-warmStart > 10*sim.Millisecond {
		t.Fatalf("warm read took %v", when-warmStart)
	}
}

func TestPrefetchHintBadRangeIsDropped(t *testing.T) {
	k, _, s := rig(t)
	hint(s, "ghost", 0, 64<<10)  // missing file
	hint(s, "stripe", 1<<30, 64) // out of range
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Fire-and-forget: counted, no crash, no replies.
	if s.PrefetchHints != 2 {
		t.Fatalf("PrefetchHints = %d", s.PrefetchHints)
	}
}

func coldSingleReadTime(t *testing.T) sim.Time {
	k, _, s := rig(t)
	var when sim.Time
	k.At(0, func() {
		readReply(s, "stripe", 0, 64<<10, true, func(error) { when = k.Now() })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return when
}
