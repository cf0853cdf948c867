package machine

import (
	"io"
	"testing"

	"repro/internal/pfs"
	"repro/internal/sim"
)

func TestBuildDefault(t *testing.T) {
	m := Build(DefaultConfig())
	if len(m.Compute) != 8 || len(m.Servers) != 8 || len(m.Arrays) != 8 {
		t.Fatalf("built %d compute / %d servers / %d arrays", len(m.Compute), len(m.Servers), len(m.Arrays))
	}
	if m.Mesh.Nodes() != 16 {
		t.Fatalf("mesh has %d slots, want 16", m.Mesh.Nodes())
	}
	// Compute and I/O node addresses must not collide.
	seen := make(map[int]bool)
	for _, c := range m.Compute {
		seen[c] = true
	}
	for _, s := range m.Servers {
		if seen[s.Node()] {
			t.Fatalf("I/O node shares mesh address %d with a compute node", s.Node())
		}
	}
}

func TestBuildAsymmetric(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ComputeNodes = 3
	cfg.IONodes = 5
	m := Build(cfg)
	// 8 nodes fit a 3x3 near-square grid.
	if got := m.cfg.Mesh; got.Width != 3 || got.Height != 3 {
		t.Fatalf("mesh %dx%d, want 3x3", got.Width, got.Height)
	}
	if m.Mesh.Nodes() < 8 {
		t.Fatalf("mesh has %d slots for 8 nodes", m.Mesh.Nodes())
	}
	cfg.ComputeNodes = 0
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero compute nodes did not panic")
			}
		}()
		Build(cfg)
	}()
}

func TestEndToEndReadAndStats(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ComputeNodes = 2
	cfg.IONodes = 2
	cfg.UFS.Fragmentation = 0
	m := Build(cfg)
	if err := m.FS.Create("f", 1<<20); err != nil {
		t.Fatal(err)
	}
	m.K.Go("reader", func(p *sim.Proc) {
		f, err := m.FS.Open("f", 0, pfs.MAsync, nil)
		if err != nil {
			t.Error(err)
			return
		}
		for {
			if _, err := f.Read(p, 128<<10); err == io.EOF {
				return
			} else if err != nil {
				t.Error(err)
				return
			}
		}
	})
	if err := m.K.Run(); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, b := range m.IONodeBytes() {
		total += b
	}
	if total != 1<<20 {
		t.Fatalf("I/O nodes served %d, want 1MiB", total)
	}
	if u := m.DiskUtilization(); u <= 0 || u > 1 {
		t.Fatalf("DiskUtilization = %v", u)
	}
}

func TestDistinctUFSLayouts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UFS.Fragmentation = 0.5
	m := Build(cfg)
	if err := m.FS.Create("f", 8<<20); err != nil {
		t.Fatal(err)
	}
	// With per-node seeds, fragmentation patterns differ; just ensure the
	// build wired distinct UFS instances (same pointer would be a bug).
	if m.Servers[0].FS() == m.Servers[1].FS() {
		t.Fatal("I/O nodes share a UFS instance")
	}
}
