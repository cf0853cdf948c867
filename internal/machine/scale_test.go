package machine

import (
	"testing"
)

// scaleConfig is the full-size machine of the scale experiments: 1024
// compute + 256 I/O nodes with tiled stripe groups.
func scaleConfig() Config {
	cfg := DefaultConfig()
	cfg.ComputeNodes = 1024
	cfg.IONodes = 256
	cfg.PFS.GroupWidth = 16
	return cfg
}

func TestBuildScaleShape(t *testing.T) {
	m := Build(scaleConfig())
	if len(m.Compute) != 1024 || len(m.Servers) != 256 || len(m.Arrays) != 256 {
		t.Fatalf("built %d compute / %d servers / %d arrays", len(m.Compute), len(m.Servers), len(m.Arrays))
	}
	// 1280 nodes fit a 36x36 near-square grid.
	if got := m.cfg.Mesh; got.Width != 36 || got.Height != 36 {
		t.Fatalf("mesh %dx%d, want 36x36", got.Width, got.Height)
	}
}

// Assembling the 1024x256 machine must stay cheap: the scale
// experiments build one machine per grid cell, so a quadratic or
// per-node-heavy Build would dominate the sweep. The budget is a fixed
// ceiling (~16 allocations per node slot) with headroom over the ~13.5k
// measured at the time of writing; breaching it means an accidental
// per-node blowup, not noise.
func TestBuildScaleAllocBudget(t *testing.T) {
	cfg := scaleConfig()
	allocs := testing.AllocsPerRun(3, func() { Build(cfg) })
	const budget = 20000
	if allocs > budget {
		t.Fatalf("Build(1024x256) costs %.0f allocations, budget %d", allocs, budget)
	}
}
