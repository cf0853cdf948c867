package twophase

import (
	"runtime"
	"testing"

	"repro/internal/machine"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/workload"
)

func build(t *testing.T, fileSize int64) *machine.Machine {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.ComputeNodes = 4
	cfg.IONodes = 4
	cfg.UFS.Fragmentation = 0
	m := machine.Build(cfg)
	t.Cleanup(m.Close)
	if err := m.FS.Create("f", fileSize); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestReadCompletes(t *testing.T) {
	m := build(t, 8<<20)
	res, err := Read(m, "f", 16<<10, 4, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalBytes != 8<<20 {
		t.Fatalf("TotalBytes = %d", res.TotalBytes)
	}
	if !(0 < res.Phase1 && res.Phase1 <= res.Elapsed) {
		t.Fatalf("phase1 %v, elapsed %v", res.Phase1, res.Elapsed)
	}
	// Every byte came off the I/O nodes exactly once.
	var served int64
	for _, b := range m.IONodeBytes() {
		served += b
	}
	if served != 8<<20 {
		t.Fatalf("I/O nodes served %d", served)
	}
	// The exchange moved 3/4 of the data over the mesh.
	if m.Mesh.Bytes < 6<<20 {
		t.Fatalf("mesh moved %d bytes, want ≥ 6MiB of redistribution", m.Mesh.Bytes)
	}
}

func TestValidation(t *testing.T) {
	m := build(t, 8<<20)
	if _, err := Read(m, "ghost", 16<<10, 4, DefaultConfig()); err == nil {
		t.Fatal("missing file accepted")
	}
	if _, err := Read(m, "f", 16<<10, 9, DefaultConfig()); err == nil {
		t.Fatal("too many parties accepted")
	}
	if _, err := Read(m, "f", 3<<10, 4, DefaultConfig()); err == nil {
		t.Fatal("non-divisible record size accepted")
	}
}

func TestBeatsDirectSmallStridedReads(t *testing.T) {
	// The motivating case: 4 KB interleaved records. Direct access makes
	// thousands of sub-block strided requests; two-phase reads 1 MB
	// chunks and redistributes.
	const fileSize, record = 8 << 20, 4 << 10

	direct, err := workload.Run(func() machine.Config {
		cfg := machine.DefaultConfig()
		cfg.ComputeNodes = 4
		cfg.IONodes = 4
		cfg.UFS.Fragmentation = 0
		return cfg
	}(), workload.Spec{
		FileSize:    fileSize,
		RequestSize: record,
		Mode:        pfs.MRecord,
	})
	if err != nil {
		t.Fatal(err)
	}

	m := build(t, fileSize)
	tp, err := Read(m, "f", record, 4, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if tp.Elapsed >= direct.Elapsed/2 {
		t.Fatalf("two-phase %v not at least 2x faster than direct %v for 4KB records",
			tp.Elapsed, direct.Elapsed)
	}
}

func TestDeterministic(t *testing.T) {
	once := func() sim.Time {
		m := build(t, 4<<20)
		res, err := Read(m, "f", 16<<10, 4, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed
	}
	if a, b := once(), once(); a != b {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
}

// TestCloseEndsProcesses: the two-phase read runs one process per node,
// and closing the machine ends their coroutines, so no goroutine
// outlives it.
func TestCloseEndsProcesses(t *testing.T) {
	before := runtime.NumGoroutine()
	m := build(t, 8<<20)
	if _, err := Read(m, "f", 16<<10, 4, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if m.K.Stats().Started == 0 {
		t.Fatal("the read started no process, so it proves nothing")
	}
	m.Close()
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("%d goroutines after the read, %d before", g, before)
	}
}
