package workload

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/pfs"
	"repro/internal/prefetch"
	"repro/internal/sim"
)

func cfg4x4() machine.Config {
	c := machine.DefaultConfig()
	c.ComputeNodes = 4
	c.IONodes = 4
	c.UFS.Fragmentation = 0
	return c
}

func TestValidate(t *testing.T) {
	c := cfg4x4()
	cases := []Spec{
		{FileSize: 0, RequestSize: 64 << 10, Mode: pfs.MRecord},
		{FileSize: -1, RequestSize: 64 << 10, Mode: pfs.MRecord},
		{FileSize: 1 << 20, RequestSize: 0, Mode: pfs.MRecord},
		{FileSize: 1 << 20, RequestSize: 64 << 10, Mode: pfs.Mode(17)},
		{FileSize: 1 << 20, RequestSize: 64 << 10, Mode: pfs.MRecord, StripeGroup: 9},
		{FileSize: 1<<20 + 3, RequestSize: 64 << 10, Mode: pfs.MAsync, SeparateFiles: true},
	}
	for i, spec := range cases {
		if _, err := Run(c, spec); err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}
}

func TestRecordRun(t *testing.T) {
	res, err := Run(cfg4x4(), Spec{
		FileSize:    4 << 20,
		RequestSize: 64 << 10,
		Mode:        pfs.MRecord,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalBytes != 4<<20 {
		t.Fatalf("TotalBytes = %d, want full file", res.TotalBytes)
	}
	if res.Bandwidth <= 0 || res.Elapsed <= 0 {
		t.Fatalf("Bandwidth=%v Elapsed=%v", res.Bandwidth, res.Elapsed)
	}
	if len(res.NodeTimes) != 4 {
		t.Fatalf("NodeTimes = %d entries", len(res.NodeTimes))
	}
	if res.ReadTime.N() != 64 { // 4 MB / 64 KB = 64 read calls
		t.Fatalf("ReadTime samples = %d, want 64", res.ReadTime.N())
	}
	// Load balance: all I/O nodes served the same amount.
	bytes := res.Machine.IONodeBytes()
	for i, b := range bytes {
		if b != bytes[0] {
			t.Fatalf("I/O node %d served %d, node 0 served %d: unbalanced", i, b, bytes[0])
		}
	}
}

func TestSeparateFilesRun(t *testing.T) {
	res, err := Run(cfg4x4(), Spec{
		FileSize:      4 << 20,
		RequestSize:   256 << 10,
		Mode:          pfs.MAsync,
		SeparateFiles: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalBytes != 4<<20 {
		t.Fatalf("TotalBytes = %d", res.TotalBytes)
	}
}

func TestPatterns(t *testing.T) {
	for _, pat := range []Pattern{Interleaved, Partitioned, Random, Strided} {
		spec := Spec{
			FileSize:    4 << 20,
			RequestSize: 128 << 10,
			Mode:        pfs.MAsync,
			Pattern:     pat,
			Stride:      2,
			Seed:        11,
		}
		res, err := Run(cfg4x4(), spec)
		if err != nil {
			t.Fatalf("%v: %v", pat, err)
		}
		if res.TotalBytes == 0 {
			t.Fatalf("%v read nothing", pat)
		}
		// Interleaved and Partitioned cover the file exactly once.
		if (pat == Interleaved || pat == Partitioned) && res.TotalBytes != 4<<20 {
			t.Fatalf("%v read %d bytes, want full file", pat, res.TotalBytes)
		}
	}
}

func TestPatternNames(t *testing.T) {
	if Interleaved.String() != "interleaved" || Strided.String() != "strided" {
		t.Fatal("pattern names wrong")
	}
	if Pattern(9).String() == "" {
		t.Fatal("unknown pattern empty")
	}
}

func TestBalancedPrefetchWins(t *testing.T) {
	// The headline result: with compute between reads, prefetching lifts
	// observed bandwidth.
	base := Spec{
		FileSize:     8 << 20,
		RequestSize:  64 << 10,
		Mode:         pfs.MRecord,
		ComputeDelay: 50 * sim.Millisecond,
	}
	plain, err := Run(cfg4x4(), base)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := prefetch.DefaultConfig()
	base.Prefetch = &pcfg
	fetched, err := Run(cfg4x4(), base)
	if err != nil {
		t.Fatal(err)
	}
	if fetched.Bandwidth <= plain.Bandwidth {
		t.Fatalf("prefetch BW %.2f ≤ plain %.2f with 50ms compute", fetched.Bandwidth, plain.Bandwidth)
	}
	if fetched.Prefetch == nil || fetched.Prefetch.HitRate() == 0 {
		t.Fatal("prefetch stats missing")
	}
	if fetched.TotalBytes != plain.TotalBytes {
		t.Fatal("prefetching changed bytes read")
	}
}

func TestStripeGroupOne(t *testing.T) {
	spec := Spec{
		FileSize:    2 << 20,
		RequestSize: 64 << 10,
		Mode:        pfs.MRecord,
		StripeGroup: 1,
	}
	one, err := Run(cfg4x4(), spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.StripeGroup = 4
	four, err := Run(cfg4x4(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if four.Bandwidth <= one.Bandwidth {
		t.Fatalf("4-node stripe group (%.2f MB/s) not faster than 1-node (%.2f MB/s)",
			four.Bandwidth, one.Bandwidth)
	}
	// All data must have come from I/O node 0 in the 1-group run.
	bytes := one.Machine.IONodeBytes()
	if bytes[0] != 2<<20 {
		t.Fatalf("1-node group: node 0 served %d, want all %d", bytes[0], 2<<20)
	}
	for i := 1; i < len(bytes); i++ {
		if bytes[i] != 0 {
			t.Fatalf("1-node group: node %d served %d, want 0", i, bytes[i])
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	spec := Spec{
		FileSize:     4 << 20,
		RequestSize:  128 << 10,
		Mode:         pfs.MRecord,
		ComputeDelay: 10 * sim.Millisecond,
	}
	a, err := Run(cfg4x4(), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg4x4(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Elapsed != b.Elapsed || a.Bandwidth != b.Bandwidth {
		t.Fatalf("non-deterministic: %v/%.4f vs %v/%.4f", a.Elapsed, a.Bandwidth, b.Elapsed, b.Bandwidth)
	}
}

func TestNodeErrorsPropagateFromRun(t *testing.T) {
	cfg := cfg4x4()
	cfg.DiskFaultRate = 1 // every disk request fails
	_, err := Run(cfg, Spec{
		FileSize:    1 << 20,
		RequestSize: 64 << 10,
		Mode:        pfs.MRecord,
	})
	if err == nil {
		t.Fatal("Run swallowed the nodes' read errors")
	}
}

func TestServerSidePlacementRun(t *testing.T) {
	scfg := prefetch.DefaultServerSideConfig()
	res, err := Run(cfg4x4(), Spec{
		FileSize:     4 << 20,
		RequestSize:  64 << 10,
		Mode:         pfs.MRecord,
		ComputeDelay: 50 * sim.Millisecond,
		Buffered:     true,
		ServerSide:   &scfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ServerSide == nil || res.ServerSide.Hints == 0 {
		t.Fatal("server-side service did not hint")
	}
	// The I/O node caches must have been hit.
	var hits int64
	for _, srv := range res.Machine.Servers {
		hits += srv.FS().CacheHits
	}
	if hits == 0 {
		t.Fatal("no cache hits despite hints")
	}
	// Mutually exclusive services rejected.
	pcfg := prefetch.DefaultConfig()
	if _, err := Run(cfg4x4(), Spec{
		FileSize:    1 << 20,
		RequestSize: 64 << 10,
		Mode:        pfs.MRecord,
		Prefetch:    &pcfg,
		ServerSide:  &scfg,
	}); err == nil {
		t.Fatal("both services accepted")
	}
}

func TestRandomPatternDefeatsPrefetch(t *testing.T) {
	spec := Spec{
		FileSize:     4 << 20,
		RequestSize:  64 << 10,
		Mode:         pfs.MAsync,
		Pattern:      Random,
		Seed:         3,
		ComputeDelay: 50 * sim.Millisecond,
	}
	pcfg := prefetch.DefaultConfig()
	spec.Prefetch = &pcfg
	res, err := Run(cfg4x4(), spec)
	if err != nil {
		t.Fatal(err)
	}
	// Sequential prediction on a random stream: nearly everything misses.
	if hr := res.Prefetch.HitRate(); hr > 0.2 {
		t.Fatalf("hit rate %.2f on random access, want ≈ 0", hr)
	}
}
