package machine

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/disk"
	"repro/internal/ionode"
	"repro/internal/sim"
)

func TestConfigRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "machine.json")
	orig := DefaultConfig()
	orig.ComputeNodes = 16
	orig.DiskFaultRate = 0.01
	// Every crash-domain knob gets a non-zero value so a dropped or
	// renamed JSON field fails the comparison below.
	orig.Crash = CrashPlan{Count: 2, Seed: 7, Start: sim.Second,
		Window: 2 * sim.Second, Downtime: 500 * sim.Millisecond}
	orig.MemberFail = MemberFailPlan{At: 3 * sim.Second, Array: 1, Member: 2}
	orig.Rebuild = disk.RebuildPolicy{Chunk: 128 << 10, Gap: 5 * sim.Millisecond}
	orig.NoParity = true
	// Same for the prefetcher-zoo knobs: every controller field non-zero.
	orig.Prefetch = PrefetchOptions{
		Policy: "hybrid",
		Controller: PrefetchController{Interval: 8, MinDepth: 1, MaxDepth: 6,
			MinBuffers: 2, MaxBuffers: 24, Step: 2,
			LowHit: 0.25, HighHit: 0.75, ServiceSlack: 3},
	}
	// QoS knobs: every fair-scheduler field non-zero, including the
	// cycled weights slice (Config is no longer ==-comparable).
	orig.Fair = ionode.FairPolicy{
		Tenants: 12, Weights: []int{4, 2, 1}, Slots: 3,
		RatePerWeight: 1 << 20, BurstBytes: 256 << 10, FIFO: true,
	}
	if err := SaveConfig(path, orig); err != nil {
		t.Fatal(err)
	}
	got, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, orig) {
		t.Fatalf("round trip changed config:\n got %+v\nwant %+v", got, orig)
	}
	// The loaded config must actually build.
	m := Build(got)
	if len(m.Compute) != 16 {
		t.Fatalf("built %d compute nodes", len(m.Compute))
	}
}

func TestLoadConfigErrors(t *testing.T) {
	if _, err := LoadConfig(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"ComputeNodes": 4, "NoSuchKnob": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadConfig(bad); err == nil {
		t.Fatal("unknown field accepted")
	}
	garbage := filepath.Join(t.TempDir(), "garbage.json")
	if err := os.WriteFile(garbage, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadConfig(garbage); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestLoadConfigRejectsRemovedEngineKnobs: configs saved while the
// machine still had a sharded engine carry Shards and IOGroups. They
// must fail loudly, naming the field, rather than silently run on the
// single kernel.
func TestLoadConfigRejectsRemovedEngineKnobs(t *testing.T) {
	for _, field := range []string{`"Shards": 4`, `"IOGroups": 16`} {
		path := filepath.Join(t.TempDir(), "old.json")
		if err := os.WriteFile(path, []byte(`{"ComputeNodes": 4, `+field+`}`), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadConfig(path)
		name := strings.SplitN(field, `"`, 3)[1]
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Fatalf("config with %s: err = %v, want an error naming %q", field, err, name)
		}
	}
}
