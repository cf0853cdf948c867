package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/stats"
	"repro/internal/workload"
)

// shortDiv shrinks each workload to about a twelfth of its benchmark size.
const shortDiv = 12

// shortOptions runs a workload at short size with one set-up and one
// timed repetition.
func shortOptions(trace bool) options {
	return options{reps: 1, trace: trace, div: shortDiv, setupPasses: 1}
}

// TestShortSuite runs every workload at short size: untraced and traced
// runs of one seed must fingerprint equal, a second seed must change the
// fingerprint of every seeded workload, and the traced ledgers must show
// the stress split the workloads were chosen for.
func TestShortSuite(t *testing.T) {
	ledgers := map[string]*report{}
	for _, w := range workloads() {
		plain, err := measure(w, 1, shortOptions(false))
		if err != nil {
			t.Fatalf("%s untraced: %v", w.name, err)
		}
		traced, err := measure(w, 1, shortOptions(true))
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if plain.Fingerprint != traced.Fingerprint {
			t.Errorf("%s: untraced fingerprint %s, traced %s", w.name, plain.Fingerprint, traced.Fingerprint)
		}
		other, err := measure(w, 2, shortOptions(false))
		if err != nil {
			t.Fatalf("%s seed 2: %v", w.name, err)
		}
		if differ := other.Fingerprint != plain.Fingerprint; differ != w.seeded {
			t.Errorf("%s: seeds 1 and 2 fingerprint %s and %s; seeded=%v", w.name, plain.Fingerprint, other.Fingerprint, w.seeded)
		}
		ledgers[w.name] = traced
	}

	for name, rep := range ledgers {
		cache, _ := rep.value("ufs.cache_hit_frac")
		if got := cache > 0; got != (name == "qos-overload") {
			t.Errorf("%s: ufs.cache_hit_frac = %v", name, cache)
		}
		retries, _ := rep.value("pfs.retries")
		if got := retries > 0; got != (name == "faults") {
			t.Errorf("%s: pfs.retries = %v", name, retries)
		}
		_, prefetch := rep.value("prefetch.hit_frac")
		if want := name != "qos-overload" && name != "paper-repro"; prefetch != want {
			t.Errorf("%s: prefetch metrics present = %v, want %v", name, prefetch, want)
		}
		if ok, _ := rep.value("ok_frac"); name != "faults" && name != "qos-overload" && ok != 1 {
			t.Errorf("%s: ok_frac = %v, want 1", name, ok)
		}
		for _, m := range benchEndToEnd {
			if v, present := rep.value(m); m != "max_rss_mb" && (!present || v <= 0) {
				t.Errorf("%s: end-to-end metric %s = %v (present %v), want > 0", name, m, v, present)
			}
		}
	}
}

// TestLayOutMatchesRuns checks that set-up timing lays out what the runs
// do: after layOut on a fresh machine, and after the workload's own run,
// every file must have the same attributes and the same stripe sizes on
// every I/O node.
func TestLayOutMatchesRuns(t *testing.T) {
	for _, w := range workloads() {
		p := w.plan(1, shortDiv)
		cfg := p.cfg
		if p.qos != nil {
			cfg.Fair.Tenants = p.qos.Tenants
		}
		timed := machine.Build(cfg)
		if err := layOut(timed, p); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		// paper-repro's set-up is one Figure 4 cell, which is a plain run
		// of its spec.
		var res *workload.Result
		var err error
		if p.qos != nil {
			res, err = workload.RunQoS(p.cfg, *p.qos)
		} else {
			res, err = workload.Run(p.cfg, p.spec)
		}
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		got, want := layoutOf(t, timed, "/"), layoutOf(t, res.Machine, "/")
		if got != want {
			t.Errorf("%s: layOut built\n%s\nthe run built\n%s", w.name, got, want)
		}
	}
}

// layoutOf describes every file under dir: its attributes and the size of
// its stripe file on each I/O node.
func layoutOf(t *testing.T, m *machine.Machine, dir string) string {
	t.Helper()
	names, err := m.FS.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, name := range names {
		p := path.Join(dir, name)
		if strings.HasSuffix(name, "/") {
			b.WriteString(layoutOf(t, m, p))
			continue
		}
		info, err := m.FS.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s size %d unit %d group %d:", p, info.Size, info.StripeUnit, info.StripeGroup)
		for _, s := range m.Servers {
			n, err := s.FS().Size("pfs:" + p)
			if err != nil {
				n = -1
			}
			fmt.Fprintf(&b, " %d", n)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestPaperSimulated checks the metrics paper-repro reads from its tables
// on tables with known cells.
func TestPaperSimulated(t *testing.T) {
	fig2 := stats.NewTable("", "Request (KB)", "M_UNIX", "M_RECORD")
	fig2.AddRow(64, 2.0, 8.0)
	t2 := stats.NewTable("", "Request (KB)", "Read Access Time (sec)", "Mean (sec)", "p90 (sec)")
	t2.AddRow(64, 0.04, 0.05, 0.09)
	t2.AddRow(128, 0.09, 0.10, 0.20)
	t4 := stats.NewTable("", "Request (KB)", "File (MB)", "B/W sgroup=1 (MB/s)", "Speedup")
	t4.AddRow(64, 128, 4.0, 3.5)
	got, err := paperSimulated(map[string]*stats.Table{"fig2": fig2, "table2": t2, "table4": t4})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"sim_mbps": 4, "sim_read_p50_ms": 60, "ok_frac": 1}
	for _, m := range got {
		if math.Abs(m.Value-want[m.Name]) > 1e-9 {
			t.Errorf("%s = %v, want %v", m.Name, m.Value, want[m.Name])
		}
	}
	t2.AddRow(256, "n/a", 0.1, 0.2)
	if _, err := paperSimulated(map[string]*stats.Table{"fig2": fig2, "table2": t2}); err == nil {
		t.Error("a non-numeric access time was accepted")
	}
}

// TestCheckRejectsDoctoredResults feeds the output checks results that
// break conservation, and a repetition whose fingerprint moved.
func TestCheckRejectsDoctoredResults(t *testing.T) {
	for _, name := range []string{"faults", "qos-overload"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		p := w.plan(1, shortDiv)
		out, err := execute(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := check(w, p, out.res); err != nil {
			t.Fatalf("%s: honest result rejected: %v", name, err)
		}
		if q := out.res.QoS; q != nil {
			q.Tenants[3].Done--
		} else {
			out.res.TotalBytes -= 1 << 16
		}
		if err := check(w, p, out.res); err == nil {
			t.Errorf("%s: doctored result passed the check", name)
		}
	}

	w, _ := findWorkload("paper-balanced")
	r := &runner{def: w, p: w.plan(1, shortDiv), spans: newSpanLog()}
	out, err := execute(r.p)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.verify(&out); err != nil {
		t.Fatal(err)
	}
	out.res.Elapsed++
	if err := r.verify(&out); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("moved fingerprint passed verification: %v", err)
	}
}

// TestScheduledRequestsMatchesRun checks the arrival reference model
// against an actual open-loop run.
func TestScheduledRequestsMatchesRun(t *testing.T) {
	w, _ := findWorkload("qos-overload")
	p := w.plan(7, shortDiv)
	out, err := execute(p)
	if err != nil {
		t.Fatal(err)
	}
	for i, ts := range out.res.QoS.Tenants {
		if want := scheduledRequests(*p.qos, i); ts.Requests != want {
			t.Fatalf("tenant %d: %d arrivals, reference schedules %d", i, ts.Requests, want)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"runtime.mallocgc":                        "runtime",
		"runtime/internal/atomic.Xadd":            "runtime",
		"internal/runtime/maps.(*Map).getWithKey": "runtime",
		"repro/internal/sim.(*Kernel).Run":        "sim",
		"repro/internal/sim.(*Proc).block.func1":  "sim",
		"repro/internal/pfs.(*File).Read":         "pfs",
		"repro/internal/sweep.MapErr[go.shape.struct { repro/internal/workload.x int }]": "other",
		"repro/internal/experiments.Table1":                                              "other",
		"sync.(*Mutex).Lock":                                                             "other",
		"main.main":                                                                      "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestCPUByLayerDecodesProfile decodes a real CPU profile of a busy loop:
// the shares must be non-empty and sum to 1.
func TestCPUByLayerDecodesProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 0.0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	pprof.StopCPUProfile()
	frac, samples, err := cpuByLayer(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Skip("the profiler took no samples")
	}
	var sum float64
	for _, f := range frac {
		sum += f
	}
	if math.Abs(sum-1) > 1e-9 || len(frac) != len(layers) {
		t.Errorf("shares %v sum to %v over %d samples (x=%v)", frac, sum, samples, x)
	}
	if _, _, err := cpuByLayer(buf.Bytes()[:buf.Len()/2]); err == nil {
		t.Error("a truncated profile decoded without error")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program in step: the
// same workloads, and exactly the metrics and units the result line
// reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(b.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the suite has %d", len(b.Workloads), len(ws))
	}
	for i, w := range ws {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the suite %q: %q", i, b.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, names []string) {
		if len(got) != len(names) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program reports %d", kind, len(got), len(names))
			return
		}
		for i, m := range got {
			if m.Name != names[i] || m.Unit != unit(names[i]) {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]", kind, i, m.Name, m.Unit, names[i], unit(names[i]))
			}
		}
	}
	same("end_to_end", b.EndToEnd, benchEndToEnd)
	same("per_layer", b.PerLayer, benchPerLayer())
}
