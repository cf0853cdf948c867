package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestMBps(t *testing.T) {
	if got := MBps(1<<20, sim.Second); got != 1 {
		t.Fatalf("1MiB/1s = %v MB/s, want 1", got)
	}
	if got := MBps(8<<20, 2*sim.Second); got != 4 {
		t.Fatalf("8MiB/2s = %v MB/s, want 4", got)
	}
	if got := MBps(100, 0); got != 0 {
		t.Fatalf("zero duration = %v, want 0", got)
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	for _, v := range []float64{4, 1, 3, 2, 5} {
		h.Observe(v)
	}
	if h.N() != 5 || h.Sum() != 15 || h.Mean() != 3 {
		t.Fatalf("N=%d Sum=%v Mean=%v", h.N(), h.Sum(), h.Mean())
	}
	if h.Min() != 1 || h.Max() != 5 {
		t.Fatalf("Min=%v Max=%v", h.Min(), h.Max())
	}
	if q := h.Quantile(0.5); q != 3 {
		t.Fatalf("median = %v", q)
	}
	if q := h.Quantile(1); q != 5 {
		t.Fatalf("q1.0 = %v", q)
	}
	if q := h.Quantile(0); q != 1 {
		t.Fatalf("q0 = %v", q)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(0.9) != 0 {
		t.Fatal("empty histogram should answer zeros")
	}
}

func TestHistogramObserveAfterQuery(t *testing.T) {
	var h Histogram
	h.Observe(5)
	_ = h.Min() // forces a sort
	h.Observe(1)
	if h.Min() != 1 {
		t.Fatalf("Min after late Observe = %v, want 1", h.Min())
	}
}

// Property: quantiles are monotone in q and bounded by min/max.
func TestHistogramQuantileMonotone(t *testing.T) {
	if err := quick.Check(func(raw []float64, qa, qb float64) bool {
		var vals []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		norm := func(q float64) float64 {
			q = math.Abs(q)
			return q - math.Floor(q) // into [0,1)
		}
		qa, qb = norm(qa), norm(qb)
		if qa > qb {
			qa, qb = qb, qa
		}
		var h Histogram
		for _, v := range vals {
			h.Observe(v)
		}
		lo, hi := h.Quantile(qa), h.Quantile(qb)
		return lo <= hi && h.Min() <= lo && hi <= h.Max()
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: mean lies within [min, max].
func TestHistogramMeanBounded(t *testing.T) {
	if err := quick.Check(func(raw []float64) bool {
		var h Histogram
		n := 0
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e12 {
				h.Observe(v)
				n++
			}
		}
		if n == 0 {
			return true
		}
		m := h.Mean()
		return h.Min() <= m+1e-6 && m-1e-6 <= h.Max()
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: N-quantile sweep reproduces the sorted sample set.
func TestHistogramQuantileRanks(t *testing.T) {
	vals := []float64{9, 7, 5, 3, 1}
	var h Histogram
	for _, v := range vals {
		h.Observe(v)
	}
	sort.Float64s(vals)
	n := len(vals)
	for i, want := range vals {
		q := float64(i+1) / float64(n)
		if got := h.Quantile(q); got != want {
			t.Fatalf("Quantile(%v) = %v, want %v", q, got, want)
		}
	}
}

func TestUtilization(t *testing.T) {
	var u Utilization
	u.Begin(sim.Second)
	u.End(3 * sim.Second)
	u.Begin(5 * sim.Second)
	if b := u.Busy(6 * sim.Second); b != 3*sim.Second {
		t.Fatalf("Busy = %v, want 3s", b)
	}
	u.End(7 * sim.Second)
	if f := u.Fraction(8 * sim.Second); f != 0.5 {
		t.Fatalf("Fraction = %v, want 0.5", f)
	}
}

func TestUtilizationMisusePanics(t *testing.T) {
	var u Utilization
	func() {
		defer func() {
			if recover() == nil {
				t.Error("End while idle did not panic")
			}
		}()
		u.End(0)
	}()
	u.Begin(0)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Begin while busy did not panic")
			}
		}()
		u.Begin(1)
	}()
}

func TestTableRender(t *testing.T) {
	tb := NewTable("Demo", "Request", "BW (MB/s)")
	tb.AddRow(64, 12.345)
	tb.AddRow(1024, 3.0)
	var sb strings.Builder
	if err := tb.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Demo", "Request", "BW (MB/s)", "12.35", "1024", "3.00"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if len(tb.Rows()) != 2 {
		t.Fatalf("%d rows, want 2", len(tb.Rows()))
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("x,y", `q"q`)
	var sb strings.Builder
	if err := tb.RenderCSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n\"x,y\",\"q\"\"q\"\n"
	if sb.String() != want {
		t.Fatalf("CSV = %q, want %q", sb.String(), want)
	}
}

func TestTableAlignment(t *testing.T) {
	tb := NewTable("", "col", "x")
	tb.AddRow("longvalue", 1)
	var sb strings.Builder
	if err := tb.Render(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d, want 3 (header, rule, row)", len(lines))
	}
	if len(lines[0]) != len(lines[1]) {
		t.Fatalf("header and rule widths differ:\n%q\n%q", lines[0], lines[1])
	}
}

func TestHistogramCloneIsIndependent(t *testing.T) {
	var h Histogram
	h.Observe(3)
	h.Observe(1)
	c := h.Clone()
	h.Observe(5)
	c.Observe(7)
	if c.N() != 3 || c.Sum() != 11 || h.Sum() != 9 || c.Max() != 7 || h.Max() != 5 {
		t.Fatalf("clone and original share samples: clone N=%d sum=%v, original sum=%v", c.N(), c.Sum(), h.Sum())
	}
}
