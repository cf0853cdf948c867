package stats

import "testing"

// BenchmarkHistogramObserve measures the per-sample recording cost paid
// on every simulated read.
func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i % 997))
	}
}

// BenchmarkHistogramQuantile measures query cost including the lazy sort.
func BenchmarkHistogramQuantile(b *testing.B) {
	var h Histogram
	for i := 0; i < 100000; i++ {
		h.Observe(float64((i * 2654435761) % 99991))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i)) // dirty the sort
		_ = h.Quantile(0.5)
	}
}

// BenchmarkHistogramQuantileClean proves quantile queries on a clean
// (already-sorted) histogram are O(1): the dirty flag means the sort runs
// at most once per batch of observations, so repeated summary queries —
// Min, Max, and every quantile of a report table — cost an index lookup,
// not a re-sort of 100k samples.
func BenchmarkHistogramQuantileClean(b *testing.B) {
	var h Histogram
	for i := 0; i < 100000; i++ {
		h.Observe(float64((i * 2654435761) % 99991))
	}
	_ = h.Quantile(0.5) // sort once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.Quantile(float64(i%100) / 100)
		_ = h.Min()
		_ = h.Max()
	}
}

// BenchmarkTableRender measures formatting a paper-sized table.
func BenchmarkTableRender(b *testing.B) {
	t := NewTable("bench", "a", "b", "c", "d")
	for i := 0; i < 12; i++ {
		t.AddRow(i, float64(i)*1.5, "cell", i*i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var sink discard
		if err := t.Render(&sink); err != nil {
			b.Fatal(err)
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
