package repro

import (
	"flag"
	"testing"

	"repro/internal/experiments"
	"repro/internal/stats"
)

// -paperscale runs the benchmarks at the paper's full scale (8+8 nodes,
// 128 MB files). The default quick scale preserves every shape at a
// fraction of the wall time.
var paperScale = flag.Bool("paperscale", false, "benchmark at the paper's full scale")

func benchScale() experiments.Scale {
	if *paperScale {
		return experiments.PaperScale()
	}
	return experiments.QuickScale()
}

// benchExperiment times regenerating one of the paper's artifacts
// end-to-end: machine build, file layout, workload, measurement.
func benchExperiment(b *testing.B, id string) {
	e, err := experiments.Find(id)
	if err != nil {
		b.Fatal(err)
	}
	scale := benchScale()
	var last *stats.Table
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := e.Run(scale)
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	b.StopTimer()
	if last == nil || len(last.Rows()) == 0 {
		b.Fatal("experiment produced no rows")
	}
	b.ReportMetric(float64(len(last.Rows())), "rows")
}

// One benchmark per table and figure in the paper's evaluation.

func BenchmarkFigure2(b *testing.B) { benchExperiment(b, "fig2") }
func BenchmarkTable1(b *testing.B)  { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B)  { benchExperiment(b, "table2") }
func BenchmarkFigure4(b *testing.B) { benchExperiment(b, "fig4") }
func BenchmarkFigure5(b *testing.B) { benchExperiment(b, "fig5") }
func BenchmarkTable3(b *testing.B)  { benchExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B)  { benchExperiment(b, "table4") }

// Extension benchmarks: the paper's stated future work and beyond.

func BenchmarkExtModes(b *testing.B)        { benchExperiment(b, "ext-modes") }
func BenchmarkExtScale(b *testing.B)        { benchExperiment(b, "ext-scale") }
func BenchmarkExtTwoPhase(b *testing.B)     { benchExperiment(b, "ext-twophase") }
func BenchmarkExtWriteBehind(b *testing.B)  { benchExperiment(b, "ext-writebehind") }
func BenchmarkExtInterference(b *testing.B) { benchExperiment(b, "ext-interference") }
func BenchmarkExtAdaptive(b *testing.B)     { benchExperiment(b, "ext-adaptive") }
func BenchmarkExtSensitivity(b *testing.B)  { benchExperiment(b, "ext-sensitivity") }
func BenchmarkExtRatio(b *testing.B)        { benchExperiment(b, "ext-ratio") }

// Ablation benchmarks for the design choices called out in DESIGN.md.

func BenchmarkAblationDepth(b *testing.B)     { benchExperiment(b, "ablation-depth") }
func BenchmarkAblationCopy(b *testing.B)      { benchExperiment(b, "ablation-copy") }
func BenchmarkAblationPlacement(b *testing.B) { benchExperiment(b, "ablation-placement") }
func BenchmarkAblationPattern(b *testing.B)   { benchExperiment(b, "ablation-pattern") }
func BenchmarkAblationPredictor(b *testing.B) { benchExperiment(b, "ablation-predictor") }
func BenchmarkAblationSched(b *testing.B)     { benchExperiment(b, "ablation-sched") }
func BenchmarkAblationFrag(b *testing.B)      { benchExperiment(b, "ablation-frag") }
func BenchmarkAblationBlockSize(b *testing.B) { benchExperiment(b, "ablation-blocksize") }
