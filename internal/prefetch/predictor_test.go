package prefetch_test

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/pfs"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// openOne opens a file on a tiny machine just to have a *pfs.File to feed
// predictors.
func openOne(t *testing.T, size int64) *pfs.File {
	t.Helper()
	m := machine.Build(smallMachine())
	if err := m.FS.Create("f", size); err != nil {
		t.Fatal(err)
	}
	f, err := m.FS.Open("f", 0, pfs.MAsync, nil)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestSequentialPredictor(t *testing.T) {
	f := openOne(t, 256<<10)
	var p prefetch.SequentialPredictor
	spans := p.Predict(f, 0, 64<<10, 3, nil)
	want := []prefetch.Span{{64 << 10, 64 << 10}, {128 << 10, 64 << 10}, {192 << 10, 64 << 10}}
	if len(spans) != len(want) {
		t.Fatalf("spans = %v", spans)
	}
	for i := range want {
		if spans[i] != want[i] {
			t.Fatalf("span %d = %v, want %v", i, spans[i], want[i])
		}
	}
	// Clipped at EOF.
	spans = p.Predict(f, 192<<10, 64<<10, 3, nil)
	if len(spans) != 0 {
		t.Fatalf("prediction past EOF: %v", spans)
	}
	// Partial final span.
	spans = p.Predict(f, 128<<10, 96<<10, 3, nil)
	if len(spans) != 1 || spans[0] != (prefetch.Span{224 << 10, 32 << 10}) {
		t.Fatalf("partial tail span = %v", spans)
	}
}

func TestStridePredictorDetectsAndAdapts(t *testing.T) {
	f := openOne(t, 4<<20)
	sp := prefetch.NewStridePredictor(2)
	const rec = 64 << 10
	// No history: silent.
	if spans := sp.Predict(f, 0, rec, 2, nil); spans != nil {
		t.Fatalf("prediction with no history: %v", spans)
	}
	// Stride of 4 records: 0, 256K, 512K — two equal strides confirm.
	sp.Observe(f, 0, rec)
	sp.Observe(f, 4*rec, rec)
	if spans := sp.Predict(f, 4*rec, rec, 1, nil); spans != nil {
		t.Fatalf("prediction after one stride: %v", spans)
	}
	sp.Observe(f, 8*rec, rec)
	spans := sp.Predict(f, 8*rec, rec, 2, nil)
	if len(spans) != 2 || spans[0].Off != 12*rec || spans[1].Off != 16*rec {
		t.Fatalf("stride prediction = %v", spans)
	}
	// Pattern break: confidence resets.
	sp.Observe(f, 5*rec, rec)
	if spans := sp.Predict(f, 5*rec, rec, 1, nil); spans != nil {
		t.Fatalf("prediction after break: %v", spans)
	}
	// Forget drops state entirely.
	sp.Observe(f, 6*rec, rec)
	sp.Observe(f, 7*rec, rec)
	sp.Forget(f)
	if spans := sp.Predict(f, 7*rec, rec, 1, nil); spans != nil {
		t.Fatalf("prediction after Forget: %v", spans)
	}
}

func TestStridePredictorNegativeStride(t *testing.T) {
	f := openOne(t, 4<<20)
	sp := prefetch.NewStridePredictor(2)
	const rec = 64 << 10
	sp.Observe(f, 20*rec, rec)
	sp.Observe(f, 16*rec, rec)
	sp.Observe(f, 12*rec, rec)
	spans := sp.Predict(f, 12*rec, rec, 2, nil)
	if len(spans) != 2 || spans[0].Off != 8*rec || spans[1].Off != 4*rec {
		t.Fatalf("backward stride prediction = %v", spans)
	}
}

// TestStridePredictorRescuesStridedWorkload is the payoff: the mode
// predictor is blind to a strided M_ASYNC column walk, the stride
// detector is not.
func TestStridePredictorRescuesStridedWorkload(t *testing.T) {
	run := func(pred prefetch.Predictor) (*workload.Result, error) {
		cfg := machine.DefaultConfig()
		cfg.ComputeNodes = 4
		cfg.IONodes = 4
		pcfg := prefetch.DefaultConfig()
		pcfg.Predictor = pred
		return workload.Run(cfg, workload.Spec{
			FileSize:     8 << 20,
			RequestSize:  64 << 10,
			Mode:         pfs.MAsync,
			Pattern:      workload.Strided,
			Stride:       2,
			ComputeDelay: 50 * sim.Millisecond,
			Prefetch:     &pcfg,
		})
	}
	modeRes, err := run(prefetch.ModePredictor{})
	if err != nil {
		t.Fatal(err)
	}
	strideRes, err := run(prefetch.NewStridePredictor(2))
	if err != nil {
		t.Fatal(err)
	}
	if hr := modeRes.Prefetch.HitRate(); hr > 0.1 {
		t.Fatalf("mode predictor hit rate %.2f on strided access, want ≈ 0", hr)
	}
	if hr := strideRes.Prefetch.HitRate(); hr < 0.8 {
		t.Fatalf("stride predictor hit rate %.2f, want ≥ 0.8", hr)
	}
	if strideRes.Bandwidth <= modeRes.Bandwidth {
		t.Fatalf("stride predictor BW %.2f not above mode predictor %.2f",
			strideRes.Bandwidth, modeRes.Bandwidth)
	}
}

// TestStrideConfirmFloorIsOne: the documented minimum confirmation count
// is 1, but the constructor used to floor at 2, so the most eager
// configuration was silently unreachable.
func TestStrideConfirmFloorIsOne(t *testing.T) {
	sp := prefetch.NewStridePredictor(0)
	if sp.Confirm != 1 {
		t.Fatalf("NewStridePredictor(0).Confirm = %d, want the documented minimum 1", sp.Confirm)
	}
	// Behaviourally: with Confirm 1, a single observed stride predicts.
	f := openOne(t, 4<<20)
	const rec = 64 << 10
	sp.Observe(f, 0, rec)
	sp.Observe(f, 4*rec, rec)
	spans := sp.Predict(f, 4*rec, rec, 1, nil)
	if len(spans) != 1 || spans[0].Off != 8*rec {
		t.Fatalf("Confirm=1 prediction after one stride = %v, want [{%d %d}]", spans, 8*rec, rec)
	}
}

// TestStrideOverlapDoesNotConfirm: a repeated stride shorter than the
// previous read means the reads overlap — extrapolating would prefetch
// bytes the reader mostly has. The detector used to confirm on the raw
// stride repeat alone.
func TestStrideOverlapDoesNotConfirm(t *testing.T) {
	f := openOne(t, 4<<20)
	sp := prefetch.NewStridePredictor(2)
	const rec = 64 << 10
	// 64K reads advancing 32K at a time: stride repeats, but every read
	// overlaps half the previous one.
	sp.Observe(f, 0, rec)
	sp.Observe(f, rec/2, rec)
	sp.Observe(f, rec, rec)
	sp.Observe(f, 3*rec/2, rec)
	if spans := sp.Predict(f, 3*rec/2, rec, 1, nil); spans != nil {
		t.Fatalf("overlapping stride confirmed: predicted %v", spans)
	}
	// Non-overlapping reads at the same spacing confirm as before.
	sp2 := prefetch.NewStridePredictor(2)
	sp2.Observe(f, 0, rec/2)
	sp2.Observe(f, rec/2, rec/2)
	sp2.Observe(f, rec, rec/2)
	if spans := sp2.Predict(f, rec, rec/2, 1, nil); len(spans) != 1 || spans[0].Off != 3*rec/2 {
		t.Fatalf("back-to-back stride did not confirm: %v", spans)
	}
}

func TestModePredictorMatchesLegacyBehaviour(t *testing.T) {
	// The default predictor must reproduce the prototype's counters on
	// the canonical sequential scan.
	pcfg := prefetch.DefaultConfig()
	pcfg.Predictor = prefetch.ModePredictor{}
	_, pf, _ := seqRun(t, smallMachine(), 1<<20, 64<<10, 200*sim.Millisecond, &pcfg)
	if pf.Misses != 1 || pf.Hits != 15 {
		t.Fatalf("Misses=%d Hits=%d, want 1/15", pf.Misses, pf.Hits)
	}
}

// TestIssueSpansStayOnTheirNode: with Depth > 1 an issue sleeps
// IssueOverhead between spans, and other nodes' reads predict in the
// meantime on the same shared Prefetcher. Every span a node posts must
// still be one of its own M_RECORD records, and none may go to waste.
func TestIssueSpansStayOnTheirNode(t *testing.T) {
	const (
		nodes = 4
		req   = 64 << 10
	)
	cfg := machine.DefaultConfig()
	cfg.ComputeNodes = nodes
	cfg.IONodes = 4
	pcfg := prefetch.DefaultConfig()
	pcfg.Depth = 4
	tl := trace.NewLog(1 << 16)
	res, err := workload.Run(cfg, workload.Spec{
		FileSize:     8 << 20,
		RequestSize:  req,
		Mode:         pfs.MRecord,
		ComputeDelay: 50 * sim.Millisecond,
		Prefetch:     &pcfg,
		Trace:        tl,
	})
	if err != nil {
		t.Fatal(err)
	}
	rank := make(map[int]int64, nodes)
	for i, node := range res.Machine.Compute {
		rank[node] = int64(i)
	}
	issues := 0
	for _, e := range tl.Events() {
		if e.Kind != trace.PrefetchIssue {
			continue
		}
		issues++
		if got := (e.Off / req) % nodes; got != rank[e.Node] {
			t.Fatalf("node %d (rank %d) issued a prefetch at %d, record of rank %d", e.Node, rank[e.Node], e.Off, got)
		}
	}
	if issues == 0 || tl.Dropped() != 0 {
		t.Fatalf("%d prefetch issues traced, %d events dropped", issues, tl.Dropped())
	}
	if w := res.Prefetch.Wasted; w != 0 {
		t.Fatalf("Wasted = %d, want 0", w)
	}
}
