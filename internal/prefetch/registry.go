package prefetch

import "repro/internal/pfs"

// This file implements the prefetcher zoo: a registry of competing
// predictors with per-stream accuracy bookkeeping, and a HybridPredictor
// that forwards each stream's read-ahead to whichever registered source
// is currently predicting that stream best. The design follows the
// multi-prefetcher zoos of hardware L2 prefetchers: every source makes a
// shadow prediction on every read (cheap, no I/O), reality grades the
// shadows, and only the best-graded source gets to spend real prefetch
// bandwidth.
//
// Determinism: all state is integer counters and fixed-size rings keyed
// by registration index; selection is a pure function of those counters
// with index-order tie-breaking, and nothing ever iterates a map. Two
// runs at the same seed therefore select identically at every read.

// SourceStats tallies one predictor's record, per stream or in total.
// Predicted/Correct grade the source's shadow predictions (its guess of
// the next read, made on every read whether or not it was selected);
// Issued/Consumed/Wasted/Unread account the real buffers spent on its
// advice while it was the selected source.
type SourceStats struct {
	Predicted int64 // shadow predictions scored against later reads
	Correct   int64 // shadow predictions a later read landed on
	Issued    int64 // prefetch buffers issued on this source's advice
	Consumed  int64 // issued buffers a read consumed (hit or waited hit)
	Wasted    int64 // issued buffers freed unused at close
	Unread    int64 // issued buffers still in flight at close
}

// Accuracy is Correct over Predicted (0 with no history).
func (s SourceStats) Accuracy() float64 {
	if s.Predicted == 0 {
		return 0
	}
	return float64(s.Correct) / float64(s.Predicted)
}

// add folds o into s.
func (s *SourceStats) add(o SourceStats) {
	s.Predicted += o.Predicted
	s.Correct += o.Correct
	s.Issued += o.Issued
	s.Consumed += o.Consumed
	s.Wasted += o.Wasted
	s.Unread += o.Unread
}

// shadowCap bounds how many outstanding shadow predictions per source per
// stream are held for grading. One prediction is made per read, and a
// correct one is normally confirmed by the very next read, so a small
// ring suffices; an overwritten unconfirmed slot simply stays counted in
// Predicted and not in Correct — exactly the miss it was.
const shadowCap = 4

// shadowRing holds one source's recent predicted offsets for one stream.
type shadowRing struct {
	off  [shadowCap]int64
	live [shadowCap]bool
	next int
}

func (r *shadowRing) insert(off int64) {
	r.off[r.next] = off
	r.live[r.next] = true
	r.next = (r.next + 1) % shadowCap
}

// take reports whether off matches a live prediction, consuming it.
func (r *shadowRing) take(off int64) bool {
	for i := range r.off {
		if r.live[i] && r.off[i] == off {
			r.live[i] = false
			return true
		}
	}
	return false
}

// regStream is the registry's per-open-file state.
type regStream struct {
	stats []SourceStats // indexed by registration order
	rings []shadowRing
}

// Registry tracks a fixed set of predictors and their per-stream
// accuracy. Register every source before the first read; the zero-value
// Registry is unusable (use NewRegistry).
type Registry struct {
	names   []string
	srcs    []Predictor
	streams map[*pfs.File]*regStream
	totals  []SourceStats // folded from streams as they close
	scratch []Span        // reused for shadow predictions
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{streams: make(map[*pfs.File]*regStream)}
}

// Register adds a named source. Registration order is significant: it is
// the selection tie-breaker and the index space of Totals.
func (r *Registry) Register(name string, p Predictor) {
	if name == "" || p == nil {
		panic("prefetch: registry source needs a name and a predictor")
	}
	r.names = append(r.names, name)
	r.srcs = append(r.srcs, p)
	r.totals = append(r.totals, SourceStats{})
}

// Totals returns the per-source tallies folded from closed streams,
// indexed in registration order. Call after the streams have closed;
// live streams are not included (summing them would mean iterating a
// map, and the fold at close already covers every stream a finished run
// had).
func (r *Registry) Totals() []SourceStats {
	out := make([]SourceStats, len(r.totals))
	copy(out, r.totals)
	return out
}

// stream returns f's state, creating it on first touch.
func (r *Registry) stream(f *pfs.File) *regStream {
	st, ok := r.streams[f]
	if !ok {
		st = &regStream{
			stats: make([]SourceStats, len(r.srcs)),
			rings: make([]shadowRing, len(r.srcs)),
		}
		r.streams[f] = st
	}
	return st
}

// observe grades every source's outstanding shadow predictions against
// the read that actually happened, trains the sources, and has each lay
// down its next shadow prediction (depth 1: the accuracy race is over
// "what will the very next read be").
func (r *Registry) observe(f *pfs.File, off, n int64) {
	st := r.stream(f)
	for i := range r.srcs {
		if st.rings[i].take(off) {
			st.stats[i].Correct++
		}
	}
	for _, src := range r.srcs {
		src.Observe(f, off, n)
	}
	for i, src := range r.srcs {
		r.scratch = src.Predict(f, off, n, 1, r.scratch[:0])
		if len(r.scratch) > 0 {
			st.stats[i].Predicted++
			st.rings[i].insert(r.scratch[0].Off)
		}
	}
}

// selected returns the index of the stream's current best source: the
// highest shadow accuracy among sources with at least minSamples graded
// predictions, ties broken by lowest registration index. With no
// eligible source yet (cold stream) it returns 0, so the first
// registered source is the warm-up default.
func (r *Registry) selected(f *pfs.File, minSamples int64) int {
	st, ok := r.streams[f]
	if !ok {
		return 0
	}
	best, bestAcc := -1, -1.0
	for i := range st.stats {
		if st.stats[i].Predicted < minSamples {
			continue
		}
		if acc := st.stats[i].Accuracy(); acc > bestAcc {
			best, bestAcc = i, acc
		}
	}
	if best < 0 {
		return 0
	}
	return best
}

// forget folds f's tallies into the totals and drops all per-stream
// state, the registry's and every source's.
func (r *Registry) forget(f *pfs.File) {
	if st, ok := r.streams[f]; ok {
		for i := range st.stats {
			r.totals[i].add(st.stats[i])
		}
		delete(r.streams, f)
	}
	for _, src := range r.srcs {
		src.Forget(f)
	}
}

// note records a real-buffer outcome against source src of stream f.
// Outcomes arriving for an already-closed stream (close-time accounting
// runs before forget, so only a stale caller could do this) fold straight
// into the totals.
func (r *Registry) note(f *pfs.File, src int, fn func(*SourceStats)) {
	if src < 0 || src >= len(r.totals) {
		return
	}
	if st, ok := r.streams[f]; ok {
		fn(&st.stats[src])
		return
	}
	fn(&r.totals[src])
}

// HybridPredictor serves each stream with its currently most-accurate
// registered source. It implements Predictor, so it drops into
// Config.Predictor like any fixed policy, and the selection feedback loop
// (shadow grading in Observe, argmax in Predict) costs no extra I/O.
type HybridPredictor struct {
	// MinSamples is how many graded shadow predictions a source needs
	// before its accuracy can win the stream; below it the first
	// registered source serves. NewHybrid defaults it to 4.
	MinSamples int64

	reg *Registry
}

// NewHybrid wraps a registry (which must have at least one source).
func NewHybrid(reg *Registry) *HybridPredictor {
	if len(reg.srcs) == 0 {
		panic("prefetch: hybrid needs at least one registered source")
	}
	return &HybridPredictor{MinSamples: 4, reg: reg}
}

// NewDefaultHybrid builds the standard zoo: the prototype's mode policy
// as the warm-up default, plus sequential and stride detectors racing it.
func NewDefaultHybrid() *HybridPredictor {
	reg := NewRegistry()
	reg.Register("mode", ModePredictor{})
	reg.Register("sequential", SequentialPredictor{})
	reg.Register("stride", NewStridePredictor(2))
	return NewHybrid(reg)
}

// Registry exposes the zoo's accuracy book.
func (h *HybridPredictor) Registry() *Registry { return h.reg }

// Observe grades and trains every source.
func (h *HybridPredictor) Observe(f *pfs.File, off, n int64) { h.reg.observe(f, off, n) }

// Predict forwards to the stream's selected source.
func (h *HybridPredictor) Predict(f *pfs.File, off, n int64, depth int, dst []Span) []Span {
	return h.reg.srcs[h.reg.selected(f, h.MinSamples)].Predict(f, off, n, depth, dst)
}

// Forget drops the stream everywhere.
func (h *HybridPredictor) Forget(f *pfs.File) { h.reg.forget(f) }

// The tracker hooks below let the Prefetcher attribute real buffer
// outcomes to the source whose advice issued them.

func (h *HybridPredictor) selectedSource(f *pfs.File) int {
	return h.reg.selected(f, h.MinSamples)
}
func (h *HybridPredictor) noteIssued(f *pfs.File, src int) {
	h.reg.note(f, src, func(s *SourceStats) { s.Issued++ })
}
func (h *HybridPredictor) noteConsumed(f *pfs.File, src int) {
	h.reg.note(f, src, func(s *SourceStats) { s.Consumed++ })
}
func (h *HybridPredictor) noteWasted(f *pfs.File, src int) {
	h.reg.note(f, src, func(s *SourceStats) { s.Wasted++ })
}
func (h *HybridPredictor) noteUnread(f *pfs.File, src int) {
	h.reg.note(f, src, func(s *SourceStats) { s.Unread++ })
}

// tracker is what a Predictor additionally implements to receive
// buffer-outcome attribution from the Prefetcher. HybridPredictor is the
// in-tree implementation; the assertion is checked once in New.
type tracker interface {
	selectedSource(f *pfs.File) int
	noteIssued(f *pfs.File, src int)
	noteConsumed(f *pfs.File, src int)
	noteWasted(f *pfs.File, src int)
	noteUnread(f *pfs.File, src int)
}

var _ tracker = (*HybridPredictor)(nil)
var _ Predictor = (*HybridPredictor)(nil)

// NewPolicy resolves a policy name to a predictor. The empty name is the
// prototype's default (mode). Policies lists the valid names.
func NewPolicy(name string) (Predictor, error) {
	switch name {
	case "", "mode":
		return ModePredictor{}, nil
	case "sequential":
		return SequentialPredictor{}, nil
	case "stride":
		return NewStridePredictor(2), nil
	case "hybrid":
		return NewDefaultHybrid(), nil
	}
	return nil, errUnknownPolicy(name)
}

// Policies returns every selectable policy name, in tournament order.
func Policies() []string { return []string{"mode", "sequential", "stride", "hybrid"} }

type errUnknownPolicy string

func (e errUnknownPolicy) Error() string {
	return "prefetch: unknown policy " + string(e) + ` (valid: "mode", "sequential", "stride", "hybrid")`
}
