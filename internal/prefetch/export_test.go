package prefetch

import "repro/internal/pfs"

// Outstanding reports the number of buffers currently held for f.
func (pf *Prefetcher) Outstanding(f *pfs.File) int { return len(pf.lists[f]) }

// Stats returns a snapshot of f's per-source tallies (nil if the stream
// has no state yet), indexed in registration order.
func (r *Registry) Stats(f *pfs.File) []SourceStats {
	st, ok := r.streams[f]
	if !ok {
		return nil
	}
	out := make([]SourceStats, len(st.stats))
	copy(out, st.stats)
	return out
}

// Pending reports the staged writes not yet known durable for f.
func (wb *WriteBehind) Pending(f *pfs.File) int {
	wb.reap(f)
	return len(wb.inflight[f])
}
