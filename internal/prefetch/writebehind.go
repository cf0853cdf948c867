package prefetch

import (
	"fmt"

	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// WriteBehind is the write-side mirror of the prefetching prototype: a
// user write copies into a compute-node staging buffer and returns, and
// the asynchronous request thread pushes the data to the I/O nodes while
// the application computes. A bounded buffer pool provides backpressure,
// and Flush drains everything before close. The paper leaves writes to
// future work; this extension quantifies them.
type WriteBehind struct {
	k   *sim.Kernel
	cfg WriteBehindConfig

	inflight map[*pfs.File][]*pfs.Async

	// Measurements.
	Writes    int64           // writes accepted into staging
	Stalls    int64           // writes that blocked on the buffer cap
	Flushes   int64           // explicit flushes
	StallTime stats.Histogram // time spent waiting for a free buffer, seconds
}

// WriteBehindConfig tunes the staging pool.
type WriteBehindConfig struct {
	MaxBuffers   int     // staged-but-unwritten buffers per file
	MemBandwidth float64 // user-buffer to staging-buffer copy rate
}

// DefaultWriteBehindConfig mirrors the prefetcher's parameters.
func DefaultWriteBehindConfig() WriteBehindConfig {
	return WriteBehindConfig{MaxBuffers: 16, MemBandwidth: 45e6}
}

// NewWriteBehind returns a write-behind engine on kernel k.
func NewWriteBehind(k *sim.Kernel, cfg WriteBehindConfig) *WriteBehind {
	if cfg.MaxBuffers <= 0 {
		panic("prefetch: write-behind buffer cap must be positive")
	}
	if cfg.MemBandwidth <= 0 {
		panic("prefetch: write-behind memory bandwidth must be positive")
	}
	return &WriteBehind{k: k, cfg: cfg, inflight: make(map[*pfs.File][]*pfs.Async)}
}

// Write stages a write of [off, off+n) on f and returns once the data is
// copied out of the user's buffer (blocking first on a free staging slot
// if the pool is full). The durable write completes asynchronously;
// its error surfaces at the next Flush.
func (wb *WriteBehind) Write(p *sim.Proc, f *pfs.File, off, n int64) error {
	if n <= 0 || off < 0 || off+n > f.Size() {
		return fmt.Errorf("prefetch: write-behind [%d,+%d) outside %s (%d bytes)", off, n, f.Name(), f.Size())
	}
	// Backpressure: wait for the oldest in-flight write to retire.
	for len(wb.inflight[f]) >= wb.cfg.MaxBuffers {
		wb.Stalls++
		from := p.Now()
		oldest := wb.inflight[f][0]
		if err := oldest.Done.Wait(p); err != nil {
			wb.reap(f)
			return err
		}
		wb.StallTime.ObserveTime(p.Now() - from)
		wb.reap(f)
	}
	// Copy user buffer -> staging buffer, then hand off to the ART.
	p.Sleep(sim.Time(float64(n) / wb.cfg.MemBandwidth * float64(sim.Second)))
	wb.inflight[f] = append(wb.inflight[f], f.IWriteAt(off, n))
	wb.Writes++
	return nil
}

// Flush blocks until every staged write on f is durable and returns the
// first error among them.
func (wb *WriteBehind) Flush(p *sim.Proc, f *pfs.File) error {
	wb.Flushes++
	var first error
	for _, req := range wb.inflight[f] {
		if err := req.Done.Wait(p); err != nil && first == nil {
			first = err
		}
	}
	delete(wb.inflight, f)
	return first
}

// reap drops completed requests from the front of f's in-flight list.
func (wb *WriteBehind) reap(f *pfs.File) {
	l := wb.inflight[f]
	for len(l) > 0 && l[0].Done.Fired() && l[0].Done.Err() == nil {
		l = l[1:]
	}
	wb.inflight[f] = l
}
