package prefetch

import "repro/internal/sim"

// ControllerConfig arms the online parameter controller: every Interval
// served reads the controller looks at the window's hit rate and average
// direct-read service time and may step Depth and MaxBuffers, bounded by
// the Min/Max fields and by Step per decision. The zero value disables
// the controller entirely.
//
// Every decision is a pure function of integer window counters
// accumulated in simulated-event order (decideTune), so controlled runs
// stay bit-identical at a fixed seed.
type ControllerConfig struct {
	// Interval is the window length in served reads (0 disables).
	Interval int64
	// MinDepth/MaxDepth bound the tuned prefetch depth.
	// Defaults (applied by New): 1 and 8.
	MinDepth int
	MaxDepth int
	// MinBuffers/MaxBuffers bound the tuned per-file buffer cap.
	// Defaults: 2 and 32.
	MinBuffers int
	MaxBuffers int
	// Step bounds how far one decision may move each knob. Default: 1.
	Step int
	// LowHit/HighHit are the window hit-rate thresholds: at or below
	// LowHit the controller backs off, at or above HighHit it deepens.
	// Defaults: 0.3 and 0.7.
	LowHit  float64
	HighHit float64
	// ServiceSlack backs the controller off regardless of hit rate when
	// the window's average direct-read service time exceeds ServiceSlack
	// times the first window's — the signature of a degraded I/O path,
	// where speculative load only adds queueing. 0 disables the check.
	// Default: 2.5.
	ServiceSlack float64
}

// Enabled reports whether the controller is armed.
func (c ControllerConfig) Enabled() bool { return c.Interval > 0 }

// withDefaults fills unset fields.
func (c ControllerConfig) withDefaults() ControllerConfig {
	if c.MinDepth <= 0 {
		c.MinDepth = 1
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 8
	}
	if c.MinBuffers <= 0 {
		c.MinBuffers = 2
	}
	if c.MaxBuffers <= 0 {
		c.MaxBuffers = 32
	}
	if c.Step <= 0 {
		c.Step = 1
	}
	if c.LowHit <= 0 {
		c.LowHit = 0.3
	}
	if c.HighHit <= 0 {
		c.HighHit = 0.7
	}
	if c.ServiceSlack <= 0 {
		c.ServiceSlack = 2.5
	}
	return c
}

// controller is the per-Prefetcher tuning state. The knobs it moves live
// in the Prefetcher's Config (Depth, MaxBuffers), which the issue path
// reads on every call, so a retune takes effect at the very next read.
type controller struct {
	cfg ControllerConfig

	reads      int64    // reads in the current window
	hits       int64    // of which were served from a buffer
	directN    int64    // direct reads with a measured service time
	directTime sim.Time // their summed service time

	base     float64 // first window's average direct service, seconds
	haveBase bool

	depthMoves int64 // decisions that changed Depth
	bufMoves   int64 // decisions that changed MaxBuffers
}

// observe folds one served read into the window. Fallback reads count as
// misses here (the buffer did not serve them), matching HitRate.
func (ct *controller) observe(hit bool, direct bool, service sim.Time) {
	ct.reads++
	if hit {
		ct.hits++
	}
	if direct {
		ct.directN++
		ct.directTime += service
	}
}

// window closes the current window if due and returns the retuned
// (depth, bufs) plus whether a decision was taken.
func (ct *controller) window(depth, bufs int) (int, int, bool) {
	if ct.reads < ct.cfg.Interval {
		return depth, bufs, false
	}
	hitRate := float64(ct.hits) / float64(ct.reads)
	service := 0.0
	if ct.directN > 0 {
		service = (ct.directTime / sim.Time(ct.directN)).Seconds()
		if !ct.haveBase {
			// The first measured window calibrates "normal" service time;
			// later windows are judged against it.
			ct.base, ct.haveBase = service, true
		}
	}
	ct.reads, ct.hits, ct.directN, ct.directTime = 0, 0, 0, 0
	nd, nb := decideTune(depth, bufs, hitRate, service, ct.base, ct.cfg)
	if nd != depth {
		ct.depthMoves++
	}
	if nb != bufs {
		ct.bufMoves++
	}
	return nd, nb, nd != depth || nb != bufs
}

// decideTune is the controller's whole policy, as a pure function so the
// determinism argument is an inspection: same counters in, same knobs
// out.
//
//   - hit rate at or above HighHit: the stream is predictable — deepen,
//     up to MaxDepth, by at most Step;
//   - hit rate at or below LowHit: speculation is not paying — back off
//     toward MinDepth;
//   - direct service time beyond ServiceSlack × the calibration window:
//     the I/O path is degraded — back off regardless of hit rate (a
//     prefetch-fed hit rate can stay high while the misses behind it
//     queue ever longer);
//   - MaxBuffers tracks depth with one slot of slack so issue depth is
//     never strangled by the cap, stepping and clamping like depth.
func decideTune(depth, bufs int, hitRate, service, baseService float64, c ControllerConfig) (int, int) {
	grow := hitRate >= c.HighHit
	shrink := hitRate <= c.LowHit
	if c.ServiceSlack > 0 && baseService > 0 && service > c.ServiceSlack*baseService {
		grow, shrink = false, true
	}
	switch {
	case grow:
		depth = clamp(depth+c.Step, c.MinDepth, c.MaxDepth)
	case shrink:
		depth = clamp(depth-c.Step, c.MinDepth, c.MaxDepth)
	}
	target := clamp(depth+1, c.MinBuffers, c.MaxBuffers)
	switch {
	case bufs < target:
		bufs = min(bufs+c.Step, target)
	case bufs > target:
		bufs = max(bufs-c.Step, target)
	}
	return depth, bufs
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
