// Package stats provides the measurement plumbing shared by the simulator
// and the benchmark harness: sample histograms, time-weighted utilization
// tracking, throughput conversions, and fixed-width table rendering that
// mimics the layout of the paper's tables.
package stats

import (
	"hash/fnv"
	"math"
	"sort"

	"repro/internal/sim"
)

// MBps converts a byte count moved over a simulated duration to the
// megabytes-per-second figure the paper reports (1 MB = 2^20 bytes, the
// convention of the era). A non-positive duration yields 0.
func MBps(bytes int64, d sim.Time) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / (1 << 20) / d.Seconds()
}

// Histogram accumulates float64 samples and answers summary questions.
// It stores every sample; simulations in this repository record at most a
// few hundred thousand, which is cheap, and exact quantiles beat sketches
// for reproducibility.
type Histogram struct {
	samples []float64
	sum     float64
	sorted  bool
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h.samples == nil {
		h.samples = make([]float64, 0, 64)
	}
	h.samples = append(h.samples, v)
	h.sum += v
	h.sorted = false
}

// Reserve grows the sample storage to hold at least n samples without
// further allocation. Call it once when the expected sample count is
// known; observing past the reservation still works (append grows).
func (h *Histogram) Reserve(n int) {
	if cap(h.samples) >= n {
		return
	}
	s := make([]float64, len(h.samples), n)
	copy(s, h.samples)
	h.samples = s
}

// Reset forgets all samples but keeps the storage, so a histogram can be
// reused across runs without reallocating.
func (h *Histogram) Reset() {
	h.samples = h.samples[:0]
	h.sum = 0
	h.sorted = false
}

// Clone returns an independent copy of h: samples observed later on
// either histogram do not show in the other.
func (h *Histogram) Clone() Histogram {
	c := *h
	c.samples = append([]float64(nil), h.samples...)
	return c
}

// ObserveTime records a simulated duration, in seconds.
func (h *Histogram) ObserveTime(d sim.Time) { h.Observe(d.Seconds()) }

// N reports the number of samples.
func (h *Histogram) N() int { return len(h.samples) }

// Sum reports the total of all samples.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean reports the sample mean, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	return h.sum / float64(len(h.samples))
}

// Min reports the smallest sample, or 0 with no samples.
func (h *Histogram) Min() float64 {
	h.sort()
	if len(h.samples) == 0 {
		return 0
	}
	return h.samples[0]
}

// Max reports the largest sample, or 0 with no samples.
func (h *Histogram) Max() float64 {
	h.sort()
	if len(h.samples) == 0 {
		return 0
	}
	return h.samples[len(h.samples)-1]
}

// Quantile reports the q-quantile (0 ≤ q ≤ 1) by nearest-rank, or 0 with
// no samples.
func (h *Histogram) Quantile(q float64) float64 {
	h.sort()
	n := len(h.samples)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return h.samples[i]
}

// Fingerprint digests the sample multiset (FNV-64a over the sorted raw
// bit patterns). Two histograms fed the same samples — in any order —
// fingerprint equal; any numeric difference, however small, does not.
// Sorting makes the digest independent of observation order, which the
// workload layer does not guarantee across runs (per-node histograms are
// merged in node order, but samples within a node interleave by time).
func (h *Histogram) Fingerprint() uint64 {
	h.sort()
	d := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		d.Write(buf[:])
	}
	put(uint64(len(h.samples)))
	for _, v := range h.samples {
		put(math.Float64bits(v))
	}
	return d.Sum64()
}

// Each calls fn for every recorded sample (in unspecified order).
func (h *Histogram) Each(fn func(v float64)) {
	for _, v := range h.samples {
		fn(v)
	}
}

func (h *Histogram) sort() {
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
}

// Utilization tracks the fraction of simulated time a device spends busy.
// Overlapping busy intervals from one device are a modeling bug, so Begin
// while already busy panics.
type Utilization struct {
	busy     sim.Time
	busyFrom sim.Time
	active   bool
}

// Begin marks the device busy starting at now.
func (u *Utilization) Begin(now sim.Time) {
	if u.active {
		panic("stats: Utilization.Begin while already busy")
	}
	u.active = true
	u.busyFrom = now
}

// End marks the device idle at now.
func (u *Utilization) End(now sim.Time) {
	if !u.active {
		panic("stats: Utilization.End while idle")
	}
	u.active = false
	u.busy += now - u.busyFrom
}

// Busy reports accumulated busy time, counting a still-open interval up to
// now.
func (u *Utilization) Busy(now sim.Time) sim.Time {
	b := u.busy
	if u.active {
		b += now - u.busyFrom
	}
	return b
}

// Fraction reports busy time as a fraction of the total elapsed time.
func (u *Utilization) Fraction(now sim.Time) float64 {
	if now <= 0 {
		return 0
	}
	return u.Busy(now).Seconds() / now.Seconds()
}
