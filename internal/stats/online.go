package stats

import (
	"fmt"
	"math"
)

// This file holds the allocation-lean online aggregators the fleet engine
// folds per-sample telemetry into: a fixed-bin histogram and a streaming
// moments accumulator. Both were chosen over quantile sketches (t-digest,
// GK) deliberately: their state is plain counters and sums, their Merge is
// exact integer/ordered-float addition, and therefore a report assembled
// from per-cell aggregates merged in deterministic index order is
// byte-identical at any worker count — the fleet determinism contract.

// Histogram is a fixed-bin histogram over a closed value range. Adding a
// sample is one bounds clamp and one integer increment (no allocation);
// values outside [Lo, Hi] are clamped into the edge bins, so the histogram
// never loses samples and Count is exact. Percentiles are reconstructed by
// linear interpolation inside the covering bin, so their resolution is the
// bin width — pick the range/bins for the precision the report needs.
//
// The histogram tracks the span of bins that may be non-zero, so Merge,
// Reset and Quantile touch only that span: a 720-bin fleet histogram whose
// cell fills a few dozen bins merges in a few dozen additions. Counts go
// in through Add and AddBin, which widen the span; Bins is exported for
// reading, and a direct write to it is invisible to the span.
type Histogram struct {
	Lo, Hi float64
	Bins   []uint64
	N      uint64

	// spanLo, spanHi bound the bins that may be non-zero: every bin
	// outside [spanLo, spanHi) is zero. spanLo >= spanHi is the empty
	// span, the zero value included.
	spanLo, spanHi int
}

// NewHistogram returns a histogram of `bins` equal-width bins over [lo, hi].
// It panics on a non-positive bin count or an empty range: histogram shapes
// are compile-time choices of the caller, not runtime data.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 || !(hi > lo) {
		panic(fmt.Sprintf("stats: invalid histogram shape [%g, %g) x %d", lo, hi, bins))
	}
	return &Histogram{Lo: lo, Hi: hi, Bins: make([]uint64, bins)}
}

// Add folds one sample into the histogram. NaN samples are counted in the
// lowest bin rather than dropped, so a NaN leaking into a telemetry stream
// shows up as an impossible p0 value instead of silently vanishing.
// Out-of-range values (infinities included) are clamped BEFORE the bin
// arithmetic: a float-to-int overflow there would be implementation-
// specific — amd64 truncates to the minimum, arm64 saturates — and the
// byte-identical-report contract must hold across architectures.
func (h *Histogram) Add(v float64) {
	i := h.bin(v)
	h.Bins[i]++
	h.N++
	h.widen(i, i+1)
}

// bin returns the index of the bin sample v falls in.
func (h *Histogram) bin(v float64) int {
	switch {
	case math.IsNaN(v) || v <= h.Lo:
		return 0 // lowest bin
	case v >= h.Hi:
		return len(h.Bins) - 1
	}
	// v in (Lo, Hi): the ratio is in (0, 1), so the product is bounded by
	// the bin count and the conversion cannot overflow.
	return min(int(float64(len(h.Bins))*(v-h.Lo)/(h.Hi-h.Lo)), len(h.Bins)-1)
}

// AddBin adds c samples to bin i directly — the decoding hook for a
// histogram persisted as its bin counts. It panics on an index out of
// range, like Bins[i].
func (h *Histogram) AddBin(i int, c uint64) {
	h.Bins[i] += c
	h.N += c
	h.widen(i, i+1)
}

// widen grows the non-zero span to cover bins [lo, hi).
func (h *Histogram) widen(lo, hi int) {
	if h.spanLo >= h.spanHi {
		h.spanLo, h.spanHi = lo, hi
		return
	}
	h.spanLo = min(h.spanLo, lo)
	h.spanHi = max(h.spanHi, hi)
}

// Merge adds o's counts into h. The shapes must match (same range, same bin
// count); merging is pure integer addition, so any merge order produces the
// same state.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.N == 0 {
		return
	}
	if len(h.Bins) != len(o.Bins) || h.Lo != o.Lo || h.Hi != o.Hi {
		panic("stats: merging histograms of different shapes")
	}
	for i, c := range o.Bins[o.spanLo:o.spanHi] {
		h.Bins[o.spanLo+i] += c
	}
	h.N += o.N
	h.widen(o.spanLo, o.spanHi)
}

// Count returns the number of samples folded in.
func (h *Histogram) Count() uint64 { return h.N }

// Reset zeroes the counts in place, keeping the shape and the bin backing —
// the recycling hook for aggregator pools. A reset histogram is
// indistinguishable from a fresh one of the same shape.
func (h *Histogram) Reset() {
	if h.spanLo < h.spanHi {
		clear(h.Bins[h.spanLo:h.spanHi])
	}
	h.N = 0
	h.spanLo, h.spanHi = 0, 0
}

// Quantile returns the q-th quantile (0..1) reconstructed from the bins:
// the returned value lies within one bin width of the exact sample
// quantile. Returns NaN for an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h.N == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank in [0, N-1], same linear-interpolation convention as Percentile.
	rank := q * float64(h.N-1)
	w := (h.Hi - h.Lo) / float64(len(h.Bins))
	cum := uint64(0)
	for i := h.spanLo; i < h.spanHi; i++ {
		c := h.Bins[i]
		if c == 0 {
			continue
		}
		lo := float64(cum)
		cum += c
		if rank < float64(cum) {
			// Interpolate within the bin by the rank's position in it.
			frac := (rank - lo + 0.5) / float64(c)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return h.Lo + w*(float64(i)+frac)
		}
	}
	return h.Hi // unreachable for N > 0, but keep it total
}

// Moments accumulates count, sum, min, and max online — the streaming
// complement of the histogram for metrics where the exact mean and extremes
// matter more than the distribution shape. Merge concatenates two streams;
// merged in a fixed order the float sums are bit-reproducible.
type Moments struct {
	N    uint64
	Sum  float64
	MinV float64
	MaxV float64
}

// Add folds one sample in.
func (m *Moments) Add(v float64) {
	if m.N == 0 || v < m.MinV {
		m.MinV = v
	}
	if m.N == 0 || v > m.MaxV {
		m.MaxV = v
	}
	m.N++
	m.Sum += v
}

// Merge folds o's stream in after m's. Merge order changes nothing for
// N/Min/Max and is kept deterministic by the caller for Sum.
func (m *Moments) Merge(o *Moments) {
	if o == nil || o.N == 0 {
		return
	}
	if m.N == 0 || o.MinV < m.MinV {
		m.MinV = o.MinV
	}
	if m.N == 0 || o.MaxV > m.MaxV {
		m.MaxV = o.MaxV
	}
	m.N += o.N
	m.Sum += o.Sum
}

// Mean returns the running mean, or 0 for an empty accumulator (matching
// the package's Mean convention for empty slices).
func (m *Moments) Mean() float64 {
	if m.N == 0 {
		return 0
	}
	return m.Sum / float64(m.N)
}

// Min returns the smallest sample, or +Inf when empty (as stats.Min).
func (m *Moments) Min() float64 {
	if m.N == 0 {
		return math.Inf(1)
	}
	return m.MinV
}

// Max returns the largest sample, or -Inf when empty (as stats.Max).
func (m *Moments) Max() float64 {
	if m.N == 0 {
		return math.Inf(-1)
	}
	return m.MaxV
}
