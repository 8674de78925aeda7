package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestHistogramQuantileTracksExactPercentile(t *testing.T) {
	h := NewHistogram(0, 100, 1000) // 0.1-wide bins
	var xs []float64
	// A deterministic skewed stream.
	for i := 0; i < 5000; i++ {
		v := 50 + 30*math.Sin(float64(i)*0.7) + 0.002*float64(i)
		h.Add(v)
		xs = append(xs, v)
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.95, 0.99, 1} {
		got := h.Quantile(q)
		want := Percentile(xs, 100*q)
		if math.Abs(got-want) > 0.1+1e-9 { // one bin width
			t.Errorf("quantile %.2f: histogram %.4f vs exact %.4f", q, got, want)
		}
	}
	if h.Count() != 5000 {
		t.Errorf("count %d", h.Count())
	}
}

func TestHistogramClampsOutOfRange(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	h.Add(-5)
	h.Add(15)
	h.Add(math.NaN())
	if h.Bins[0] != 2 || h.Bins[9] != 1 || h.N != 3 {
		t.Errorf("clamp: bins %v n %d", h.Bins, h.N)
	}
	// Infinities AND huge finite values clamp to their edge bins before
	// the bin arithmetic (a float-to-int overflow there would be
	// architecture-dependent: amd64 truncates to the minimum, arm64
	// saturates).
	h.Add(math.Inf(1))
	h.Add(math.Inf(-1))
	h.Add(1e19)
	h.Add(-1e19)
	if h.Bins[0] != 4 || h.Bins[9] != 3 || h.N != 7 {
		t.Errorf("overflow clamp: bins %v n %d", h.Bins, h.N)
	}
}

func TestHistogramMergeMatchesSequential(t *testing.T) {
	a := NewHistogram(0, 50, 200)
	b := NewHistogram(0, 50, 200)
	all := NewHistogram(0, 50, 200)
	for i := 0; i < 1000; i++ {
		v := 25 + 20*math.Cos(float64(i)*1.3)
		all.Add(v)
		if i%2 == 0 {
			a.Add(v)
		} else {
			b.Add(v)
		}
	}
	a.Merge(b)
	if a.N != all.N {
		t.Fatalf("merged count %d vs %d", a.N, all.N)
	}
	for i := range a.Bins {
		if a.Bins[i] != all.Bins[i] {
			t.Fatalf("bin %d: merged %d vs sequential %d", i, a.Bins[i], all.Bins[i])
		}
	}
	if q1, q2 := a.Quantile(0.9), all.Quantile(0.9); q1 != q2 {
		t.Errorf("merged q90 %g vs %g", q1, q2)
	}
}

func TestHistogramEmptyAndShape(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Error("empty histogram quantile not NaN")
	}
	defer func() {
		if recover() == nil {
			t.Error("mismatched merge did not panic")
		}
	}()
	h.Merge(&Histogram{Lo: 0, Hi: 2, Bins: make([]uint64, 4), N: 1})
}

// denseHist is the reference the span-bounded Histogram must match: every
// operation touches every bin.
type denseHist struct {
	bins []uint64
	n    uint64
}

func (d *denseHist) quantile(lo, hi, q float64) float64 {
	if d.n == 0 {
		return math.NaN()
	}
	q = min(max(q, 0), 1)
	rank := q * float64(d.n-1)
	w := (hi - lo) / float64(len(d.bins))
	cum := uint64(0)
	for i, c := range d.bins {
		if c == 0 {
			continue
		}
		start := float64(cum)
		cum += c
		if rank < float64(cum) {
			frac := min(max((rank-start+0.5)/float64(c), 0), 1)
			return lo + w*(float64(i)+frac)
		}
	}
	return hi
}

// TestHistogramSpanMatchesDense drives random Add / AddBin / Merge / Reset
// sequences over a few histograms and checks each against a dense
// reference after every step: the bins, the count and every quantile are
// identical, so tracking the non-zero span changes no result.
func TestHistogramSpanMatchesDense(t *testing.T) {
	const lo, hi, bins = -40.0, 140.0, 720
	rng := rand.New(rand.NewSource(7))
	for seq := 0; seq < 50; seq++ {
		hs := make([]*Histogram, 3)
		refs := make([]*denseHist, 3)
		for i := range hs {
			hs[i] = NewHistogram(lo, hi, bins)
			refs[i] = &denseHist{bins: make([]uint64, bins)}
		}
		for step := 0; step < 200; step++ {
			i := rng.Intn(len(hs))
			h, ref := hs[i], refs[i]
			switch op := rng.Intn(10); {
			case op < 5: // a sample, often in a narrow band, sometimes off range
				v := 20 + 10*rng.NormFloat64()
				switch rng.Intn(20) {
				case 0:
					v = math.NaN()
				case 1:
					v = 1e9 * rng.NormFloat64()
				}
				ref.bins[h.bin(v)]++
				ref.n++
				h.Add(v)
			case op < 7: // a decoded bin
				b, c := rng.Intn(bins), uint64(1+rng.Intn(50))
				ref.bins[b] += c
				ref.n += c
				h.AddBin(b, c)
			case op < 9:
				j := (i + 1 + rng.Intn(len(hs)-1)) % len(hs)
				for b, c := range refs[j].bins {
					ref.bins[b] += c
				}
				ref.n += refs[j].n
				h.Merge(hs[j])
			default:
				clear(ref.bins)
				ref.n = 0
				h.Reset()
			}
			if h.N != ref.n || !slices.Equal(h.Bins, ref.bins) {
				t.Fatalf("sequence %d step %d: histogram %d diverged from the dense reference", seq, step, i)
			}
			for _, q := range []float64{0, 0.01, 0.5, 0.95, 0.99, 1} {
				got, want := h.Quantile(q), ref.quantile(lo, hi, q)
				if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
					t.Fatalf("sequence %d step %d: q%g = %g, dense %g", seq, step, q, got, want)
				}
			}
		}
	}
}

func TestMoments(t *testing.T) {
	var m Moments
	if m.Mean() != 0 || !math.IsInf(m.Min(), 1) || !math.IsInf(m.Max(), -1) {
		t.Error("empty moments conventions violated")
	}
	xs := []float64{3, -1, 4, 1.5, -9, 2.6}
	var a, b Moments
	for i, v := range xs {
		m.Add(v)
		if i < 3 {
			a.Add(v)
		} else {
			b.Add(v)
		}
	}
	a.Merge(&b)
	// Count and extremes merge exactly; the float sum is only guaranteed
	// reproducible for a FIXED merge order (the fleet merges cells in index
	// order), so sequential-vs-merged may differ in the last ulp here.
	if a.N != m.N || a.MinV != m.MinV || a.MaxV != m.MaxV {
		t.Errorf("merged moments %+v vs sequential %+v", a, m)
	}
	if math.Abs(a.Sum-m.Sum) > 1e-12 {
		t.Errorf("merged sum %g vs sequential %g", a.Sum, m.Sum)
	}
	// The SAME merge order is bit-reproducible.
	var a2 Moments
	for _, v := range xs[:3] {
		a2.Add(v)
	}
	a2.Merge(&b)
	if a2 != a {
		t.Errorf("repeat merge differs: %+v vs %+v", a2, a)
	}
	if m.Min() != -9 || m.Max() != 4 {
		t.Errorf("min/max %g/%g", m.Min(), m.Max())
	}
	if math.Abs(m.Mean()-Mean(xs)) > 1e-15 {
		t.Errorf("mean %g vs %g", m.Mean(), Mean(xs))
	}
	// Merging an empty accumulator changes nothing.
	before := m
	m.Merge(&Moments{})
	if m != before {
		t.Error("empty merge mutated state")
	}
}
