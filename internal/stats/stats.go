// Package stats provides the summary statistics used throughout the
// evaluation: mean, variance, max-min temperature spread, RMSE, and the
// percentage prediction-error metric the paper reports (Figures 4.10, 6.2,
// 6.5, 6.9).
package stats

import "math"

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 when len(xs) < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// Min returns the minimum of a non-empty slice, or +Inf for an empty one.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of a non-empty slice, or -Inf for an empty one.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Spread returns Max - Min: the paper's "Max-Min Temp" stability metric
// (Figure 6.5). Returns 0 for empty input.
func Spread(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Max(xs) - Min(xs)
}

// RMSE returns the root-mean-square error between two equal-length series.
func RMSE(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("stats: length mismatch")
	}
	if len(a) == 0 {
		return 0
	}
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(a)))
}

// PercentError returns the mean absolute percentage error of predicted vs
// measured, matching the paper's temperature-prediction-error metric:
// mean(|pred - meas| / meas) * 100. Samples with |meas| < eps are skipped.
func PercentError(measured, predicted []float64) float64 {
	if len(measured) != len(predicted) {
		panic("stats: length mismatch")
	}
	const eps = 1e-9
	s, n := 0.0, 0
	for i := range measured {
		if math.Abs(measured[i]) < eps {
			continue
		}
		s += math.Abs(predicted[i]-measured[i]) / math.Abs(measured[i])
		n++
	}
	if n == 0 {
		return 0
	}
	return 100 * s / float64(n)
}

// MaxPercentError returns the largest single-sample percentage error.
func MaxPercentError(measured, predicted []float64) float64 {
	if len(measured) != len(predicted) {
		panic("stats: length mismatch")
	}
	const eps = 1e-9
	m := 0.0
	for i := range measured {
		if math.Abs(measured[i]) < eps {
			continue
		}
		if e := 100 * math.Abs(predicted[i]-measured[i]) / math.Abs(measured[i]); e > m {
			m = e
		}
	}
	return m
}

// PercentileSorted returns the p-th percentile (0..100) of sorted, a
// slice in sort.Float64s order, using linear interpolation. A caller
// reading several percentiles of one series sorts it once.
func PercentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
