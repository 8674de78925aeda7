package sim

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/workload"
)

// TestPredAccountingOffline referees Run's online §6.3.1 accounting: the
// Pred* fields must equal, bit for bit, one pass over the recorded series
// the way the metric is defined — interval k's predicted hottest core
// ("predmax_c", one value per interval) against the true maximum
// ("maxtemp") measured horizon intervals later, in interval order,
// skipping non-positive measurements. It covers short, default and long
// horizons, a horizon that fits the run exactly once, one longer than the
// run, and a run cancelled part-way.
func TestPredAccountingOffline(t *testing.T) {
	ch := characterize(t)
	b, err := workload.ByName("dijkstra")
	if err != nil {
		t.Fatal(err)
	}
	offline := func(pred, meas []float64, h int) (mean, worst, worstAbs float64) {
		sum, n := 0.0, 0
		for k := 0; k+h < len(meas); k++ {
			m := meas[k+h]
			if m <= 0 {
				continue
			}
			abs := math.Abs(pred[k] - m)
			pct := 100 * abs / m
			sum += pct
			n++
			if pct > worst {
				worst = pct
			}
			if abs > worstAbs {
				worstAbs = abs
			}
		}
		if n == 0 {
			return 0, 0, 0
		}
		return sum / float64(n), worst, worstAbs
	}
	// 30 s at 100 ms is 301 intervals, all of which the run completes
	// (dijkstra needs ~64 s), so horizon 300 scores exactly one interval.
	const dur, intervals = 30, 301
	cases := []struct {
		name        string
		policy      Policy
		horizon     int // Options.PredHorizon
		effective   int // the horizon the accounting uses
		cancelAfter int // cancel once this many intervals ran (0 = never)
	}{
		{"h1", PolicyDTPM, 1, 1, 0},
		{"default", PolicyDTPM, 0, 10, 0},
		{"h10-no-fan", PolicyNoFan, 10, 10, 0},
		{"h37", PolicyDTPM, 37, 37, 0},
		{"fits-once", PolicyDTPM, intervals - 1, intervals - 1, 0},
		{"longer-than-run", PolicyDTPM, 5000, 5000, 0},
		{"cancelled", PolicyDTPM, 10, 10, 120},
		{"cancelled-h37", PolicyNoFan, 37, 37, 40},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			seen := 0
			opt := Options{
				Policy: c.policy, Bench: b, Seed: 3, MaxDuration: dur, Record: true,
				PredHorizon: c.horizon, Model: ch.Thermal, PowerModel: ch.Power,
				Observer: func(Sample) {
					seen++
					if seen == c.cancelAfter {
						cancel()
					}
				},
			}
			res, err := NewRunner().Run(ctx, opt)
			if c.cancelAfter > 0 {
				if !errors.Is(err, ErrCancelled) {
					t.Fatalf("want a cancelled run, got %v", err)
				}
			} else if err != nil {
				t.Fatal(err)
			}
			pred := res.Rec.Series("predmax_c").Vals
			meas := res.Rec.Series("maxtemp").Vals
			want := intervals
			if c.cancelAfter > 0 {
				want = c.cancelAfter
			}
			if len(pred) != want || len(meas) != want {
				t.Fatalf("recorded %d predictions and %d measurements, want %d each", len(pred), len(meas), want)
			}
			mean, worst, worstAbs := offline(pred, meas, c.effective)
			if c.effective < want && mean == 0 {
				t.Fatalf("offline pass scored nothing: the case does not exercise the accounting")
			}
			same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
			if !same(res.PredMeanPct, mean) || !same(res.PredMaxPct, worst) || !same(res.PredMaxAbsC, worstAbs) {
				t.Fatalf("Pred* = %v/%v/%v, offline %v/%v/%v",
					res.PredMeanPct, res.PredMaxPct, res.PredMaxAbsC, mean, worst, worstAbs)
			}
		})
	}
}
