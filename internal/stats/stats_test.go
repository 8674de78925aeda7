package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean wrong")
	}
	if Mean(nil) != 0 {
		t.Fatal("empty mean should be 0")
	}
}

func TestVariance(t *testing.T) {
	// Population variance of {2,4,4,4,5,5,7,9} is 4.
	v := Variance([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(v-4) > 1e-12 {
		t.Fatalf("variance = %v, want 4", v)
	}
	if Variance([]float64{5}) != 0 {
		t.Fatal("singleton variance should be 0")
	}
}

func TestMinMaxSpread(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatal("min/max wrong")
	}
	if Spread(xs) != 8 {
		t.Fatalf("spread = %v, want 8", Spread(xs))
	}
	if Spread(nil) != 0 {
		t.Fatal("empty spread should be 0")
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Fatal("empty min/max sentinel wrong")
	}
}

func TestRMSE(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{1, 2, 3}
	if RMSE(a, b) != 0 {
		t.Fatal("identical series must have zero error")
	}
	c := []float64{2, 2, 3}
	want := math.Sqrt(1.0 / 3.0)
	if math.Abs(RMSE(a, c)-want) > 1e-12 {
		t.Fatalf("RMSE = %v, want %v", RMSE(a, c), want)
	}
}

func TestRMSEMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RMSE([]float64{1}, []float64{1, 2})
}

func TestPercentError(t *testing.T) {
	meas := []float64{50, 100}
	pred := []float64{49, 103}
	// errors: 2% and 3% -> mean 2.5, max 3
	if e := PercentError(meas, pred); math.Abs(e-2.5) > 1e-9 {
		t.Fatalf("PercentError = %v, want 2.5", e)
	}
	if e := MaxPercentError(meas, pred); math.Abs(e-3) > 1e-9 {
		t.Fatalf("MaxPercentError = %v, want 3", e)
	}
}

func TestPercentErrorSkipsZeros(t *testing.T) {
	meas := []float64{0, 100}
	pred := []float64{5, 101}
	if e := PercentError(meas, pred); math.Abs(e-1) > 1e-9 {
		t.Fatalf("PercentError with zero measured = %v, want 1", e)
	}
}

// Percentile is PercentileSorted of a sorted copy of xs: it leaves the
// input in its order.
func Percentile(xs []float64, p float64) float64 {
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return PercentileSorted(cp, p)
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if Percentile(xs, 0) != 1 || Percentile(xs, 100) != 4 {
		t.Fatal("percentile endpoints wrong")
	}
	if p := Percentile(xs, 50); math.Abs(p-2.5) > 1e-12 {
		t.Fatalf("median = %v, want 2.5", p)
	}
	// Input must not be reordered.
	if xs[0] != 4 {
		t.Fatal("Percentile reordered input")
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile should be 0")
	}
}

// Property: variance is translation invariant and scales quadratically.
func TestPropertyVarianceAffine(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		xs := make([]float64, n)
		ys := make([]float64, n)
		shift := rng.NormFloat64() * 10
		scale := 1 + rng.Float64()*3
		for i := range xs {
			xs[i] = rng.NormFloat64()
			ys[i] = scale*xs[i] + shift
		}
		v1 := Variance(xs) * scale * scale
		v2 := Variance(ys)
		return math.Abs(v1-v2) < 1e-8*(1+v2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Min <= Mean <= Max and Spread >= 0.
func TestPropertyOrdering(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 50
		}
		m := Mean(xs)
		return Min(xs) <= m+1e-12 && m <= Max(xs)+1e-12 && Spread(xs) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
