package power

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/platform"
)

func TestCelsiusToKelvin(t *testing.T) {
	if CelsiusToKelvin(0) != 273.15 || CelsiusToKelvin(40) != 313.15 {
		t.Fatal("conversion wrong")
	}
}

func TestLeakageGrowsExponentiallyWithTemperature(t *testing.T) {
	// Figure 4.3: big-cluster leakage power roughly triples from 40 to 80 C.
	g := DefaultGroundTruth()
	p40 := g.Leakage(platform.Big, 40, 1.25)
	p80 := g.Leakage(platform.Big, 80, 1.25)
	if p40 <= 0 || p80 <= p40 {
		t.Fatalf("leakage not increasing: %v -> %v", p40, p80)
	}
	ratio := p80 / p40
	if ratio < 2.2 || ratio > 3.5 {
		t.Fatalf("40->80C leakage ratio = %.2f, want ~2.7 (Figure 4.3)", ratio)
	}
	// Calibration: ~0.12 W at 40C, ~0.33 W at 80C at 1.25 V.
	if p40 < 0.08 || p40 > 0.16 {
		t.Fatalf("leak@40C = %.3f W, want ~0.12", p40)
	}
	if p80 < 0.26 || p80 > 0.40 {
		t.Fatalf("leak@80C = %.3f W, want ~0.33", p80)
	}
}

func TestLeakageConvex(t *testing.T) {
	// Exponential behaviour: the increment per 10C grows with temperature.
	g := DefaultGroundTruth()
	prev := 0.0
	for _, tc := range []float64{40, 50, 60, 70, 80} {
		p := g.Leakage(platform.Big, tc, 1.25)
		if tc > 40 {
			inc := p - prev
			if inc <= 0 {
				t.Fatalf("leakage increment at %vC not positive", tc)
			}
		}
		prev = p
	}
	inc1 := g.Leakage(platform.Big, 50, 1.25) - g.Leakage(platform.Big, 40, 1.25)
	inc4 := g.Leakage(platform.Big, 80, 1.25) - g.Leakage(platform.Big, 70, 1.25)
	if inc4 <= inc1 {
		t.Fatalf("leakage not convex in T: first step %v, last step %v", inc1, inc4)
	}
}

func TestLeakageScalesWithVoltage(t *testing.T) {
	g := DefaultGroundTruth()
	lo := g.Leakage(platform.Big, 60, 0.925)
	hi := g.Leakage(platform.Big, 60, 1.25)
	if hi <= lo {
		t.Fatal("leakage should grow with voltage (Figure 4.6)")
	}
	// P = V * I(V) with I linear in V: quadratic overall.
	want := (1.25 * 1.25) / (0.925 * 0.925)
	if r := hi / lo; math.Abs(r-want) > 0.02 {
		t.Fatalf("voltage scaling = %.3f, want %.3f", r, want)
	}
}

func TestDynamicPowerIndependentOfTemperature(t *testing.T) {
	// §4.1: "dynamic power shows negligible variation with temperature";
	// in the model it is exactly temperature-independent.
	g := DefaultGroundTruth()
	d := g.Dynamic(platform.Big, 1.25, 1600000, 1.0, 1.0)
	if d <= 0 {
		t.Fatal("dynamic power should be positive")
	}
	// No temperature argument exists by construction; assert the magnitude:
	// one fully loaded A15 at 1.6 GHz draws ~0.95 W dynamic.
	if d < 0.8 || d > 1.1 {
		t.Fatalf("per-core dynamic = %.3f W, want ~0.95", d)
	}
}

func TestDynamicPowerScalesWithVSquaredF(t *testing.T) {
	g := DefaultGroundTruth()
	base := g.Dynamic(platform.Big, 1.0, 1000000, 1.0, 1.0)
	doubleF := g.Dynamic(platform.Big, 1.0, 2000000, 1.0, 1.0)
	if math.Abs(doubleF-2*base) > 1e-12 {
		t.Fatal("dynamic power must be linear in f")
	}
	doubleV := g.Dynamic(platform.Big, 2.0, 1000000, 1.0, 1.0)
	if math.Abs(doubleV-4*base) > 1e-12 {
		t.Fatal("dynamic power must be quadratic in V")
	}
}

func TestDynamicUtilClamped(t *testing.T) {
	g := DefaultGroundTruth()
	if g.Dynamic(platform.Big, 1.0, 1000000, -0.5, 1.0) != 0 {
		t.Fatal("negative util should clamp to 0")
	}
	full := g.Dynamic(platform.Big, 1.0, 1000000, 1.0, 1.0)
	over := g.Dynamic(platform.Big, 1.0, 1000000, 1.7, 1.0)
	if over != full {
		t.Fatal("util > 1 should clamp to 1")
	}
}

func TestThirtyXPowerRange(t *testing.T) {
	// §1: ~30x range between 4 big cores at max freq and 1 little core at
	// min freq (SoC CPU power, dynamic + leakage at a moderate temperature).
	g := DefaultGroundTruth()
	high := 4*g.Dynamic(platform.Big, 1.25, 1600000, 1, 1) + g.Leakage(platform.Big, 70, 1.25)
	low := g.Dynamic(platform.Little, 0.9, 500000, 1, 1) + g.Leakage(platform.Little, 40, 0.9)/4
	ratio := high / low
	if ratio < 15 || ratio > 100 {
		t.Fatalf("power range = %.1fx, want large (paper quotes ~30x)", ratio)
	}
}

func TestFanPower(t *testing.T) {
	g := DefaultGroundTruth()
	if g.FanPower(0) != 0 {
		t.Fatal("fan off should draw nothing")
	}
	if g.FanPower(1) != g.FanMax {
		t.Fatal("fan at 100% should draw FanMax")
	}
	if g.FanPower(2) != g.FanMax {
		t.Fatal("fan speed should clamp at 1")
	}
	half := g.FanPower(0.5)
	if half <= 0 || half >= g.FanMax {
		t.Fatalf("fan at 50%% = %v", half)
	}
}

func TestMemPower(t *testing.T) {
	g := DefaultGroundTruth()
	idle := g.MemPower(40, 0)
	busy := g.MemPower(40, 1.5)
	if idle <= 0 || busy <= idle {
		t.Fatalf("mem power wrong: idle %v busy %v", idle, busy)
	}
	if g.MemPower(40, -1) != idle {
		t.Fatal("negative traffic should clamp")
	}
}

func TestEvaluateBreakdown(t *testing.T) {
	g := DefaultGroundTruth()
	chip := platform.NewChip()
	act := ChipActivity{
		CoreUtil:    []float64{1, 1, 1, 1},
		CPUActivity: 1,
		GPUUtil:     0.2,
		GPUActivity: 1,
		MemTraffic:  0.8,
		FanSpeed:    0.5,
	}
	temps := []float64{65, 64, 63, 62}
	b := g.Evaluate(chip, act, temps, 50)
	if b.Domain[platform.Big] < 3.2 || b.Domain[platform.Big] > 4.8 {
		t.Fatalf("big cluster power = %.3f W, want ~4 (quad A15 near full load)", b.Domain[platform.Big])
	}
	if b.Domain[platform.Little] >= 0.05 {
		t.Fatalf("inactive little cluster should be nearly gated, got %v", b.Domain[platform.Little])
	}
	if b.Fan <= 0 || b.Base != g.Base {
		t.Fatalf("fan/base wrong: %+v", b)
	}
	if b.Platform() <= b.SoC() {
		t.Fatal("platform power must exceed SoC power")
	}
	if b.Platform() < 4.0 || b.Platform() > 6.5 {
		t.Fatalf("high-load platform power = %.2f W, want ~5 W", b.Platform())
	}
}

func TestEvaluateOfflineCoresDrawNoDynamic(t *testing.T) {
	g := DefaultGroundTruth()
	chip := platform.NewChip()
	act := ChipActivity{CoreUtil: []float64{1, 1, 1, 1}, CPUActivity: 1}
	full := g.Evaluate(chip, act, []float64{60, 60, 60, 60}, 50)
	for i := 1; i < 4; i++ {
		if err := chip.Active().SetCoreOnline(i, false); err != nil {
			t.Fatal(err)
		}
	}
	one := g.Evaluate(chip, act, []float64{60, 60, 60, 60}, 50)
	if one.Domain[platform.Big] >= full.Domain[platform.Big]/2 {
		t.Fatalf("1-core power %.3f should be well under 4-core %.3f", one.Domain[platform.Big], full.Domain[platform.Big])
	}
}

func TestEvaluateLittleClusterUsesBoardTemp(t *testing.T) {
	g := DefaultGroundTruth()
	chip := platform.NewChip()
	chip.SwitchCluster(platform.LittleCluster)
	act := ChipActivity{CoreUtil: []float64{1, 1, 1, 1}, CPUActivity: 1}
	cold := g.Evaluate(chip, act, []float64{90, 90, 90, 90}, 40)
	hot := g.Evaluate(chip, act, []float64{90, 90, 90, 90}, 70)
	if hot.Domain[platform.Little] <= cold.Domain[platform.Little] {
		t.Fatal("little leakage should track board temperature")
	}
	if cold.Domain[platform.Big] >= 0.05 {
		t.Fatal("big cluster should be gated when little is active")
	}
}

func TestAlphaCEstimatorRecoversTruth(t *testing.T) {
	// Feed consistent synthetic observations; the estimator must converge to
	// the true alphaC = P_dyn / (V^2 f).
	est := NewAlphaCEstimator(0.5)
	trueAC := 0.9e-9
	v, f := 1.1, platform.KHz(1400000)
	leak := 0.2
	pdyn := trueAC * v * v * f.Hz()
	for i := 0; i < 20; i++ {
		est.Update(pdyn+leak, leak, v, f)
	}
	if math.Abs(est.Value()-trueAC)/trueAC > 1e-9 {
		t.Fatalf("alphaC = %v, want %v", est.Value(), trueAC)
	}
}

func TestAlphaCEstimatorClampsNegativeDynamic(t *testing.T) {
	est := NewAlphaCEstimator(1)
	est.Update(0.1, 0.5, 1.0, 1000000) // measured < leakage
	if est.Value() != 0 {
		t.Fatalf("negative dynamic should clamp to 0, got %v", est.Value())
	}
}

func TestAlphaCEstimatorSmoothing(t *testing.T) {
	est := NewAlphaCEstimator(0.5)
	v, f := 1.0, platform.KHz(1000000)
	est.Update(1.0, 0, v, f) // sample 1e-9
	first := est.Value()
	est.Update(2.0, 0, v, f) // sample 2e-9 -> EWMA 1.5e-9
	if est.Value() <= first || est.Value() >= 2e-9 {
		t.Fatalf("EWMA not between old and new: %v", est.Value())
	}
	est.Reset()
	if est.Value() != 0 {
		t.Fatal("reset should clear value")
	}
}

func TestAlphaCEstimatorBadSmoothingDefaults(t *testing.T) {
	if NewAlphaCEstimator(-1).Smoothing != 0.5 || NewAlphaCEstimator(2).Smoothing != 0.5 {
		t.Fatal("invalid smoothing should default to 0.5")
	}
}

func defaultModel() *Model {
	g := DefaultGroundTruth()
	var leak [platform.NumResources]LeakageParams
	for i := range leak {
		leak[i] = g.Res[i].Leak
	}
	return NewModel(leak)
}

func TestModelPredictTotalMatchesGroundTruth(t *testing.T) {
	// With exact leakage params and a converged alphaC, model predictions
	// must match the ground truth across the DVFS table (Figure 4.7).
	g := DefaultGroundTruth()
	m := defaultModel()
	d := platform.BigDomain()
	util, act, tc := 1.0, 1.0, 60.0

	// Observe at 1.2 GHz.
	obsOPP := d.OPPs[4]
	truth := 4*g.Dynamic(platform.Big, obsOPP.Volt, obsOPP.Freq, util, act) + g.Leakage(platform.Big, tc, obsOPP.Volt)
	m.At(platform.Big, tc).Observe(truth, obsOPP.Volt, obsOPP.Freq)

	for _, opp := range d.OPPs {
		want := 4*g.Dynamic(platform.Big, opp.Volt, opp.Freq, util, act) + g.Leakage(platform.Big, tc, opp.Volt)
		got := m.At(platform.Big, tc).PredictTotal(opp.Volt, opp.Freq)
		if math.Abs(got-want)/want > 0.01 {
			t.Fatalf("prediction at %v MHz: got %.4f want %.4f", opp.Freq.MHz(), got, want)
		}
	}
}

func TestFBudgetInvertsDynamicPower(t *testing.T) {
	m := defaultModel()
	v, f := 1.25, platform.KHz(1600000)
	m.At(platform.Big, 60).Observe(2.6+m.Leak[platform.Big].Power(60, v), v, f)
	// Budget equal to current dynamic power should give back ~current f.
	fb, err := m.FBudget(platform.Big, 2.6, v)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(fb-f))/float64(f) > 0.01 {
		t.Fatalf("FBudget = %v, want ~%v", fb, f)
	}
	// Half the budget -> half the frequency (same V).
	fb2, err := m.FBudget(platform.Big, 1.3, v)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(fb2)-float64(f)/2)/float64(f) > 0.01 {
		t.Fatalf("FBudget(half) = %v, want ~%v", fb2, f/2)
	}
}

func TestFBudgetErrors(t *testing.T) {
	m := defaultModel()
	if _, err := m.FBudget(platform.Big, 1.0, 1.0); err == nil {
		t.Fatal("expected error before any observation")
	}
	m.At(platform.Big, 60).Observe(2.0, 1.25, 1600000)
	fb, err := m.FBudget(platform.Big, -1, 1.25)
	if err != nil || fb != 0 {
		t.Fatalf("non-positive budget should give f=0, got %v, %v", fb, err)
	}
}

func TestQuantizeBudgetFreq(t *testing.T) {
	g := DefaultGroundTruth()
	m := defaultModel()
	d := platform.BigDomain()
	tc := 60.0
	// Converge alphaC at max freq, full load.
	opp := d.OPPs[len(d.OPPs)-1]
	truth := 4*g.Dynamic(platform.Big, opp.Volt, opp.Freq, 1, 1) + g.Leakage(platform.Big, tc, opp.Volt)
	m.At(platform.Big, tc).Observe(truth, opp.Volt, opp.Freq)

	// A generous budget admits the max frequency.
	f, ok := m.At(platform.Big, tc).QuantizeBudgetFreq(d, truth+1)
	if !ok || f != d.MaxFreq() {
		t.Fatalf("generous budget: f=%v ok=%v", f, ok)
	}
	// A tiny budget fails even at the min step.
	f, ok = m.At(platform.Big, tc).QuantizeBudgetFreq(d, 0.01)
	if ok || f != d.MinFreq() {
		t.Fatalf("tiny budget: f=%v ok=%v", f, ok)
	}
	// A mid budget returns an interior step whose predicted power fits.
	mid := m.At(platform.Big, tc).PredictTotal(d.OPPs[4].Volt, d.OPPs[4].Freq)
	f, ok = m.At(platform.Big, tc).QuantizeBudgetFreq(d, mid)
	if !ok || f != d.OPPs[4].Freq {
		t.Fatalf("mid budget: f=%v ok=%v, want %v", f, ok, d.OPPs[4].Freq)
	}
}

func TestSplitMeasured(t *testing.T) {
	m := defaultModel()
	leak := m.Leak[platform.Big].Power(60, 1.25)
	dyn, l := m.SplitMeasured(platform.Big, leak+1.5, 60, 1.25)
	if math.Abs(dyn-1.5) > 1e-12 || math.Abs(l-leak) > 1e-12 {
		t.Fatalf("split = %v, %v", dyn, l)
	}
	dyn, _ = m.SplitMeasured(platform.Big, leak*0.5, 60, 1.25)
	if dyn != 0 {
		t.Fatal("dynamic should clamp at 0")
	}
}

// Property: leakage power is monotonically increasing in both T and V.
func TestPropertyLeakageMonotone(t *testing.T) {
	g := DefaultGroundTruth()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		t1 := 30 + rng.Float64()*50
		t2 := t1 + 1 + rng.Float64()*10
		v1 := 0.85 + rng.Float64()*0.3
		v2 := v1 + 0.01 + rng.Float64()*0.1
		r := platform.Resource(rng.Intn(int(platform.NumResources)))
		return g.Leakage(r, t2, v1) > g.Leakage(r, t1, v1) &&
			g.Leakage(r, t1, v2) > g.Leakage(r, t1, v1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: total power decreases monotonically down the DVFS ladder.
func TestPropertyPowerMonotoneOnLadder(t *testing.T) {
	g := DefaultGroundTruth()
	d := platform.BigDomain()
	prev := math.Inf(1)
	for i := d.NumOPPs() - 1; i >= 0; i-- {
		opp := d.OPPs[i]
		p := 4*g.Dynamic(platform.Big, opp.Volt, opp.Freq, 1, 1) + g.Leakage(platform.Big, 60, opp.Volt)
		if p >= prev {
			t.Fatalf("power not decreasing down the ladder at %v MHz", opp.Freq.MHz())
		}
		prev = p
	}
}

// TestLeakageAtMatchesLaw referees the hoisted temperature term: a law
// evaluated once at a temperature (LeakageParams.At, and Model.At built on
// it) must give, bit for bit, what Eq. 4.2 evaluated in full gives at every
// voltage — the closed form below and LeakageParams.Power/Current — over
// random temperatures and voltages on every domain of every platform, and
// with no nominal voltage.
func TestLeakageAtMatchesLaw(t *testing.T) {
	closed := func(p LeakageParams, tC, v float64) (cur, pow float64) {
		tk := tC + 273.15
		scale := 1.0
		if p.VNom > 0 {
			scale = v / p.VNom
		}
		cur = (p.C1*tk*tk*math.Exp(p.C2/tk) + p.IGate) * scale
		return cur, v * cur
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	rng := rand.New(rand.NewSource(11))
	for _, name := range platform.Names() {
		desc, err := platform.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g := GroundTruthFor(desc)
		for r := range g.Res {
			params := []LeakageParams{g.Res[r].Leak}
			noNom := g.Res[r].Leak
			noNom.VNom = 0
			params = append(params, noNom)
			for _, p := range params {
				for i := 0; i < 200; i++ {
					tC := -20 + 130*rng.Float64()
					law := p.At(tC)
					for j := 0; j < 4; j++ {
						v := 0.6 + 0.8*rng.Float64()
						wantCur, wantPow := closed(p, tC, v)
						if got := law.Current(v); !same(got, wantCur) {
							t.Fatalf("%s/%v: current at %v °C, %v V: At %v, closed form %v", name, platform.Resource(r), tC, v, got, wantCur)
						}
						if got := law.Power(v); !same(got, wantPow) || !same(p.Power(tC, v), wantPow) {
							t.Fatalf("%s/%v: power at %v °C, %v V: At %v, Power %v, closed form %v", name, platform.Resource(r), tC, v, got, p.Power(tC, v), wantPow)
						}
					}
				}
			}
		}
	}
}

// TestModelAtMatchesLaw checks that the temperature-bound view of the
// run-time model answers exactly as the full leakage law evaluated per
// call does: the alphaC it observes, the total and leakage power it
// predicts, and the DVFS step it picks.
func TestModelAtMatchesLaw(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	d := platform.BigDomain()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		tC := 30 + 60*rng.Float64()
		opp := d.OPPs[rng.Intn(d.NumOPPs())]
		measured := 1 + 3*rng.Float64()
		m := defaultModel()
		law := m.Leak[platform.Big]
		ref := NewAlphaCEstimator(0.5)
		ref.Update(measured, law.Power(tC, opp.Volt), opp.Volt, opp.Freq)

		at := m.At(platform.Big, tC)
		at.Observe(measured, opp.Volt, opp.Freq)
		if got := m.AlphaC[platform.Big].Value(); !same(got, ref.Value()) {
			t.Fatalf("Observe at %v °C: alphaC %v, want %v", tC, got, ref.Value())
		}
		total := func(o platform.OPP) float64 {
			return ref.Value()*o.Volt*o.Volt*o.Freq.Hz() + law.Power(tC, o.Volt)
		}
		for _, o := range d.OPPs {
			want := total(o)
			if got := at.PredictTotal(o.Volt, o.Freq); !same(got, want) {
				t.Fatalf("PredictTotal at %v °C, %v kHz: %v, want %v", tC, o.Freq, got, want)
			}
			if a := at.LeakagePower(o.Volt); !same(a, law.Power(tC, o.Volt)) {
				t.Fatalf("LeakagePower at %v °C, %v V: %v, want %v", tC, o.Volt, a, law.Power(tC, o.Volt))
			}
		}
		// Budgets on and between the table's predicted totals, so the walk
		// is decided by exact comparisons.
		o := d.OPPs[rng.Intn(d.NumOPPs())]
		for _, budget := range []float64{total(o), math.Nextafter(total(o), 0), 4 * rng.Float64()} {
			want, wantOK := d.MinFreq(), false
			for j := d.NumOPPs() - 1; j >= 0; j-- {
				if total(d.OPPs[j]) <= budget {
					want, wantOK = d.OPPs[j].Freq, true
					break
				}
			}
			if f, ok := at.QuantizeBudgetFreq(d, budget); f != want || ok != wantOK {
				t.Fatalf("QuantizeBudgetFreq at %v °C, %v W: %v/%v, want %v/%v", tC, budget, f, ok, want, wantOK)
			}
		}
	}
}
