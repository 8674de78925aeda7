package dtpm

import (
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/sysid"
)

// testModel builds a simple stable thermal model: each core decays toward
// ambient with weak coupling, heated by the big-cluster power column.
func testModel() *sysid.ThermalModel {
	// Row sums ~0.994: realistic slow thermal decay at a 100 ms sample; the
	// big-cluster steady gain is B/(1-rowsum) = 15 °C/W.
	a := mat.New(sysid.NumStates, sysid.NumStates)
	for i := 0; i < sysid.NumStates; i++ {
		for j := 0; j < sysid.NumStates; j++ {
			if i == j {
				a.Set(i, j, 0.9815)
			} else {
				a.Set(i, j, 0.0042)
			}
		}
	}
	b := mat.New(sysid.NumStates, sysid.NumInputs)
	for i := 0; i < sysid.NumStates; i++ {
		b.Set(i, int(platform.Big), 0.09) // °C per W per step
		b.Set(i, int(platform.Little), 0.03)
		b.Set(i, int(platform.GPU), 0.03)
		b.Set(i, int(platform.Mem), 0.02)
	}
	return &sysid.ThermalModel{A: a, B: b, Ts: 0.1, Ambient: 30}
}

func testPowerModel() *power.Model {
	gt := power.DefaultGroundTruth()
	var leak [platform.NumResources]power.LeakageParams
	for i := range leak {
		leak[i] = gt.Res[i].Leak
	}
	pm := power.NewModel(leak)
	// Seed the alphaC estimators with a plausible observation at max freq.
	chip := platform.NewChip()
	pm.At(platform.Big, 55).Observe(3.5, chip.BigCluster.Volt(), chip.BigCluster.Freq())
	pm.At(platform.Little, 45).Observe(0.6, 1.15, platform.MHzToKHz(1200))
	return pm
}

func newTestController(t *testing.T, cfg Config) *Controller {
	t.Helper()
	c, err := NewController(cfg, testModel(), testPowerModel())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewControllerValidation(t *testing.T) {
	tm, pm := testModel(), testPowerModel()
	if _, err := NewController(DefaultConfig(), nil, pm); err == nil {
		t.Error("nil thermal model accepted")
	}
	if _, err := NewController(DefaultConfig(), tm, nil); err == nil {
		t.Error("nil power model accepted")
	}
	bad := DefaultConfig()
	bad.TMax = -1
	if _, err := NewController(bad, tm, pm); err == nil {
		t.Error("negative TMax accepted")
	}
	bad = DefaultConfig()
	bad.HorizonIntervals = 0
	if _, err := NewController(bad, tm, pm); err == nil {
		t.Error("zero horizon accepted")
	}
	bad = DefaultConfig()
	bad.MinBigCores = 0
	if _, err := NewController(bad, tm, pm); err == nil {
		t.Error("MinBigCores 0 accepted")
	}
	// MinBigCores above the chip's core count is clamped at Update time
	// (the controller meets its chip only then), so it is accepted here.
	// Unstable model must be rejected.
	unstable := testModel()
	for i := 0; i < sysid.NumStates; i++ {
		unstable.A.Set(i, i, 1.05)
	}
	if _, err := NewController(DefaultConfig(), unstable, pm); err == nil {
		t.Error("unstable model accepted")
	}
}

// unlimited returns limits that impose nothing on a chip with bigCores
// big-cluster cores.
func unlimited(bigCores int) Limits {
	return Limits{MaxBigCores: bigCores, OfflineCore: -1}
}

// coolInputs returns inputs far from the constraint.
func coolInputs(chip *platform.Chip) Inputs {
	return Inputs{
		Temps:        []float64{40, 40.5, 39.8, 40.2},
		Powers:       [sysid.NumInputs]float64{1.0, 0.05, 0.05, 0.2},
		GovernorFreq: chip.BigCluster.Domain.MaxFreq(),
	}
}

// hotInputs returns inputs that predict a violation at max frequency.
func hotInputs(chip *platform.Chip) Inputs {
	return Inputs{
		Temps:        []float64{62.5, 62.0, 61.8, 62.2},
		Powers:       [sysid.NumInputs]float64{3.5, 0.05, 0.1, 0.5},
		GovernorFreq: chip.BigCluster.Domain.MaxFreq(),
	}
}

func TestNonIntrusiveWhenCool(t *testing.T) {
	c := newTestController(t, DefaultConfig())
	chip := platform.NewChip()
	dec := c.Update(chip, coolInputs(chip))
	if dec.Violation {
		t.Error("violation flagged at 40 °C")
	}
	if dec.Limits.BigFreqCap != 0 || dec.Limits.ForceLittle || dec.Limits.GPUFreqCap != 0 {
		t.Errorf("limits imposed while cool: %+v", dec.Limits)
	}
}

func TestViolationComputesBudget(t *testing.T) {
	c := newTestController(t, DefaultConfig())
	chip := platform.NewChip()
	dec := c.Update(chip, hotInputs(chip))
	if !dec.Violation {
		t.Fatalf("no violation flagged at ~62 °C under full power (pred %.1f)", dec.PredictedMax)
	}
	if dec.TotalBudget <= 0 {
		t.Errorf("budget %.2f W, want > 0", dec.TotalBudget)
	}
	if dec.TotalBudget > 3.5 {
		t.Errorf("budget %.2f W not below current 3.5 W draw", dec.TotalBudget)
	}
	if dec.DynamicBudget >= dec.TotalBudget {
		t.Errorf("dynamic budget %.2f not below total %.2f (leakage must be subtracted)",
			dec.DynamicBudget, dec.TotalBudget)
	}
	if dec.Limits.BigFreqCap == 0 {
		t.Error("no frequency cap imposed on violation")
	}
	if dec.Limits.BigFreqCap >= chip.BigCluster.Domain.MaxFreq() {
		t.Errorf("cap %v not below max", dec.Limits.BigFreqCap)
	}
}

func TestBudgetMonotonicInTemperature(t *testing.T) {
	chip := platform.NewChip()
	budgetAt := func(temp float64) float64 {
		c := newTestController(t, DefaultConfig())
		in := hotInputs(chip)
		for i := range in.Temps {
			in.Temps[i] = temp
		}
		dec := c.Update(chip, in)
		if !dec.Violation {
			t.Fatalf("no violation at %.1f °C", temp)
		}
		return dec.TotalBudget
	}
	b62, b64 := budgetAt(62), budgetAt(64)
	if b64 >= b62 {
		t.Errorf("budget at 64 °C (%.2f) not below budget at 62 °C (%.2f)", b64, b62)
	}
}

func TestLadderEscalatesToCoreShedding(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EscalateIntervals = 2
	c := newTestController(t, cfg)
	chip := platform.NewChip()
	in := hotInputs(chip)
	// Make the situation hopeless: temperature far above the constraint.
	for i := range in.Temps {
		in.Temps[i] = 70
	}
	sawShed := false
	for k := 0; k < 30; k++ {
		dec := c.Update(chip, in)
		if dec.Limits.OfflineCore >= 0 || dec.Limits.MaxBigCores < platform.CoresPerCluster {
			sawShed = true
			// Apply the hotplug like the kernel glue would.
			for i := platform.CoresPerCluster - 1; i >= 0 && chip.BigCluster.OnlineCount() > dec.Limits.MaxBigCores; i-- {
				if chip.BigCluster.CoreOnline(i) {
					_ = chip.BigCluster.SetCoreOnline(i, false)
				}
			}
		}
		if dec.Limits.ForceLittle {
			// Full ladder reached.
			if chip.BigCluster.OnlineCount() > cfg.MinBigCores {
				t.Errorf("migrated to little with %d big cores online (min %d)",
					chip.BigCluster.OnlineCount(), cfg.MinBigCores)
			}
			if !sawShed {
				t.Error("jumped to little without shedding a core first")
			}
			return
		}
	}
	t.Error("ladder never escalated to the little cluster at 70 °C")
}

func TestGPUThrottledOnlyWhenActive(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EscalateIntervals = 1
	chip := platform.NewChip()
	if err := chip.SetGPUFreq(chip.GPUDomain.MaxFreq()); err != nil {
		t.Fatal(err)
	}
	hopeless := hotInputs(chip)
	for i := range hopeless.Temps {
		hopeless.Temps[i] = 72
	}

	// GPU inactive: never throttled.
	c := newTestController(t, cfg)
	for k := 0; k < 40; k++ {
		if dec := c.Update(chip, hopeless); dec.Limits.GPUFreqCap != 0 {
			t.Fatal("GPU throttled while inactive")
		}
	}

	// GPU active: throttled once the ladder reaches the last resort.
	c = newTestController(t, cfg)
	hopeless.GPUActive = true
	saw := false
	for k := 0; k < 40; k++ {
		if dec := c.Update(chip, hopeless); dec.Limits.GPUFreqCap != 0 {
			saw = true
			break
		}
	}
	if !saw {
		t.Error("GPU never throttled while active under a hopeless budget")
	}
}

func TestRelaxLiftsLimitsGradually(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ReleaseIntervals = 2
	c := newTestController(t, cfg)
	chip := platform.NewChip()

	// Impose a cap via a violation.
	dec := c.Update(chip, hotInputs(chip))
	if dec.Limits.BigFreqCap == 0 {
		t.Fatal("no cap imposed")
	}
	firstCap := dec.Limits.BigFreqCap

	// Feed cool inputs; the cap must step up, one DVFS level at a time,
	// and eventually disappear.
	in := coolInputs(chip)
	var lastCap platform.KHz = firstCap
	for k := 0; k < 200; k++ {
		dec = c.Update(chip, in)
		cap := dec.Limits.BigFreqCap
		if cap == 0 {
			return // fully released
		}
		if cap < lastCap {
			t.Fatalf("cap moved down (%v -> %v) under cool inputs", lastCap, cap)
		}
		if cap > lastCap {
			up := chip.BigCluster.Domain.StepUp(lastCap)
			if cap > up {
				t.Fatalf("cap jumped more than one step: %v -> %v", lastCap, cap)
			}
		}
		lastCap = cap
	}
	t.Error("cap never fully released after 200 cool intervals")
}

func TestAsymMargin(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AsymGain = 0.5
	c := newTestController(t, cfg)
	if m := c.asymMargin([]float64{50, 50, 50, 50}); m != 0 {
		t.Errorf("uniform temps give margin %.2f, want 0", m)
	}
	m := c.asymMargin([]float64{58, 50, 50, 50})
	want := 0.5 * (58 - 52.0)
	if math.Abs(m-want) > 1e-9 {
		t.Errorf("margin %.2f, want %.2f", m, want)
	}
	c.Cfg.AsymGain = 0
	if m := c.asymMargin([]float64{58, 50, 50, 50}); m != 0 {
		t.Errorf("margin %.2f with AsymGain 0, want 0", m)
	}
}

func TestBudgetClamped(t *testing.T) {
	// Degenerate model: B entry for the active cluster near zero makes the
	// quotient blow up; the budget must be clamped, not infinite.
	tm := testModel()
	for i := 0; i < sysid.NumStates; i++ {
		tm.B.Set(i, int(platform.Big), 1e-12)
	}
	c, err := NewController(DefaultConfig(), tm, testPowerModel())
	if err != nil {
		t.Fatal(err)
	}
	chip := platform.NewChip()
	in := hotInputs(chip)
	dec := c.Update(chip, in)
	if dec.TotalBudget < 0 || dec.TotalBudget > maxPlausibleBudget {
		t.Errorf("budget %.2f outside [0, %d]", dec.TotalBudget, maxPlausibleBudget)
	}
}

func TestReactiveHeuristicLevels(t *testing.T) {
	r := NewReactiveHeuristic()
	d := platform.BigDomain()
	if cap := r.Cap(50, d); cap != 0 {
		t.Errorf("cap %v at 50 °C, want none", cap)
	}
	cap1 := r.Cap(64, d)
	if cap1 == 0 || r.level != 1 {
		t.Errorf("level %d cap %v at 64 °C", r.level, cap1)
	}
	wantMid := d.FloorFreq(platform.KHz(float64(d.MaxFreq()) * 0.82))
	if cap1 != wantMid {
		t.Errorf("mid cap %v, want %v (18%% cut)", cap1, wantMid)
	}
	cap2 := r.Cap(69, d)
	if r.level != 2 || cap2 >= cap1 {
		t.Errorf("level %d cap %v at 69 °C", r.level, cap2)
	}
	wantHigh := d.FloorFreq(platform.KHz(float64(d.MaxFreq()) * 0.75))
	if cap2 != wantHigh {
		t.Errorf("high cap %v, want %v (25%% cut)", cap2, wantHigh)
	}
	// Hysteresis: at 64 °C coming down from level 2, stays at 2 until 65.
	if r.Cap(66, d); r.level != 2 {
		t.Errorf("level dropped to %d at 66 °C (hysteresis is 3)", r.level)
	}
	if r.Cap(64, d); r.level != 1 {
		t.Errorf("level %d at 64 °C after cooling below 65", r.level)
	}
	// Full release below 60.
	if cap := r.Cap(59, d); cap != 0 || r.level != 0 {
		t.Errorf("cap %v level %d at 59 °C, want released", cap, r.level)
	}
}

func TestDecisionFBudget(t *testing.T) {
	c := newTestController(t, DefaultConfig())
	chip := platform.NewChip()
	dec := c.Update(chip, hotInputs(chip))
	if !dec.Violation {
		t.Fatal("expected violation")
	}
	if dec.FBudget <= 0 {
		t.Errorf("FBudget %v, want > 0 (Eq. 5.7 continuous frequency)", dec.FBudget)
	}
}

func TestLimitsAccessor(t *testing.T) {
	c := newTestController(t, DefaultConfig())
	chip := platform.NewChip()
	dec := c.Update(chip, coolInputs(chip))
	if dec.Limits != unlimited(chip.BigCluster.NumCores()) || c.limits != dec.Limits {
		t.Errorf("controller limits after a cool interval %+v (decision %+v), want none", c.limits, dec.Limits)
	}
}
