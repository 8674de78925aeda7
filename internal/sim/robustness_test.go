package sim

import (
	"context"

	"testing"

	"repro/internal/sensor"
	"repro/internal/workload"
)

// TestDTPMWithDegradedSensors: with 4x sensor noise the controller must
// still keep the temperature essentially at the constraint (small
// excursions are acceptable — this is what the guard band absorbs).
func TestDTPMWithDegradedSensors(t *testing.T) {
	ch := characterize(t)
	r := NewRunner()
	r.Sensors.TempNoiseStd *= 4
	r.Sensors.PowerNoiseStd *= 4
	b, err := workload.ByName("matrixmult")
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(context.Background(), Options{
		Policy: PolicyDTPM, Bench: b, Seed: 13,
		Model: ch.Thermal, PowerModel: ch.Power,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxTemp > 64.5 {
		t.Errorf("degraded sensors: max temp %.1f C, want <= 64.5", res.MaxTemp)
	}
	if res.OverTMax > 5 {
		t.Errorf("degraded sensors: %.1fs above constraint, want <= 5", res.OverTMax)
	}
	if !res.Completed {
		t.Error("run did not complete")
	}
}

// TestDTPMWithIdealSensors: noise-free sensors should give the cleanest
// regulation of all.
func TestDTPMWithIdealSensors(t *testing.T) {
	ch := characterize(t)
	r := NewRunner()
	r.Sensors = sensor.Config{}
	b, err := workload.ByName("matrixmult")
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(context.Background(), Options{
		Policy: PolicyDTPM, Bench: b, Seed: 13,
		Model: ch.Thermal, PowerModel: ch.Power,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxTemp > 63 {
		t.Errorf("ideal sensors: max temp %.1f C, want <= 63", res.MaxTemp)
	}
	if res.OverTMax != 0 {
		t.Errorf("ideal sensors: %.1fs above constraint, want 0", res.OverTMax)
	}
}

// TestSeedInsensitivity: the headline regulation result must hold across
// noise realizations, not only for the seed the experiments use.
func TestSeedInsensitivity(t *testing.T) {
	ch := characterize(t)
	b, err := workload.ByName("templerun")
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{2, 7, 23, 101} {
		res, err := NewRunner().Run(context.Background(), Options{
			Policy: PolicyDTPM, Bench: b, Seed: seed,
			Model: ch.Thermal, PowerModel: ch.Power,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.MaxTemp > 63.5 || res.OverTMax > 1 {
			t.Errorf("seed %d: maxT %.1f C, %.1fs over constraint", seed, res.MaxTemp, res.OverTMax)
		}
	}
}

// TestShortControlPeriod: halving the control period must not break
// regulation (the controller's horizon is expressed in intervals, so the
// effective look-ahead shrinks — the guard band must still hold the line).
func TestShortControlPeriod(t *testing.T) {
	ch50 := recharacterizeAt(t, 0.05)
	b, err := workload.ByName("matrixmult")
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewRunner().Run(context.Background(), Options{
		Policy: PolicyDTPM, Bench: b, Seed: 5, ControlPeriod: 0.05,
		Model: ch50.Thermal, PowerModel: ch50.Power,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxTemp > 64 {
		t.Errorf("50 ms control period: max temp %.1f C, want <= 64", res.MaxTemp)
	}
}

// recharacterizeAt reruns the identification with a different sampling
// period so the model's Ts matches the control period under test.
func recharacterizeAt(t *testing.T, ts float64) *Characterization {
	t.Helper()
	r := NewRunner()
	ch, err := r.CharacterizeWithTs(context.Background(), 1, ts)
	if err != nil {
		t.Fatalf("characterize at Ts=%v: %v", ts, err)
	}
	return ch
}
