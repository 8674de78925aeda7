package repro

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestModelsDescribe(t *testing.T) {
	m := models(t)
	s := m.Describe()
	for _, frag := range []string{"thermal model", "A =", "B =", "leakage", "stable true"} {
		if !strings.Contains(s, frag) {
			t.Errorf("Describe() missing %q:\n%s", frag, s)
		}
	}
}

func TestModelsLeakageAt(t *testing.T) {
	m := models(t)
	l40 := m.LeakageAt(40, 1.25)
	l80 := m.LeakageAt(80, 1.25)
	if l40 <= 0 || l80 <= l40 {
		t.Errorf("leakage not growing with temperature: %.3f W at 40 C, %.3f W at 80 C", l40, l80)
	}
	// Exponential: the 40->80 step more than doubles the leakage.
	if l80 < 2*l40 {
		t.Errorf("leakage growth %.2fx over 40 C, expected exponential (>2x)", l80/l40)
	}
}

func TestModelsPredictTemperature(t *testing.T) {
	m := models(t)
	temps := [4]float64{50, 50, 50, 50}
	hot := m.PredictTemperature(temps, [4]float64{4.0, 0.1, 0.1, 0.5}, 10)
	cold := m.PredictTemperature(temps, [4]float64{0.2, 0.05, 0.05, 0.1}, 10)
	for i := range hot {
		if hot[i] <= cold[i] {
			t.Errorf("core %d: prediction under 4 W (%.1f) not above prediction under 0.2 W (%.1f)",
				i, hot[i], cold[i])
		}
	}
	// Zero steps: prediction equals the input.
	same := m.PredictTemperature(temps, [4]float64{4, 0, 0, 0}, 0)
	for i := range same {
		if same[i] != temps[i] {
			t.Errorf("0-step prediction changed temps: %v", same)
		}
	}
}

func TestRunCampaignFacade(t *testing.T) {
	dev := NewDevice()
	grid := CampaignGrid{
		Policies:   []Policy{WithoutFan, Reactive},
		Benchmarks: []string{"dijkstra"},
		Seeds:      []int64{1, 2},
	}
	rep, err := dev.RunCampaign(context.Background(), grid, nil, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 4 {
		t.Fatalf("got %d cells, want 4", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if c.Err != "" || c.Metrics == nil {
			t.Errorf("cell %v failed: %s", c.Cell, c.Err)
		}
	}
	// Nil models: the campaign characterizes the device itself at the base
	// seed, so DTPM cells run and export exactly what models
	// characterized at that seed give them.
	grid.Policies = []Policy{DTPM}
	export := func(m *Models) []byte {
		t.Helper()
		rep, err := dev.RunCampaign(context.Background(), grid, m, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Failures()) != 0 {
			t.Fatalf("DTPM cells failed: %+v", rep.Failures())
		}
		var b bytes.Buffer
		if err := rep.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	if !bytes.Equal(export(nil), export(models(t))) {
		t.Error("nil-models campaign differs from one given Characterize(baseSeed)")
	}
}

func TestRunWithCustomTMax(t *testing.T) {
	dev := NewDevice()
	res, err := runSpec(dev, WithBenchmark("matrixmult"), WithPolicy(DTPM), WithModels(models(t)), WithTMax(58), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxTemp > 59 {
		t.Errorf("DTPM with TMax 58 peaked at %.1f C", res.MaxTemp)
	}
	if !res.Completed {
		t.Error("run did not complete")
	}
}

func TestRunWithGovernorOverride(t *testing.T) {
	dev := NewDevice()
	perf, err := runSpec(dev, WithBenchmark("dijkstra"), WithPolicy(WithoutFan), WithGovernor("performance"), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	save, err := runSpec(dev, WithBenchmark("dijkstra"), WithPolicy(WithoutFan), WithGovernor("powersave"), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if perf.AvgPower <= save.AvgPower {
		t.Errorf("performance governor power %.2f W not above powersave %.2f W",
			perf.AvgPower, save.AvgPower)
	}
	if save.ExecTime <= perf.ExecTime {
		t.Errorf("powersave exec %.1fs not above performance %.1fs",
			save.ExecTime, perf.ExecTime)
	}
}

func TestRecordedTrace(t *testing.T) {
	dev := NewDevice()
	res, err := runSpec(dev, WithBenchmark("crc32"), WithPolicy(WithFan), WithRecord(true), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rec == nil {
		t.Fatal("Record: true did not retain traces")
	}
	if s := res.Rec.Series("maxtemp"); s == nil || s.Len() == 0 {
		t.Error("maxtemp series missing")
	}
}
