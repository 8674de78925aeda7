package repro

import (
	"bytes"
	"context"
	"math"
	"testing"
)

func TestScenariosList(t *testing.T) {
	names := Scenarios()
	if len(names) < 8 {
		t.Fatalf("Scenarios() returned %d names, want >= 8", len(names))
	}
	for _, name := range names {
		if _, err := ScenarioByName(name); err != nil {
			t.Errorf("ScenarioByName(%q): %v", name, err)
		}
	}
	if _, err := ScenarioByName("no-such"); err == nil {
		t.Error("ScenarioByName should reject unknown names")
	}
}

func TestRunScenarioAndReplay(t *testing.T) {
	dev := NewDevice()
	res, err := runSpec(dev, WithScenario("cold-start"), WithPolicy(WithFan), WithSeed(11), WithRecord(true))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Bench != "cold-start" {
		t.Fatalf("unexpected result: completed=%v bench=%q", res.Completed, res.Bench)
	}
	if res.Rec == nil || res.Rec.Series("demand_w0") == nil {
		t.Fatal("recorded scenario trace missing the replay input series")
	}

	// Replaying the recorded trace with the original parameters reproduces
	// the run sample for sample — through the full CSV file round trip an
	// external caller would use (WriteCSV to disk, ReadTrace later).
	var csv bytes.Buffer
	if err := res.Rec.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	parsed, err := ReadTrace(&csv)
	if err != nil {
		t.Fatal(err)
	}
	// The trace replaces the workload option it is given alongside.
	fresh, diff, err := dev.ReplayTrace(context.Background(), parsed, WithBenchmark("sha"), WithPolicy(WithFan), WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	if !diff.Clean() {
		t.Fatalf("replay diverged:\n%s", diff)
	}
	if fresh.MaxTemp != res.MaxTemp || fresh.Energy != res.Energy {
		t.Errorf("replay metrics differ: maxT %g vs %g, energy %g vs %g",
			fresh.MaxTemp, res.MaxTemp, fresh.Energy, res.Energy)
	}

	// A different seed must visibly diverge (the diff is not vacuous).
	_, diff2, err := dev.ReplayTrace(context.Background(), res.Rec, WithPolicy(WithFan), WithSeed(12))
	if err != nil {
		t.Fatal(err)
	}
	if diff2.Clean() {
		t.Error("replay with a different seed should not match the recording")
	}
}

func TestRunScenarioCustomSpec(t *testing.T) {
	dev := NewDevice()
	spec := ScenarioSpec{
		Name: "custom",
		Seed: 3,
		Phases: []ScenarioPhase{
			{Name: "burst", DurationS: 6, Benchmark: "sha"},
			{Name: "gap", DurationS: 4},
		},
	}
	res, err := runSpec(dev, WithScenarioSpec(&spec), WithPolicy(WithoutFan), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.ExecTime-10) > 0.2 {
		t.Errorf("scenario exec time = %g, want ~10", res.ExecTime)
	}
	// Invalid specs are rejected, not run.
	bad := spec
	bad.Phases = nil
	if _, err := runSpec(dev, WithScenarioSpec(&bad), WithPolicy(WithoutFan)); err == nil {
		t.Error("a scenario spec with no phases was accepted")
	}
}

func TestScenarioCampaignFacade(t *testing.T) {
	dev := NewDevice()
	grid := CampaignGrid{
		Policies:  []Policy{WithoutFan},
		Scenarios: []string{"cold-start"},
		Seeds:     []int64{1, 2},
	}
	rep, err := dev.RunCampaign(context.Background(), grid, nil, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 2 || len(rep.Failures()) != 0 {
		t.Fatalf("scenario campaign: %d cells, failures %v", len(rep.Cells), rep.Failures())
	}
	for _, c := range rep.Cells {
		if c.Cell.Scenario != "cold-start" || c.Cell.Benchmark != "" {
			t.Errorf("cell workload coordinates: %+v", c.Cell)
		}
		if math.Abs(c.Metrics.ExecTime-35) > 0.2 {
			t.Errorf("scenario cell exec = %g, want the 35 s script duration", c.Metrics.ExecTime)
		}
	}
}
