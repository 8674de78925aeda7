package campaign

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/sim"
)

// testReport builds a hand-assembled two-cell report (one success, one
// failure) so the export paths are tested without running simulations.
func testReport() *Report {
	return &Report{
		BaseSeed: 42,
		Cells: []CellResult{
			{
				Cell: Cell{Index: 0, Policy: sim.PolicyFan, Benchmark: "dijkstra", Governor: "ondemand", Seed: 1, TMax: 63},
				Metrics: &Metrics{
					Completed: true, ExecTime: 64.5, AvgPower: 3.25, Energy: 209.625,
					MaxTemp: 61.5, AvgTemp: 55.25, TempVar: 2.5, Spread: 8.75, OverTMax: 0,
					SSAvgTemp: 58.5, SSTempVar: 1.25, SSSpread: 4.5,
					PredMeanPct: 1.5, PredMaxPct: 6.25, PredMaxAbsC: 3.125,
				},
			},
			{
				Cell: Cell{Index: 1, Policy: sim.PolicyDTPM, Scenario: "cold-start", Governor: "ondemand", Seed: 2, TMax: 63},
				Err:  "campaign: boom",
			},
		},
	}
}

func TestWriteCSVShape(t *testing.T) {
	var buf bytes.Buffer
	if err := testReport().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(buf.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want header + 2 cells", len(rows))
	}
	for i, row := range rows {
		if len(row) != len(csvHeader) {
			t.Errorf("row %d has %d columns, want %d: %v", i, len(row), len(csvHeader), row)
		}
	}
	head := rows[0]
	if head[0] != "index" || head[2] != "benchmark" || head[3] != "scenario" || head[4] != "platform" {
		t.Errorf("header = %v", head)
	}
	// Success row: exact shortest-float formatting, empty error column.
	ok := rows[1]
	if ok[2] != "dijkstra" || ok[3] != "" || ok[8] != "" || ok[9] != "true" {
		t.Errorf("success row = %v", ok)
	}
	if ok[10] != "64.5" || ok[12] != "209.625" {
		t.Errorf("float formatting not shortest-exact: exec=%q energy=%q", ok[10], ok[12])
	}
	// Failure row: scenario coordinate, error message, metrics blank.
	fail := rows[2]
	if fail[2] != "" || fail[3] != "cold-start" || fail[8] != "campaign: boom" {
		t.Errorf("failure row = %v", fail)
	}
	for col := 9; col < len(fail); col++ {
		if fail[col] != "" {
			t.Errorf("failed cell has metric in column %d: %q", col, fail[col])
			break
		}
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	rep := testReport()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got Report
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.BaseSeed != 42 || len(got.Cells) != 2 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if got.Cells[0].Metrics == nil || *got.Cells[0].Metrics != *rep.Cells[0].Metrics {
		t.Errorf("metrics did not round-trip: %+v", got.Cells[0].Metrics)
	}
	if got.Cells[1].Cell.Scenario != "cold-start" || got.Cells[1].Err != "campaign: boom" {
		t.Errorf("failure cell did not round-trip: %+v", got.Cells[1])
	}
	// Policies are encoded as stable names, not enum integers.
	if !strings.Contains(buf.String(), `"policy": "with-fan"`) {
		t.Errorf("policy not name-encoded:\n%s", buf.String())
	}
	// The scenario field is omitted for plain benchmark cells.
	var raw struct {
		Cells []map[string]json.RawMessage `json:"cells"`
	}
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	if _, has := raw.Cells[0]["cell"]; !has {
		t.Fatal("missing cell object")
	}
	var cell0 map[string]json.RawMessage
	if err := json.Unmarshal(raw.Cells[0]["cell"], &cell0); err != nil {
		t.Fatal(err)
	}
	if _, has := cell0["scenario"]; has {
		t.Error("benchmark cell serialized an empty scenario field")
	}
}

func TestSummaryRendersWorkloadsAndFailures(t *testing.T) {
	s := testReport().Summary()
	for _, frag := range []string{"dijkstra", "scenario:cold-start", "FAILED: campaign: boom", "1/2 cells failed"} {
		if !strings.Contains(s, frag) {
			t.Errorf("summary missing %q:\n%s", frag, s)
		}
	}
}

// TestScenarioAxisGrid covers the workload-axis normalization rules.
func TestScenarioAxisGrid(t *testing.T) {
	// Scenario-only grid: benchmark axis collapses to the empty marker.
	g := Grid{Scenarios: []string{"cold-start", "bursty-interactive"}, Seeds: []int64{1}}
	if g.Size() != 2 {
		t.Fatalf("Size = %d, want 2", g.Size())
	}
	for _, c := range g.Cells() {
		if c.Benchmark != "" || c.Scenario == "" {
			t.Errorf("scenario cell has benchmark coordinate: %+v", c)
		}
	}
	// Benchmark-only grid keeps its legacy shape and derived seeds.
	b := Grid{Benchmarks: []string{"dijkstra"}}
	cells := b.Cells()
	if len(cells) != 1 || cells[0].Scenario != "" {
		t.Fatalf("benchmark grid cells = %+v", cells)
	}
	legacy := DeriveSeed(7, Cell{Policy: sim.PolicyDTPM, Benchmark: "dijkstra", Seed: 1})
	if got := DeriveSeed(7, cells[0]); got != legacy {
		t.Errorf("plain-benchmark derived seed changed: %d vs %d", got, legacy)
	}
	// Scenario coordinate enters the derivation.
	a := DeriveSeed(7, Cell{Policy: sim.PolicyDTPM, Scenario: "cold-start"})
	bse := DeriveSeed(7, Cell{Policy: sim.PolicyDTPM, Scenario: "gaming-session"})
	if a == bse {
		t.Error("different scenarios derived the same seed")
	}
	// A cell with both coordinates is a collected error, not a run.
	eng := &Engine{Workers: 1, BaseSeed: 1}
	rep, err := eng.RunContext(context.Background(), Grid{
		Policies:   []sim.Policy{sim.PolicyNoFan},
		Benchmarks: []string{"dijkstra"},
		Scenarios:  []string{"cold-start"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures()) != 1 || !strings.Contains(rep.Cells[0].Err, "both benchmark") {
		t.Errorf("both-axes cell not collected as error: %+v", rep.Cells[0])
	}
	// Unknown scenario names are collected too.
	rep, err = eng.RunContext(context.Background(), Grid{Policies: []sim.Policy{sim.PolicyNoFan}, Scenarios: []string{"no-such"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures()) != 1 {
		t.Errorf("unknown scenario not collected: %+v", rep.Cells)
	}
}

// TestScenarioSweepDeterminismAcrossWorkers extends the engine's core
// contract to the new axis: a scenario sweep exports byte-identical JSON
// and CSV at 1, 4, and 8 workers.
func TestScenarioSweepDeterminismAcrossWorkers(t *testing.T) {
	grid := Grid{
		Policies:  []sim.Policy{sim.PolicyNoFan, sim.PolicyReactive},
		Scenarios: []string{"cold-start", "bursty-interactive"},
		Seeds:     []int64{1, 2},
	}
	if grid.Size() != 8 {
		t.Fatalf("grid size %d, want 8", grid.Size())
	}
	refJSON, refCSV := exportBytes(t, 1, grid, nil)
	if !strings.Contains(refCSV, "cold-start") {
		t.Fatalf("csv missing scenario rows:\n%s", refCSV)
	}
	for _, workers := range []int{4, 8} {
		j, c := exportBytes(t, workers, grid, nil)
		if j != refJSON {
			t.Errorf("JSON export differs between 1 and %d workers", workers)
		}
		if c != refCSV {
			t.Errorf("CSV export differs between 1 and %d workers", workers)
		}
	}
}
