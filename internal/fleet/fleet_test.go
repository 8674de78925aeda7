package fleet

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/platform"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
)

// testSpec is the small mixed-population spec the package tests share:
// two platforms, two short scenarios, ambient jitter on, DTPM policy, and
// a coarse control period to keep run counts cheap.
func testSpec(n int) Spec {
	return Spec{
		Name:           "test-fleet",
		N:              n,
		Policy:         "dtpm",
		ControlPeriodS: 0.5,
		Platforms: []Weight{
			{Name: platform.DefaultName, Weight: 3},
			{Name: "fanless-phone", Weight: 1},
		},
		Scenarios: []Weight{
			{Name: "cold-start", Weight: 2},
			{Name: "bursty-interactive", Weight: 1},
		},
		AmbientJitterC: 8,
	}
}

func runFleet(t *testing.T, spec Spec, workers int) *Report {
	t.Helper()
	eng := &Engine{Workers: workers, BaseSeed: 42}
	rep, err := eng.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures) > 0 {
		t.Fatalf("fleet cells failed: %+v", rep.Failures)
	}
	return rep
}

// TestFleetDeterministicAcrossWorkers is the core contract: the same spec
// and base seed produce byte-identical JSON and CSV reports at 1, 4, and 8
// workers.
func TestFleetDeterministicAcrossWorkers(t *testing.T) {
	spec := testSpec(12)
	var wantJSON, wantCSV []byte
	for _, workers := range []int{1, 4, 8} {
		rep := runFleet(t, spec, workers)
		var j, c bytes.Buffer
		if err := rep.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		if err := rep.WriteCSV(&c); err != nil {
			t.Fatal(err)
		}
		if wantJSON == nil {
			wantJSON, wantCSV = j.Bytes(), c.Bytes()
			continue
		}
		if !bytes.Equal(j.Bytes(), wantJSON) {
			t.Errorf("JSON report differs at %d workers:\n%s\nvs\n%s", workers, j.Bytes(), wantJSON)
		}
		if !bytes.Equal(c.Bytes(), wantCSV) {
			t.Errorf("CSV report differs at %d workers:\n%s\nvs\n%s", workers, c.Bytes(), wantCSV)
		}
	}
}

// TestDeriveCellStableAcrossPopulationSize: device k is the same device in
// any population that contains it — the draw depends on (spec mix, base,
// index), never on N.
func TestDeriveCellStableAcrossPopulationSize(t *testing.T) {
	small, large := testSpec(8), testSpec(4096)
	for i := 0; i < 8; i++ {
		a, b := DeriveCell(small, 42, i), DeriveCell(large, 42, i)
		if a != b {
			t.Errorf("cell %d differs across population sizes: %+v vs %+v", i, a, b)
		}
	}
	// And the draw respects the declared mix: with 1 in 4 weight on the
	// fanless phone, a large population should land near the share.
	phones := 0
	for i := 0; i < 4096; i++ {
		if DeriveCell(large, 42, i).Platform == "fanless-phone" {
			phones++
		}
	}
	if frac := float64(phones) / 4096; frac < 0.20 || frac > 0.30 {
		t.Errorf("fanless-phone share %.3f far from declared 0.25", frac)
	}
}

// TestReplayCellReproducesTrace: replaying one device records a trace, the
// replay is bit-stable, and its per-interval series reproduce the very
// aggregate the full fleet reported for that index (recorder and observer
// are fed the same samples).
func TestReplayCellReproducesTrace(t *testing.T) {
	spec := testSpec(6)
	eng := &Engine{Workers: 2, BaseSeed: 42}
	const k = 3
	res1, cfg, err := eng.ReplayCell(context.Background(), spec, k)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Rec == nil {
		t.Fatal("replay did not record a trace")
	}
	res2, _, err := eng.ReplayCell(context.Background(), spec, k)
	if err != nil {
		t.Fatal(err)
	}
	var csv1, csv2 bytes.Buffer
	if err := res1.Rec.WriteCSV(&csv1); err != nil {
		t.Fatal(err)
	}
	if err := res2.Rec.WriteCSV(&csv2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csv1.Bytes(), csv2.Bytes()) {
		t.Error("replaying the same cell twice produced different traces")
	}
	// Rebuild the fleet's aggregate from the recorded series and compare
	// with what the full fleet reported for the same index.
	var m *CellMetrics
	eng.OnCellDone = func(p Progress) {
		if p.Cell.Index == k {
			m = p.Metrics
		}
	}
	if _, err := eng.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if m == nil {
		t.Fatalf("cell %d never reported from the fleet run", k)
	}
	desc, err := platform.ByName(cfg.Platform)
	if err != nil {
		t.Fatal(err)
	}
	agg := new(cellAgg)
	agg.reset()
	agg.tmax, agg.maxGHz = 63, desc.Big.Domain.MaxFreq().GHz()
	maxt := seriesOf(t, res1.Rec, "maxtemp")
	board := seriesOf(t, res1.Rec, "board")
	freq := seriesOf(t, res1.Rec, "freq_ghz")
	if len(maxt) != len(board) || len(maxt) != len(freq) {
		t.Fatalf("series lengths differ: %d/%d/%d", len(maxt), len(board), len(freq))
	}
	for i := range maxt {
		agg.observe(sim.Sample{MaxTemp: maxt[i], BoardTemp: board[i], FreqGHz: freq[i]})
	}
	var cell cellSums
	agg.compact(&cell, res1)
	if got := cell.metrics; got != *m {
		t.Errorf("aggregate rebuilt from the recorded trace differs:\ntrace: %+v\nfleet: %+v", got, *m)
	}
}

func seriesOf(t *testing.T, rec *trace.Recorder, name string) []float64 {
	t.Helper()
	s := rec.Series(name)
	if s == nil {
		t.Fatalf("series %q not in trace (have %v)", name, rec.Names())
	}
	return s.Vals
}

// TestFleetPartialReportOnCancel: cancelling mid-fleet yields a partial
// report (completed cells aggregated, the rest collected) and an error
// matching sim.ErrCancelled.
func TestFleetPartialReportOnCancel(t *testing.T) {
	spec := testSpec(8)
	ctx, cancel := context.WithCancel(context.Background())
	eng := &Engine{Workers: 2, BaseSeed: 42}
	n := 0
	eng.OnCellDone = func(p Progress) {
		n++
		if n == 2 {
			cancel()
		}
	}
	rep, err := eng.Run(ctx, spec)
	if err == nil {
		t.Fatal("cancelled fleet returned no error")
	}
	if !strings.Contains(err.Error(), sim.ErrCancelled.Error()) {
		t.Fatalf("error %v does not wrap the cancellation sentinel", err)
	}
	if rep == nil {
		t.Fatal("cancelled fleet returned no partial report")
	}
	if rep.Completed == 0 || rep.Completed == spec.N {
		t.Errorf("partial report completed %d of %d", rep.Completed, spec.N)
	}
	if len(rep.Failures) != spec.N-rep.Completed {
		t.Errorf("failures %d, want %d", len(rep.Failures), spec.N-rep.Completed)
	}
}

// TestSpecValidation pins the rejection surface the fuzz target explores.
func TestSpecValidation(t *testing.T) {
	ok := testSpec(4)
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []Spec{
		{N: 0},
		{N: MaxCells + 1},
		{N: 4, Policy: "warp-speed"},
		{N: 4, TMaxC: 10},
		{N: 4, TMaxC: math.NaN()},
		{N: 4, ControlPeriodS: -1},
		{N: 4, AmbientJitterC: -3},
		{N: 4, AmbientJitterC: math.Inf(1)},
		{N: 4, Platforms: []Weight{{Name: "no-such-soc", Weight: 1}}},
		{N: 4, Platforms: []Weight{{Name: platform.DefaultName, Weight: -1}}},
		{N: 4, Platforms: []Weight{{Name: platform.DefaultName, Weight: 0}}},
		{N: 4, Platforms: []Weight{{Name: platform.DefaultName, Weight: math.NaN()}}},
		{N: 4, Scenarios: []Weight{{Name: "no-such-scenario", Weight: 1}}},
		{N: 4, Scenarios: []Weight{{Name: "cold-start", Weight: 0}, {Name: "gaming-session", Weight: 0}}},
		{N: 4, Platforms: []Weight{{Weight: 1}}},
		// Individually finite weights whose total overflows to +Inf: the
		// draw would silently collapse onto the last entry.
		{N: 4, Scenarios: []Weight{{Name: "cold-start", Weight: 1e308}, {Name: "gaming-session", Weight: 1e308}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, s)
		}
	}
}

// TestSpecJSONRoundTrip: ParseJSON accepts what the spec marshals to and
// rejects unknown fields and trailing garbage.
func TestSpecJSONRoundTrip(t *testing.T) {
	data := []byte(`{"n": 8, "policy": "reactive", "platforms": [{"name": "fanless-phone", "weight": 1}], "scenarios": [{"name": "cold-start", "weight": 2}], "ambient_jitter_c": 5}`)
	s, err := ParseJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 8 || s.Policy != "reactive" || len(s.Platforms) != 1 {
		t.Fatalf("parsed spec %+v", s)
	}
	for _, bad := range []string{
		`{"n": 8, "bogus_field": 1}`,
		`{"n": 8} trailing`,
		`{"n": 8, "platforms": [{"name": "fanless-phone", "weight": -2}]}`,
		`not json`,
	} {
		if _, err := ParseJSON([]byte(bad)); err == nil {
			t.Errorf("ParseJSON(%s) accepted", bad)
		}
	}
}

// TestDefaultedSpec: the minimal spec (just N) materializes the documented
// defaults and runs.
func TestDefaultedSpec(t *testing.T) {
	s := Spec{N: 3}.normalized()
	if s.Policy != "dtpm" || s.TMaxC != 63 || s.ControlPeriodS != 0.1 {
		t.Errorf("defaults: %+v", s)
	}
	if len(s.Platforms) != 1 || s.Platforms[0].Name != platform.DefaultName {
		t.Errorf("platform default: %+v", s.Platforms)
	}
	if len(s.Scenarios) != len(scenario.Names()) {
		t.Errorf("scenario default covers %d of %d", len(s.Scenarios), len(scenario.Names()))
	}
	if err := (Spec{N: 3}).Validate(); err != nil {
		t.Fatalf("minimal spec invalid: %v", err)
	}
}

// TestProgressEvents: OnCellDone fires once per cell with consistent
// counters.
func TestProgressEvents(t *testing.T) {
	spec := testSpec(5)
	eng := &Engine{Workers: 3, BaseSeed: 42}
	seen := map[int]bool{}
	last := 0
	eng.OnCellDone = func(p Progress) {
		if p.Total != spec.N {
			t.Errorf("progress total %d", p.Total)
		}
		if p.Done != last+1 {
			t.Errorf("progress done %d after %d", p.Done, last)
		}
		last = p.Done
		if seen[p.Cell.Index] {
			t.Errorf("cell %d reported twice", p.Cell.Index)
		}
		seen[p.Cell.Index] = true
		if p.Err == "" && p.Metrics == nil {
			t.Errorf("cell %d: neither metrics nor error", p.Cell.Index)
		}
	}
	if _, err := eng.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if len(seen) != spec.N {
		t.Errorf("saw %d progress events, want %d", len(seen), spec.N)
	}
}

// TestReportGroupsCoverMix: every (platform, scenario) pair that received
// cells appears as a group, and the overall row accounts for every cell.
func TestReportGroupsCoverMix(t *testing.T) {
	spec := testSpec(24)
	rep := runFleet(t, spec, 4)
	total := 0
	for _, g := range rep.Groups {
		if g.Cells == 0 {
			t.Errorf("empty group %s/%s", g.Platform, g.Scenario)
		}
		if g.SkinP50C > g.SkinP95C || g.SkinP95C > g.SkinP99C {
			t.Errorf("group %s/%s: unordered skin percentiles %+v", g.Platform, g.Scenario, g)
		}
		if g.SkinP99C > g.SkinMaxC+0.25 {
			t.Errorf("group %s/%s: p99 %.2f above max %.2f", g.Platform, g.Scenario, g.SkinP99C, g.SkinMaxC)
		}
		total += g.Cells
	}
	if total != rep.Overall.Cells || total != rep.Completed {
		t.Errorf("groups cover %d cells, overall %d, completed %d", total, rep.Overall.Cells, rep.Completed)
	}
	fmt.Println(rep.Summary())
}
