package fleet

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// FuzzFleetSpec holds the spec decoder to its contract on arbitrary input:
// ParseJSON either rejects with an error or yields a spec whose every cell
// derives a valid, bounded configuration — resolvable platform/scenario
// names, finite ambient shifts inside the declared jitter, non-negative
// seeds — with no panics anywhere on the path. Rejection must cover
// negative, NaN, infinite, and non-normalizable (all-zero) mix weights.
func FuzzFleetSpec(f *testing.F) {
	// Seed corpus: the shipped test populations plus targeted edge specs.
	for _, s := range []Spec{goldenSpec(), {N: 1}, {N: MaxCells}} {
		data, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"n": 10, "platforms": [{"name": "exynos5410", "weight": 0.001}]}`))
	f.Add([]byte(`{"n": 10, "platforms": [{"name": "exynos5410", "weight": -1}]}`))
	f.Add([]byte(`{"n": 10, "scenarios": [{"name": "cold-start", "weight": 0}]}`))
	f.Add([]byte(`{"n": 10, "scenarios": [{"name": "cold-start", "weight": 1e308}, {"name": "gaming-session", "weight": 1e308}]}`))
	f.Add([]byte(`{"n": 10, "ambient_jitter_c": 25, "freeze_workload": true}`))
	f.Add([]byte(`{"n": 10, "policy": "reactive", "tmax_c": 30, "control_period_s": 10}`))
	f.Add([]byte(`{"n": 0}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseJSON(data)
		if err != nil {
			return
		}
		// A validated spec must re-validate (ParseJSON already did) and
		// derive sane cells at the population edges and a mid draw.
		if err := spec.Validate(); err != nil {
			t.Fatalf("parsed spec fails re-validation: %v\nspec: %+v", err, spec)
		}
		norm := spec.normalized()
		if !(totalWeight(norm.Platforms) > 0) || !(totalWeight(norm.Scenarios) > 0) {
			t.Fatalf("validated spec has non-normalizable mix: %+v", norm)
		}
		for _, i := range []int{0, spec.N / 2, spec.N - 1} {
			cfg := DeriveCell(spec, 99, i)
			if cfg.Index != i {
				t.Fatalf("cell %d: index %d", i, cfg.Index)
			}
			if !inMix(norm.Platforms, cfg.Platform) {
				t.Fatalf("cell %d: platform %q not in mix %+v", i, cfg.Platform, norm.Platforms)
			}
			if !inMix(norm.Scenarios, cfg.Scenario) {
				t.Fatalf("cell %d: scenario %q not in mix %+v", i, cfg.Scenario, norm.Scenarios)
			}
			if math.IsNaN(cfg.AmbientShiftC) || math.Abs(cfg.AmbientShiftC) > spec.AmbientJitterC {
				t.Fatalf("cell %d: ambient shift %g outside jitter %g", i, cfg.AmbientShiftC, spec.AmbientJitterC)
			}
			if cfg.Seed < 0 || cfg.ScenarioSeed < 0 {
				t.Fatalf("cell %d: negative seed %d/%d", i, cfg.Seed, cfg.ScenarioSeed)
			}
			// Derivation is pure.
			if cfg != DeriveCell(spec, 99, i) {
				t.Fatalf("cell %d: derivation not pure", i)
			}
		}
	})
}

// FuzzCellEntry holds the strict fleet-cell decoder to its contract on
// arbitrary bytes: it never panics, and every payload it accepts
// re-encodes to identical bytes (the encoding of a state is unique). The
// seed corpus is real payloads of a mixed 3-platform fleet.
func FuzzCellEntry(f *testing.F) {
	for _, out := range codecOutcomes(f)[:8] {
		f.Add(appendCellEntry(nil, out.agg, out.metrics))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, p []byte) {
		a, m := newEntryAgg(), new(CellMetrics)
		if decodeCellEntry(p, a, m) != nil {
			return
		}
		if re := appendCellEntry(nil, a, m); !bytes.Equal(re, p) {
			t.Fatalf("accepted payload re-encodes differently:\n in: %x\nout: %x", p, re)
		}
	})
}

// inMix reports whether name carries positive weight in the axis.
func inMix(ws []Weight, name string) bool {
	for _, w := range ws {
		if w.Name == name && w.Weight > 0 {
			return true
		}
	}
	return false
}
