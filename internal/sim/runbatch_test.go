package sim_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// TestRunBatchRefusals pins what RunBatch refuses to step in lock-step:
// each case returns nil results and an error wrapping
// ErrBatchIncompatible, where the unmutated batch runs.
func TestRunBatchRefusals(t *testing.T) {
	ctx := context.Background()
	runner := sim.NewRunner()
	compile := func(name string, seed int64) sim.Script {
		t.Helper()
		spec, err := scenario.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		c, err := scenario.Compile(spec.Perturbed(seed, 0, 0))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	// A short two-device batch of one scenario shape that RunBatch accepts.
	base := func() []sim.Options {
		return []sim.Options{
			{Policy: sim.PolicyNoFan, Script: compile("cold-start", 1), Seed: 1, MaxDuration: 1},
			{Policy: sim.PolicyNoFan, Script: compile("cold-start", 2), Seed: 2, MaxDuration: 1},
		}
	}
	if res, err := runner.RunBatch(ctx, base()); err != nil || len(res) != 2 {
		t.Fatalf("base batch: %d results, %v", len(res), err)
	}

	// A replay's shape signature is empty: it runs alone, never batched.
	rec := base()[:1]
	rec[0].Record = true
	recorded, err := runner.Run(ctx, rec[0])
	if err != nil {
		t.Fatal(err)
	}
	replay, err := scenario.FromTrace(recorded.Rec, "replay")
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		mut  func([]sim.Options) []sim.Options
	}{
		{"nil script", func(o []sim.Options) []sim.Options {
			o[0].Script = nil
			return o[:1]
		}},
		{"record", func(o []sim.Options) []sim.Options { o[1].Record = true; return o }},
		{"policy", func(o []sim.Options) []sim.Options { o[1].Policy = sim.PolicyFan; return o }},
		{"tmax", func(o []sim.Options) []sim.Options { o[1].TMax = 70; return o }},
		{"control period", func(o []sim.Options) []sim.Options { o[1].ControlPeriod = 0.05; return o }},
		{"governor", func(o []sim.Options) []sim.Options { o[1].Governor = "performance"; return o }},
		{"max duration", func(o []sim.Options) []sim.Options { o[1].MaxDuration = 2; return o }},
		{"shape", func(o []sim.Options) []sim.Options { o[1].Script = compile("bursty-interactive", 2); return o }},
		{"replay pair", func(o []sim.Options) []sim.Options {
			o[0].Script, o[1].Script = replay, replay
			return o
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := runner.RunBatch(ctx, tc.mut(base()))
			if !errors.Is(err, sim.ErrBatchIncompatible) {
				t.Fatalf("err = %v, want ErrBatchIncompatible", err)
			}
			if res != nil {
				t.Fatalf("refused batch returned %d results", len(res))
			}
		})
	}
}
