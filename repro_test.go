package repro

import (
	"context"
	"errors"
	"strings"
	"testing"
)

var sharedModels *Models

// runSpec runs one spec to completion through the session API: Start, then
// block on Result.
func runSpec(dev *Device, opts ...Option) (*Result, error) {
	session, err := dev.Start(context.Background(), NewSpec(opts...))
	if err != nil {
		return nil, err
	}
	return session.Result()
}

func models(t *testing.T) *Models {
	t.Helper()
	if sharedModels == nil {
		m, err := NewDevice().Characterize(1)
		if err != nil {
			t.Fatalf("Characterize: %v", err)
		}
		sharedModels = m
	}
	return sharedModels
}

func TestBenchmarksList(t *testing.T) {
	names := Benchmarks()
	if len(names) != 16 {
		t.Fatalf("%d benchmarks, want 16", len(names))
	}
	for _, want := range []string{"templerun", "matrixmult", "dijkstra", "blowfish"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("benchmark %q missing", want)
		}
	}
}

func TestBenchmarksByClass(t *testing.T) {
	low, err := BenchmarksByClass("low")
	if err != nil || len(low) == 0 {
		t.Fatalf("low class: %v, %v", low, err)
	}
	if _, err := BenchmarksByClass("extreme"); err == nil {
		t.Error("unknown class accepted")
	}
	hi, _ := BenchmarksByClass("HIGH") // case-insensitive
	if len(hi) == 0 {
		t.Error("upper-case class rejected")
	}
}

func TestRunAndSummary(t *testing.T) {
	dev := NewDevice()
	res, err := runSpec(dev, WithBenchmark("dijkstra"), WithPolicy(DTPM), WithModels(models(t)), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summary()
	for _, frag := range []string{"dijkstra", "dtpm", "exec=", "maxT="} {
		if !strings.Contains(s, frag) {
			t.Errorf("summary %q missing %q", s, frag)
		}
	}
}

func TestRunUnknownBenchmark(t *testing.T) {
	_, err := runSpec(NewDevice(), WithBenchmark("doom"), WithPolicy(WithFan))
	if !errors.Is(err, ErrUnknownBenchmark) {
		t.Fatalf("unknown benchmark: got %v, want ErrUnknownBenchmark", err)
	}
}

func TestCompareOrder(t *testing.T) {
	dev := NewDevice()
	results, err := dev.Compare(context.Background(), NewSpec(
		WithBenchmark("sha"), WithModels(models(t)), WithSeed(1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("%d results, want 4", len(results))
	}
	wantOrder := []Policy{WithFan, WithoutFan, Reactive, DTPM}
	for i, res := range results {
		if res.Policy != wantOrder[i] {
			t.Errorf("result %d policy %v, want %v", i, res.Policy, wantOrder[i])
		}
	}
}

func TestExperimentIDs(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) < 20 {
		t.Fatalf("%d experiment ids, want >= 20 (every table and figure)", len(ids))
	}
	for _, want := range []string{"fig1.1", "tab6.4", "fig6.9", "fig7.1"} {
		found := false
		for _, id := range ids {
			if id == want {
				found = true
			}
		}
		if !found {
			t.Errorf("experiment %q missing", want)
		}
	}
}

func TestRunExperimentSmoke(t *testing.T) {
	out, err := RunExperiment("tab6.1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "1600") {
		t.Errorf("tab6.1 output missing the 1600 MHz step:\n%s", out)
	}
	if _, err := RunExperiment("fig0.0", 1); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestDistributeBudget(t *testing.T) {
	comps := DefaultBudgetComponents()
	g, err := DistributeBudget(comps, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := DistributeBudgetOptimal(comps, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	if g.Power > 3.0 || opt.Power > 3.0 {
		t.Errorf("solutions exceed budget: greedy %.2f, optimal %.2f", g.Power, opt.Power)
	}
	if opt.Cost > g.Cost {
		t.Errorf("optimal cost %.4f above greedy %.4f", opt.Cost, g.Cost)
	}
}
