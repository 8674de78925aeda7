package campaign

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// update regenerates the golden trace files instead of comparing:
//
//	go test ./internal/campaign -run TestGoldenTraces -update
//
// Regenerate ONLY when a simulation-behaviour change is intentional, and
// say so in the commit: these files pin the numerical output of the whole
// sim/thermal/dtpm stack.
var update = flag.Bool("update", false, "regenerate golden trace files")

// goldenCase is one pinned scenario run. The three cases are chosen to
// cover disjoint machinery: idle→GPU gameplay under the stock fan ladder,
// repeated idle/burst cycling with no fan, and a hot-ambient soak into a
// multi-threaded sprint under the full DTPM controller (which also pins
// the characterization pipeline that produced its models).
type goldenCase struct {
	scenario string
	policy   sim.Policy
	seed     int64
	dtpm     bool // attach the identified models
}

var goldenCases = []goldenCase{
	{scenario: "cold-start", policy: sim.PolicyFan, seed: 1},
	{scenario: "bursty-interactive", policy: sim.PolicyNoFan, seed: 2},
	{scenario: "soak-then-sprint", policy: sim.PolicyDTPM, seed: 3, dtpm: true},
}

func (g goldenCase) file() string {
	return filepath.Join("testdata", fmt.Sprintf("golden-%s.csv", g.scenario))
}

// goldenOptions compiles the golden scenarios into recordable run options.
// The 0.5 s control period keeps the committed CSVs compact (tens of KB)
// while still exercising every per-step code path.
func goldenOptions(t *testing.T) []sim.Options {
	t.Helper()
	var opts []sim.Options
	for _, g := range goldenCases {
		spec, err := scenario.ByName(g.scenario)
		if err != nil {
			t.Fatal(err)
		}
		script, err := scenario.Compile(spec)
		if err != nil {
			t.Fatal(err)
		}
		opt := sim.Options{
			Policy:        g.policy,
			Script:        script,
			Seed:          g.seed,
			ControlPeriod: 0.5,
			Record:        true,
		}
		if g.dtpm {
			ch := testModels(t)
			opt.Model = ch.Thermal
			opt.PowerModel = ch.Power
		}
		opts = append(opts, opt)
	}
	return opts
}

// TestGoldenTraces is the golden-trace regression harness: the three
// scenario runs must produce byte-identical CSV traces to the committed
// files at 1, 4, and 8 pool workers. Any numerical drift anywhere in
// the workload/sim/thermal/sensor/dtpm stack — or any worker-count
// dependence — fails here first.
func TestGoldenTraces(t *testing.T) {
	opts := goldenOptions(t)
	for _, workers := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			runner := sim.NewRunner()
			results := make([]*sim.Result, len(opts))
			errs := make([]error, len(opts))
			sched.Pool{Workers: workers}.ForEach(len(opts), func(i int) {
				results[i], errs[i] = sched.RunSafely(func() (*sim.Result, error) {
					return runner.Run(context.Background(), opts[i])
				})
			})
			for i, g := range goldenCases {
				if errs[i] != nil {
					t.Errorf("%s: %v", g.scenario, errs[i])
					continue
				}
				var buf bytes.Buffer
				if err := results[i].Rec.WriteCSV(&buf); err != nil {
					t.Fatal(err)
				}
				if *update && workers == 1 {
					if err := os.WriteFile(g.file(), buf.Bytes(), 0o644); err != nil {
						t.Fatal(err)
					}
					t.Logf("regenerated %s (%d bytes)", g.file(), buf.Len())
				}
				want, err := os.ReadFile(g.file())
				if err != nil {
					t.Fatalf("%s: %v (run with -update to generate)", g.scenario, err)
				}
				if !bytes.Equal(buf.Bytes(), want) {
					t.Errorf("%s: trace diverged from %s\n%s",
						g.scenario, g.file(), goldenDiff(want, buf.Bytes()))
				}
			}
		})
	}
}

// goldenDiff renders a sample-level summary of how a trace drifted, so a
// failure names the series and instants instead of dumping two CSVs.
func goldenDiff(want, got []byte) string {
	wr, err := trace.ReadCSV(bytes.NewReader(want))
	if err != nil {
		return fmt.Sprintf("(golden file unparseable: %v)", err)
	}
	gr, err := trace.ReadCSV(bytes.NewReader(got))
	if err != nil {
		return fmt.Sprintf("(new trace unparseable: %v)", err)
	}
	return trace.DiffRecorders(wr, gr, 0).String()
}
