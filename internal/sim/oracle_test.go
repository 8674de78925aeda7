package sim_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/platform"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The kernel oracle pins the complete observable output of Runner.Run —
// every Result field (the §6.3.1 Pred* accounting included), the recorder's
// CSV, and the observer's sample stream — as one SHA-256 per run, over
// every platform x library scenario x policy (scripted, recording, with a
// model), every platform x three table benchmarks x policy (unscripted),
// one trace replay, and one cancelled run. The digests were committed from
// the original independent scalar loop; any kernel change that moves a
// single bit of any of those outputs fails here.
//
// Regenerate (only when a physics change is intended) with:
//
//	go test ./internal/sim -run TestKernelOracle -update
var update = flag.Bool("update", false, "regenerate the kernel oracle digests")

const (
	oraclePeriod   = 0.25
	oracleDuration = 12
	oracleFile     = "testdata/kernel-oracle.json"
	oracleCancelAt = 17
)

var oracleBenches = []string{"dijkstra", "matrixmult", "templerun"}

// digestRun hashes one run's complete output.
func digestRun(t *testing.T, res *sim.Result, runErr error, samples []sim.Sample) string {
	t.Helper()
	h := sha256.New()
	fmt.Fprintf(h, "err=%v\n", runErr)
	if res != nil {
		fmt.Fprintf(h, "bench=%s policy=%d completed=%t\n", res.Bench, res.Policy, res.Completed)
		for _, v := range []float64{
			res.ExecTime, res.AvgPower, res.Energy,
			res.MaxTemp, res.AvgTemp, res.TempVar, res.Spread, res.OverTMax,
			res.SSAvgTemp, res.SSTempVar, res.SSSpread,
			res.PredMeanPct, res.PredMaxPct, res.PredMaxAbsC,
		} {
			fmt.Fprintf(h, "%016x\n", math.Float64bits(v))
		}
		if res.Rec != nil {
			var csv bytes.Buffer
			if err := res.Rec.WriteCSV(&csv); err != nil {
				t.Fatal(err)
			}
			h.Write(csv.Bytes())
		}
	}
	for _, s := range samples {
		writeSample(h, s)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeSample(h hash.Hash, s sim.Sample) {
	fmt.Fprintf(h, "%d", s.Step)
	for _, v := range []float64{s.Time, s.MaxTemp, s.FreqGHz, s.Power, s.FanSpeed, s.Cores, s.Cluster, s.GPUMHz, s.BoardTemp, s.BigPower} {
		fmt.Fprintf(h, " %016x", math.Float64bits(v))
	}
	h.Write([]byte{'\n'})
}

// oracleRun runs opt with an attached collecting observer and digests it.
func oracleRun(t *testing.T, ctx context.Context, runner *sim.Runner, opt sim.Options) (string, *sim.Result) {
	t.Helper()
	var samples []sim.Sample
	observe := opt.Observer
	opt.Observer = func(s sim.Sample) {
		samples = append(samples, s)
		if observe != nil {
			observe(s)
		}
	}
	res, err := runner.Run(ctx, opt)
	return digestRun(t, res, err, samples), res
}

func oracleDigests(t *testing.T) map[string]string {
	t.Helper()
	ctx := context.Background()
	got := map[string]string{}
	for _, platName := range platform.Names() {
		desc, err := platform.ByName(platName)
		if err != nil {
			t.Fatal(err)
		}
		runner := sim.NewRunnerFor(desc)
		models, err := runner.Characterize(ctx, 1)
		if err != nil {
			t.Fatalf("characterize %s: %v", platName, err)
		}
		base := sim.Options{
			Seed:       101,
			Record:     true,
			Model:      models.Thermal,
			PowerModel: models.Power,
		}
		for _, scName := range scenario.Names() {
			sc, err := scenario.ByName(scName)
			if err != nil {
				t.Fatal(err)
			}
			for _, pol := range sim.Policies() {
				script, err := scenario.Compile(sc.Perturbed(507, 1.5, desc.Thermal.Ambient))
				if err != nil {
					t.Fatal(err)
				}
				opt := base
				opt.Policy = pol
				opt.Script = script
				opt.ControlPeriod = oraclePeriod
				opt.MaxDuration = oracleDuration
				got["scripted/"+platName+"/"+scName+"/"+pol.String()], _ = oracleRun(t, ctx, runner, opt)
			}
		}
		for _, name := range oracleBenches {
			b, err := workload.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, pol := range sim.Policies() {
				opt := base
				opt.Policy = pol
				opt.Bench = b
				got["bench/"+platName+"/"+name+"/"+pol.String()], _ = oracleRun(t, ctx, runner, opt)
			}
		}
		if platName != platform.DefaultName {
			continue
		}

		// Record a scenario, rebuild it from its trace, and replay it: a
		// replay reads its recorded inputs, not a compiled shape.
		sc, err := scenario.ByName("gaming-session")
		if err != nil {
			t.Fatal(err)
		}
		script, err := scenario.Compile(sc)
		if err != nil {
			t.Fatal(err)
		}
		opt := base
		opt.Policy = sim.PolicyDTPM
		opt.Script = script
		opt.ControlPeriod = oraclePeriod
		opt.MaxDuration = oracleDuration
		_, rec := oracleRun(t, ctx, runner, opt)
		replay, err := scenario.FromTrace(rec.Rec, "replayed")
		if err != nil {
			t.Fatal(err)
		}
		opt.Script = replay
		opt.MaxDuration = 0
		got["replay/"+platName+"/gaming-session/dtpm"], _ = oracleRun(t, ctx, runner, opt)

		// Cancel an unscripted DTPM run from its observer at a fixed step:
		// the partial result, trace, and stream are part of the contract.
		b, err := workload.ByName("templerun")
		if err != nil {
			t.Fatal(err)
		}
		cctx, cancel := context.WithCancel(ctx)
		opt = base
		opt.Policy = sim.PolicyDTPM
		opt.Bench = b
		opt.Observer = func(s sim.Sample) {
			if s.Step == oracleCancelAt {
				cancel()
			}
		}
		got[fmt.Sprintf("cancelled/%s/templerun/dtpm/step%d", platName, oracleCancelAt)], _ = oracleRun(t, cctx, runner, opt)
		cancel()
	}
	return got
}

// TestKernelOracle compares every run's digest with the committed oracle.
func TestKernelOracle(t *testing.T) {
	got := oracleDigests(t)
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(oracleFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(oracleFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(oracleFile)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if g, ok := got[name]; !ok {
			t.Errorf("%s: run missing from the sweep", name)
		} else if g != want[name] {
			t.Errorf("%s: output digest %s, oracle %s", name, g, want[name])
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: run not in the oracle (run with -update to add it)", name)
		}
	}
}
