package fleet

import (
	"bytes"
	"context"
	"math"
	"os"
	"strconv"
	"testing"

	"repro/internal/platform"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// The batched kernel's whole contract is width invariance: a device stepped
// in a batch produces the same bits — not "close" — as the same device run
// alone through Runner.Run, which is that kernel at width 1 (and is itself
// pinned against the original scalar loop by internal/sim's kernel-oracle
// digests). These tests sweep every registered platform x library scenario
// x policy and a range of batch widths, comparing every observed Sample
// field and every consumed Result field bitwise. The §6.3.1
// prediction-accuracy fields (PredMeanPct, PredMaxPct, PredMaxAbsC) are
// deliberately excluded: RunBatch documents that it skips that accounting,
// and no fleet output consumes it.

// equivPeriod / equivDuration keep each equivalence run to ~50 control
// intervals so the full matrix stays cheap. BATCH_EQUIV_N (the nightly CI
// knob) adds a larger batch width on top of the default sweep.
const (
	equivPeriod   = 0.25
	equivDuration = 12
)

var characterizations = map[string]*sim.Characterization{}

// deviceFor returns a runner plus characterization for a platform, cached
// across the package's equivalence tests (characterization is the
// expensive part; the tests in this file never run in parallel).
func deviceFor(t *testing.T, name string) (*sim.Runner, *sim.Characterization) {
	t.Helper()
	desc, err := platform.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	runner := sim.NewRunnerFor(desc)
	models, ok := characterizations[name]
	if !ok {
		models, err = runner.Characterize(context.Background(), 1)
		if err != nil {
			t.Fatalf("characterize %s: %v", name, err)
		}
		characterizations[name] = models
	}
	return runner, models
}

// equivOptions builds the b per-device option sets of one (platform,
// scenario, policy) combo, mirroring the fleet's per-cell perturbation
// scheme: every device gets its own run seed, jitter seed, and ambient
// shift (device 1 keeps shift 0, covering the unperturbed path).
func equivOptions(t *testing.T, runner *sim.Runner, models *sim.Characterization, scName string, pol sim.Policy, b int) ([]sim.Options, []*[]sim.Sample) {
	t.Helper()
	sc, err := scenario.ByName(scName)
	if err != nil {
		t.Fatal(err)
	}
	opts := make([]sim.Options, b)
	streams := make([]*[]sim.Sample, b)
	for d := 0; d < b; d++ {
		shift := 1.5*float64(d) - 1.5
		script, err := scenario.Compile(sc.Perturbed(int64(500+7*d), shift, runner.Desc.Thermal.Ambient))
		if err != nil {
			t.Fatal(err)
		}
		samples := &[]sim.Sample{}
		streams[d] = samples
		opts[d] = sim.Options{
			Policy:        pol,
			Script:        script,
			Seed:          int64(101 + 13*d),
			ControlPeriod: equivPeriod,
			MaxDuration:   equivDuration,
			Model:         models.Thermal,
			PowerModel:    models.Power,
			Observer:      func(s sim.Sample) { *samples = append(*samples, s) },
		}
	}
	return opts, streams
}

func sampleBits(s sim.Sample) [11]uint64 {
	return [11]uint64{
		uint64(s.Step),
		math.Float64bits(s.Time),
		math.Float64bits(s.MaxTemp),
		math.Float64bits(s.FreqGHz),
		math.Float64bits(s.Power),
		math.Float64bits(s.FanSpeed),
		math.Float64bits(s.Cores),
		math.Float64bits(s.Cluster),
		math.Float64bits(s.GPUMHz),
		math.Float64bits(s.BoardTemp),
		math.Float64bits(s.BigPower),
	}
}

// resultBits flattens the consumed Result fields (everything except the
// Pred* accounting and the recorder) to comparable bit patterns.
func resultBits(r *sim.Result) [13]uint64 {
	completed := uint64(0)
	if r.Completed {
		completed = 1
	}
	return [13]uint64{
		completed,
		math.Float64bits(r.ExecTime),
		math.Float64bits(r.AvgPower),
		math.Float64bits(r.Energy),
		math.Float64bits(r.MaxTemp),
		math.Float64bits(r.AvgTemp),
		math.Float64bits(r.TempVar),
		math.Float64bits(r.Spread),
		math.Float64bits(r.OverTMax),
		math.Float64bits(r.SSAvgTemp),
		math.Float64bits(r.SSTempVar),
		math.Float64bits(r.SSSpread),
		uint64(r.Policy),
	}
}

// assertBatchMatchesScalar runs one combo at batch width b and demands
// per-device byte-identity with b independent width-1 Run calls.
func assertBatchMatchesScalar(t *testing.T, platName, scName string, pol sim.Policy, b int) {
	t.Helper()
	ctx := context.Background()
	runner, models := deviceFor(t, platName)

	batchOpts, batchStreams := equivOptions(t, runner, models, scName, pol, b)
	batchRes, err := runner.RunBatch(ctx, batchOpts)
	if err != nil {
		t.Fatalf("RunBatch: %v", err)
	}

	scalarOpts, scalarStreams := equivOptions(t, runner, models, scName, pol, b)
	for d := 0; d < b; d++ {
		scalarRes, err := runner.Run(ctx, scalarOpts[d])
		if err != nil {
			t.Fatalf("scalar Run device %d: %v", d, err)
		}
		if got, want := resultBits(batchRes[d]), resultBits(scalarRes); got != want {
			t.Errorf("device %d: batched result diverges from scalar:\nbatched %+v\nscalar  %+v", d, *batchRes[d], *scalarRes)
		}
		if batchRes[d].Bench != scalarRes.Bench {
			t.Errorf("device %d: Bench %q vs %q", d, batchRes[d].Bench, scalarRes.Bench)
		}
		bs, ss := *batchStreams[d], *scalarStreams[d]
		if len(bs) != len(ss) {
			t.Fatalf("device %d: %d batched samples vs %d scalar", d, len(bs), len(ss))
		}
		for k := range bs {
			if sampleBits(bs[k]) != sampleBits(ss[k]) {
				t.Fatalf("device %d step %d: batched sample diverges:\nbatched %+v\nscalar  %+v", d, k, bs[k], ss[k])
			}
		}
	}
}

// TestBatchEquivalenceMatrix sweeps every registered platform x library
// scenario x policy at one batch width. The B-width sweep lives in
// TestBatchEquivalenceWidths; together they are the oracle gate the
// tentpole rests on.
func TestBatchEquivalenceMatrix(t *testing.T) {
	for _, platName := range platform.Names() {
		for _, scName := range scenario.Names() {
			for _, pol := range sim.Policies() {
				t.Run(platName+"/"+scName+"/"+pol.String(), func(t *testing.T) {
					assertBatchMatchesScalar(t, platName, scName, pol, 3)
				})
			}
		}
	}
}

// TestBatchEquivalenceWidths checks byte-identity across batch widths —
// including 1 (RunBatch at width 1 against Run) and 17 (not a divisor of
// anything, catching stride bugs). The nightly CI job raises the width via
// BATCH_EQUIV_N to shake out capacity effects scalar CI never sees.
func TestBatchEquivalenceWidths(t *testing.T) {
	widths := []int{1, 3, 8, 17}
	if s := os.Getenv("BATCH_EQUIV_N"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("BATCH_EQUIV_N=%q: want a positive integer", s)
		}
		widths = append(widths, n)
	}
	for _, b := range widths {
		t.Run("B="+strconv.Itoa(b), func(t *testing.T) {
			assertBatchMatchesScalar(t, platform.DefaultName, "gaming-session", sim.PolicyDTPM, b)
		})
	}
}

// TestFleetBatchSizeInvariant is the end-to-end closure: one spec, one
// base seed, byte-identical JSON and CSV reports whether the engine runs
// width-1 units, the default batch width, or an oddball width.
func TestFleetBatchSizeInvariant(t *testing.T) {
	spec := testSpec(12)
	var wantJSON, wantCSV []byte
	for _, size := range []int{1, 0, 5} {
		eng := &Engine{Workers: 4, BaseSeed: 42, BatchSize: size}
		rep, err := eng.Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Failures) > 0 {
			t.Fatalf("BatchSize=%d: fleet cells failed: %+v", size, rep.Failures)
		}
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
			t.Errorf("BatchSize=%d: JSON report differs from width 1", size)
		}
		if !bytes.Equal(c.Bytes(), wantCSV) {
			t.Errorf("BatchSize=%d: CSV report differs from width 1", size)
		}
	}
}
