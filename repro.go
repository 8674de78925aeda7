// Package repro is the public API of the reproduction of "Predictive
// Dynamic Thermal and Power Management for Heterogeneous Mobile Platforms"
// (Singla et al., DATE 2015 / ASU MS thesis 2015).
//
// The library simulates an Odroid-XU+E class big.LITTLE platform (Samsung
// Exynos 5410: 4x Cortex-A15 + 4x Cortex-A7 + GPU + memory), reproduces the
// paper's power/thermal modeling methodology (Chapter 4), its predictive
// DTPM algorithm (Chapter 5), and regenerates every table and figure of its
// evaluation (Chapter 6) plus the power-budget-distribution extension
// (Chapter 7).
//
// Typical use — build one unified Spec from functional options and start a
// context-aware session that streams per-control-interval samples:
//
//	dev := repro.NewDevice()
//	models, err := dev.Characterize(1)        // §4: furnace + PRBS sysid
//	session, err := dev.Start(ctx, repro.NewSpec(
//	    repro.WithBenchmark("templerun"),     // §6: one benchmark run
//	    repro.WithPolicy(repro.DTPM),
//	    repro.WithModels(models),
//	))
//	for s := range session.Samples() {        // live 100 ms telemetry
//	    fmt.Printf("t=%5.1fs %5.1f°C\n", s.Time, s.MaxTemp)
//	}
//	res, err := session.Result()
//	fmt.Println(res.Summary())
//
// The same Spec drives every execution mode: WithScenario selects a
// multi-phase usage scenario, WithTrace replays a recording, and campaigns
// sweep grids of the same knobs. Cancelling the Start context stops the
// run between control intervals with a well-defined partial Result.
//
// To regenerate a paper artifact:
//
//	rep, err := repro.RunExperiment("fig6.9", 1)
//	fmt.Println(rep)
package repro

import (
	"context"
	"fmt"
	"io"
	"iter"
	"strings"

	"repro/internal/budget"
	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/platform"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/version"
	"repro/internal/workload"
)

// EngineVersion names the simulation-engine generation this build produces
// bytes for (e.g. "repro-engine/8"). It is the provenance string in every
// result-store key and entry header, the version every daemon API envelope
// carries, and the handshake the daemon rejects mismatched clients on —
// all three consume the one shared constant, so they can never drift.
// Every CLI prints it under -version.
const EngineVersion = version.Engine

// Policy selects the thermal-management configuration of §6.2.
type Policy = sim.Policy

// The four experimental configurations of the paper's evaluation.
const (
	// WithFan is the stock Odroid configuration: default governors plus
	// the 57/63/68 °C fan speed ladder.
	WithFan = sim.PolicyFan
	// WithoutFan disables the fan and runs only the default governors.
	WithoutFan = sim.PolicyNoFan
	// Reactive is the fan-mimicking heuristic: 18%/25% frequency cuts at
	// 63/68 °C.
	Reactive = sim.PolicyReactive
	// DTPM is the paper's predictive algorithm.
	DTPM = sim.PolicyDTPM
)

// Models holds the outcome of the Chapter 4 characterization: the
// identified thermal state-space model and the fitted power model the DTPM
// controller deploys.
type Models struct {
	c *sim.Characterization
}

// Describe renders the identified thermal model and the fitted leakage law
// in human-readable form.
func (m *Models) Describe() string {
	var b strings.Builder
	tm := m.c.Thermal
	fmt.Fprintf(&b, "thermal model T[k+1] = A T[k] + B P[k]  (Ts %.1f s, ambient %.1f C, stable %v)\n",
		tm.Ts, tm.Ambient, tm.Stable())
	fmt.Fprintf(&b, "A =\n%sB =\n%s", tm.A, tm.B)
	lk := m.c.Leakage
	fmt.Fprintf(&b, "big-cluster leakage I(T) = c1 T^2 exp(c2/T) + Igate: c1=%.3g c2=%.0f Igate=%.3g A\n",
		lk.C1, lk.C2, lk.IGate)
	return b.String()
}

// LeakageAt evaluates the fitted big-cluster leakage power (W) at a core
// temperature (°C) and supply voltage (V) — the Figure 4.3 curve.
func (m *Models) LeakageAt(tempC, volt float64) float64 {
	return m.c.Leakage.Power(tempC, volt)
}

// PredictTemperature predicts the hotspot temperatures (°C) n control
// intervals (100 ms each) ahead, from current core temperatures and domain
// powers [big, little, gpu, mem] in watts — Equation 4.5.
//
// The fixed [4] shape fits the default (exynos5410) platform's 4-state
// model only; it panics for models of any other order so a wrong-platform
// mix-up is loud instead of silently mispredicting. Use
// PredictTemperatureN for models identified on other platforms.
func (m *Models) PredictTemperature(tempC [4]float64, powersW [4]float64, n int) [4]float64 {
	out, err := m.PredictTemperatureN(tempC[:], powersW[:], n)
	if err != nil {
		panic("repro: " + err.Error())
	}
	var res [4]float64
	copy(res[:], out)
	return res
}

// PredictTemperatureN is the platform-generic form of PredictTemperature:
// tempC must carry one entry per hotspot node of the platform the models
// were identified on (Models.States()), powersW the four domain powers.
func (m *Models) PredictTemperatureN(tempC, powersW []float64, n int) ([]float64, error) {
	if got, want := len(tempC), m.c.Thermal.States(); got != want {
		return nil, fmt.Errorf("model has %d hotspot states, got %d temperatures (models identified on a different platform?)", want, got)
	}
	return m.c.Thermal.PredictConst(tempC, powersW, n), nil
}

// States returns the identified thermal model's order: one state per
// hotspot node of the platform the models were characterized on.
func (m *Models) States() int { return m.c.Thermal.States() }

// Device is a simulated mobile platform (the default is the paper's
// Odroid-XU+E board; NewDeviceFor builds any registered platform).
type Device struct {
	r *sim.Runner
}

// NewDevice returns the default calibrated device (exynos5410).
func NewDevice() *Device {
	return &Device{r: sim.NewRunner()}
}

// NewDeviceFor returns a simulated device for a registered platform
// profile; see Platforms() for the names. Every layer of the simulator —
// ground-truth power, RC thermal network, sensors, kernel, governors, and
// the DTPM controller — sizes itself from the profile's descriptor.
func NewDeviceFor(name string) (*Device, error) {
	d, err := platform.ByName(name)
	if err != nil {
		return nil, err
	}
	return &Device{r: sim.NewRunnerFor(d)}, nil
}

// Platform returns the name of the profile this device simulates.
func (d *Device) Platform() string {
	if d.r.Desc != nil {
		return d.r.Desc.Name
	}
	return platform.DefaultName
}

// Platforms returns the registered platform profile names (default
// platform first). These are valid for NewDeviceFor and for the campaign
// Platforms sweep axis.
func Platforms() []string { return platform.Names() }

// Characterize runs the complete Chapter 4 modeling methodology against
// the device: the temperature-furnace leakage characterization (§4.1.1)
// and the per-resource PRBS thermal system identification (§4.2.1). The
// models come from noisy sensor data, exactly as on hardware.
func (d *Device) Characterize(seed int64) (*Models, error) {
	return d.CharacterizeContext(context.Background(), seed)
}

// CharacterizeContext is Characterize with cancellation: the context
// aborts the modeling flow between its stages (furnace sweeps and PRBS
// identification experiments).
func (d *Device) CharacterizeContext(ctx context.Context, seed int64) (*Models, error) {
	ch, err := d.r.Characterize(ctx, seed)
	if err != nil {
		return nil, err
	}
	return &Models{c: ch}, nil
}

// Result is the outcome of one benchmark run.
type Result struct {
	*sim.Result
}

// Summary renders the §6 metrics in one line.
func (r *Result) Summary() string {
	return fmt.Sprintf(
		"%s under %s: exec=%.1fs power=%.2fW energy=%.0fJ maxT=%.1fC avgT=%.1fC over63=%.1fs predErr=%.2f%%",
		r.Bench, r.Policy, r.ExecTime, r.AvgPower, r.Energy, r.MaxTemp, r.AvgTemp, r.OverTMax, r.PredMeanPct)
}

// runToCompletion is the shared batch path: Start, then block on Result.
func (d *Device) runToCompletion(ctx context.Context, spec Spec) (*Result, error) {
	session, err := d.Start(ctx, spec)
	if err != nil {
		return nil, err
	}
	return session.Result()
}

// CampaignGrid declares a simulation campaign as the cartesian product of
// {policy × workload × platform × governor × seed × tmax} axes, where the
// workload axis is either Table 6.4 benchmarks or named scenarios and the
// platform axis names registered profiles (see Platforms()); empty axes
// default to the paper's configuration. See the campaign package for the
// semantics.
type CampaignGrid = campaign.Grid

// CampaignReport is a completed campaign: per-cell aggregate metrics (or a
// collected error) in deterministic cell order, exportable as JSON or CSV.
type CampaignReport = campaign.Report

// CellResult is the outcome of one campaign cell, yielded live by
// StreamCampaign and collected into CampaignReport.
type CellResult = campaign.CellResult

// RunCampaign sweeps the grid across a worker pool (workers <= 0 means
// GOMAXPROCS). Results are bit-identical at any parallelism level: each
// cell derives its RNG stream from baseSeed and its own coordinates alone.
// Cell failures are collected in the report, never aborting the sweep. On
// cancellation the partial report (completed cells intact, the rest marked
// cancelled) comes back with an error wrapping ErrCancelled.
//
// models are the device's own characterization; nil means the campaign
// characterizes the device itself, at baseSeed, on first need — exactly
// what passing Characterize(baseSeed) would give, and the rule RunFleet
// and every other platform of the grid follow. Either way every cell runs
// with models: DTPM cells control, and every cell carries the §6.3.1
// prediction-accuracy metrics.
func (d *Device) RunCampaign(ctx context.Context, grid CampaignGrid, models *Models, workers int, baseSeed int64) (*CampaignReport, error) {
	return d.campaignEngine(models, workers, baseSeed).RunContext(ctx, grid)
}

// StreamCampaign sweeps the grid like RunCampaign but returns an iterator
// that yields each CellResult as its worker finishes (completion order) —
// live progress over a long sweep. Collecting the stream and sorting by
// Cell.Index recovers exactly RunCampaign's deterministic report.
// Cancelling the context stops new cells, cancels in-flight ones, and
// drains the pool cleanly; breaking out of the loop behaves the same.
// Nil models follow RunCampaign's rule.
func (d *Device) StreamCampaign(ctx context.Context, grid CampaignGrid, models *Models, workers int, baseSeed int64) (iter.Seq[CellResult], error) {
	return d.campaignEngine(models, workers, baseSeed).Stream(ctx, grid)
}

func (d *Device) campaignEngine(models *Models, workers int, baseSeed int64) *campaign.Engine {
	eng := &campaign.Engine{Workers: workers, Runner: d.r, BaseSeed: baseSeed}
	if models != nil {
		eng.Models = models.c
	}
	return eng
}

// Compare runs the spec's workload under every policy — overriding only
// the spec's policy field per run — and reports each result in the §6.2
// configuration order. Because the whole unified spec carries over, every
// knob (TMax, Governor, Record, seed, control period, even a scenario or
// trace workload) propagates to all four runs; earlier versions silently
// dropped everything but the benchmark name, models, and seed.
func (d *Device) Compare(ctx context.Context, spec Spec) ([]*Result, error) {
	out := make([]*Result, 0, 4)
	for _, pol := range []Policy{WithFan, WithoutFan, Reactive, DTPM} {
		res, err := d.runToCompletion(ctx, spec.withPolicyOverride(pol))
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// ScenarioSpec re-exports the declarative scenario model: timed phases
// that switch workloads, idle gaps, ambient profiles, governor swaps, and
// thermal-soak preludes, compiled into the simulation loop.
type ScenarioSpec = scenario.Spec

// ScenarioPhase re-exports one timed segment of a scenario.
type ScenarioPhase = scenario.Phase

// Scenarios returns the named library scenario names.
func Scenarios() []string { return scenario.Names() }

// ScenarioByName returns a library scenario's declarative spec.
func ScenarioByName(name string) (ScenarioSpec, error) { return scenario.ByName(name) }

// TraceDiff re-exports the sample-by-sample trace comparison report.
type TraceDiff = trace.DiffReport

// ReadTrace parses a trace CSV — written by Result.Rec.WriteCSV or
// `cmd/scenario record` — back into a recorder ReplayTrace accepts, so the
// record-to-file / replay-later workflow works outside this module too.
func ReadTrace(r io.Reader) (*trace.Recorder, error) { return trace.ReadCSV(r) }

// ReplayTrace re-feeds a recorded scenario trace as the workload demand
// source (zero-order hold over the recorded input series), runs a fresh
// simulation under the options' policy/models/seed/constraint, and returns
// the fresh result plus the sample-by-sample diff against the recording.
// With the options of the original run, the diff reports zero mismatches —
// any drift means the sim/thermal/dtpm stack changed behaviour.
//
// The trace replaces any workload option and supplies the control period
// unless WithControlPeriod overrides it; the fresh run always records. It
// is Start plus Result under ctx (WithTrace is the streaming form).
func (d *Device) ReplayTrace(ctx context.Context, rec *trace.Recorder, opts ...Option) (*Result, *TraceDiff, error) {
	spec := NewSpec(opts...)
	WithTrace(rec)(&spec)
	res, err := d.runToCompletion(ctx, spec)
	if err != nil {
		return nil, nil, err
	}
	return res, trace.DiffRecorders(rec.Materialize(), res.Rec.Materialize(), 0), nil
}

// Benchmarks returns the Table 6.4 benchmark names.
func Benchmarks() []string { return workload.Names() }

// BenchmarksByClass returns benchmark names in a power class:
// "low", "medium", or "high".
func BenchmarksByClass(class string) ([]string, error) {
	switch strings.ToLower(class) {
	case "low":
		return workload.ByClass(workload.Low), nil
	case "medium":
		return workload.ByClass(workload.Medium), nil
	case "high":
		return workload.ByClass(workload.High), nil
	}
	return nil, fmt.Errorf("repro: unknown class %q (low, medium, high)", class)
}

// ExperimentIDs lists the regenerable paper artifacts (tables and figures).
func ExperimentIDs() []string { return experiments.IDs() }

// RunExperiment regenerates one paper artifact by ID ("fig6.9", "tab6.4",
// ...) and returns its rendered report. The seed fixes all stochastic
// parts, so reports regenerate identically.
func RunExperiment(id string, seed int64) (string, error) {
	e, err := experiments.ByID(id)
	if err != nil {
		return "", err
	}
	ectx, err := experiments.NewContext(context.Background(), seed)
	if err != nil {
		return "", err
	}
	rep, err := e.Run(ectx)
	if err != nil {
		return "", err
	}
	return rep.String(), nil
}

// RunAllExperiments regenerates every artifact, sharing one device and
// characterization, and returns the concatenated reports in paper order.
func RunAllExperiments(seed int64) (string, error) {
	ectx, err := experiments.NewContext(context.Background(), seed)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, e := range experiments.All() {
		rep, err := e.Run(ectx)
		if err != nil {
			return "", fmt.Errorf("%s: %w", e.ID, err)
		}
		b.WriteString(rep.String())
		b.WriteString("\n\n")
	}
	return b.String(), nil
}

// ErrBudgetInfeasible reports that even the all-minimum-frequency
// configuration exceeds the requested power budget.
var ErrBudgetInfeasible = budget.ErrInfeasible

// BudgetComponent re-exports the Chapter 7 component model.
type BudgetComponent = budget.Component

// BudgetSolution re-exports the Chapter 7 solver outcome.
type BudgetSolution = budget.Solution

// DefaultBudgetComponents returns the Figure 7.1 decomposition (big CPU
// cluster, little CPU cluster, GPU).
func DefaultBudgetComponents() []BudgetComponent { return budget.DefaultComponents() }

// DistributeBudget runs the paper's greedy marginal-cost heuristic
// (Eq. 7.3) to pick one frequency per component under the power budget.
func DistributeBudget(comps []BudgetComponent, pBudget float64) (*BudgetSolution, error) {
	return budget.Greedy(comps, pBudget)
}

// DistributeBudgetOptimal runs the exact branch-and-bound reference solver
// (Eq. 7.1/7.2).
func DistributeBudgetOptimal(comps []BudgetComponent, pBudget float64) (*BudgetSolution, error) {
	return budget.BranchAndBound(comps, pBudget)
}
