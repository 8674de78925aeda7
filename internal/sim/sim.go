// Package sim is the full-system experiment harness: it wires the platform,
// ground-truth power and thermal models, sensors, the simulated kernel with
// its default governors, and one of the four §6.2 management policies, then
// runs a benchmark to completion and reports the metrics of the evaluation:
// execution time, platform power, temperature statistics, and temperature-
// prediction accuracy.
package sim

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/dtpm"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/sensor"
	"repro/internal/sysid"
	"repro/internal/thermal"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Policy selects the thermal-management configuration of §6.2.
type Policy int

// The four experimental configurations.
const (
	// PolicyFan is the default configuration WITH the fan (stock Odroid).
	PolicyFan Policy = iota
	// PolicyNoFan disables the fan and runs only the default governor.
	PolicyNoFan
	// PolicyReactive is the fan-mimicking reactive throttling heuristic.
	PolicyReactive
	// PolicyDTPM is the paper's predictive algorithm.
	PolicyDTPM
)

// Policies lists the four configurations in paper order.
func Policies() []Policy {
	return []Policy{PolicyFan, PolicyNoFan, PolicyReactive, PolicyDTPM}
}

// ParsePolicy is the inverse of Policy.String.
func ParsePolicy(name string) (Policy, error) {
	for _, p := range Policies() {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("sim: unknown policy %q (known: with-fan, without-fan, reactive, dtpm)", name)
}

// MarshalJSON encodes the policy as its stable name rather than the enum
// integer, so exported reports stay comparable across versions even if the
// const block is ever reordered.
func (p Policy) MarshalJSON() ([]byte, error) {
	return json.Marshal(p.String())
}

// UnmarshalJSON accepts the names MarshalJSON produces.
func (p *Policy) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	v, err := ParsePolicy(s)
	if err != nil {
		return err
	}
	*p = v
	return nil
}

func (p Policy) String() string {
	switch p {
	case PolicyFan:
		return "with-fan"
	case PolicyNoFan:
		return "without-fan"
	case PolicyReactive:
		return "reactive"
	case PolicyDTPM:
		return "dtpm"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Options configure one run.
type Options struct {
	Policy   Policy
	Bench    workload.Benchmark
	Governor string  // default cpufreq governor name ("" = ondemand)
	Seed     int64   // sensor-noise / background seed
	TMax     float64 // DTPM constraint (0 = paper default 63)
	// MaxDuration caps the run (s); 0 = 4x the benchmark's nominal time.
	MaxDuration float64
	// ControlPeriod is the kernel tick (s); 0 = the paper's 100 ms.
	ControlPeriod float64
	// Record enables full trace recording.
	Record bool
	// PredHorizon is the prediction-accuracy accounting horizon in control
	// intervals (0 = the paper's 10 intervals = 1 s). It does not change
	// the DTPM controller's own horizon, only the §6.3.1 accounting.
	PredHorizon int
	// Model is the identified thermal model (required for PolicyDTPM).
	// When set, Run also uses it for the §6.3.1 prediction-accuracy
	// accounting in any policy (Result.Pred*): every interval predicts the
	// hottest core PredHorizon intervals ahead, and the prediction is
	// scored against the true maximum as soon as that interval is
	// measured, so Run holds the last PredHorizon+1 predicted maxima, not
	// the run's predictions. RunBatch skips that accounting.
	Model *sysid.ThermalModel
	// PowerModel supplies fitted leakage parameters for DTPM (nil = fit
	// omitted: ground-truth parameters are copied, representing a perfect
	// §4.1 characterization).
	PowerModel *power.Model
	// DTPM overrides the controller configuration (nil = paper defaults
	// with Options.TMax applied). Used by the ablation studies.
	DTPM *dtpm.Config
	// Observer, when set, is invoked synchronously at the end of every
	// control interval with that interval's Sample — the streaming-session
	// hook. It runs on the simulation goroutine, so a slow observer slows
	// the run (which is what makes live observation lock-step with the
	// simulation). A nil observer costs nothing: the hot loop stays
	// allocation-free, which the BenchmarkSimCell gate enforces.
	Observer func(Sample)
	// Script, when set, drives a time-varying scenario instead of Bench:
	// the workload, governor, GPU demand, activity factors, and ambient
	// temperature are read from the script once per control interval
	// (its SharedStep, then this device's WorkerDemand and AmbientAt), and
	// the run completes when the script's duration elapses. Bench is
	// ignored. RunBatch requires a Script, and in a batch of two or more
	// one non-empty ShapeSignature across the batch. With Record set, the
	// script's inputs are recorded alongside the outputs ("demand_w<i>",
	// "gpu_demand", "ambient_c", "cpu_activity", "gpu_activity",
	// "mem_traffic", "mem_bound", "gov_id"), which is what makes a trace
	// replayable.
	Script Script
}

// Result is the outcome of one run.
type Result struct {
	Bench     string
	Policy    Policy
	Completed bool
	// ExecTime is the foreground completion time (s), or the elapsed time
	// when the run hit MaxDuration.
	ExecTime float64
	// AvgPower / Energy are platform-level (external meter): W and J.
	AvgPower float64
	Energy   float64
	// Temperature statistics over the max-core series (°C).
	MaxTemp  float64
	AvgTemp  float64
	TempVar  float64
	Spread   float64
	OverTMax float64 // seconds spent above TMax
	// Steady-state statistics exclude the cold-start ramp: the window opens
	// at the first sample within 3 °C of TMax, or at 30% of the run if the
	// trace never gets that hot. Figure 6.5's average-temperature and
	// max-min comparison is computed over the regulated portion of the
	// trace, so these are the fields the Fig. 6.5 experiment reports.
	SSAvgTemp float64
	SSTempVar float64
	SSSpread  float64
	// Prediction accuracy (when a model was provided): the §6.3.1 metrics.
	PredMeanPct float64
	PredMaxPct  float64
	PredMaxAbsC float64
	// Rec holds traces when Options.Record was set: series "maxtemp",
	// "freq_ghz", "power_w", "fan", "cores", "cluster", "gpu_mhz",
	// "board", "bigpower_w"; with a model also "predmax_c", and under
	// PolicyDTPM additionally "dtpm_violation", "dtpm_budget_w",
	// "dtpm_pred_c".
	Rec *trace.Recorder
}

// Runner holds the simulated device shared across runs.
//
// A Runner is safe for concurrent use: Run builds all mutable state (chip,
// thermal integrator, sensors, scheduler, controller) per call, the ground
// truth and parameter fields are read-only, and the models passed through
// Options are either read-only (Options.Model, whose lazy gains cache is
// internally locked) or cloned before use (Options.PowerModel). The
// campaign engine relies on this to fan cells out across a worker pool.
type Runner struct {
	// Desc is the platform under simulation (nil = the default Exynos
	// 5410; NewRunnerFor sets it). GT and Thermal must describe the same
	// platform.
	Desc    *platform.Descriptor
	GT      *power.GroundTruth
	Thermal thermal.Params
	Sensors sensor.Config

	idleOnce  sync.Once
	idleState thermal.State
}

// NewRunner returns the default device (the paper's Odroid-XU+E board).
func NewRunner() *Runner { return NewRunnerFor(platform.Default()) }

// NewRunnerFor returns a simulated device for any registered platform
// descriptor: the ground-truth power model, RC thermal network, fan, and
// every per-core buffer in the simulation stack size themselves from it.
func NewRunnerFor(d *platform.Descriptor) *Runner {
	return &Runner{
		Desc:    d,
		GT:      power.GroundTruthFor(d),
		Thermal: d.Thermal,
		Sensors: sensor.DefaultConfig(),
	}
}

// desc resolves the platform descriptor (nil field = default platform, so
// a zero-initialized &Runner{GT: ..., Thermal: ...} keeps working).
func (r *Runner) desc() *platform.Descriptor {
	if r.Desc != nil {
		return r.Desc
	}
	return platform.Default()
}

// idleCoreUtil returns the light background utilization pattern of an idle
// device: the paper platform's {5%, 3%, 3%, 2%} pattern, cycled across
// however many big cores the platform has.
func idleCoreUtil(cores int) []float64 {
	base := [4]float64{0.05, 0.03, 0.03, 0.02}
	out := make([]float64, cores)
	for i := range out {
		out[i] = base[i%4]
	}
	return out
}

// groundTruthPowerModel builds a power.Model from the ground-truth leakage
// parameters (a perfect §4.1 characterization).
func (r *Runner) groundTruthPowerModel() *power.Model {
	var leak [platform.NumResources]power.LeakageParams
	for i := range leak {
		leak[i] = r.GT.Res[i].Leak
	}
	return power.NewModel(leak)
}

// IdleState returns the warm-start state: the device idling (background
// load only) long enough for the board to settle, like a phone sitting
// before a benchmark is launched. The fixed point depends only on the
// runner's parameters, so it is computed once and cached across runs.
func (r *Runner) IdleState() thermal.State {
	r.idleOnce.Do(func() { r.idleState = r.computeIdleState() })
	return r.idleState
}

func (r *Runner) computeIdleState() thermal.State {
	chip := platform.NewChipFor(r.desc())
	if err := chip.Active().SetFreq(chip.Active().Domain.MinFreq()); err != nil {
		panic(err)
	}
	act := power.ChipActivity{CoreUtil: idleCoreUtil(chip.BigCluster.NumCores()), CPUActivity: 1, MemTraffic: 0.05}
	return sysid.Settle(r.GT, r.Thermal, chip, act, 4)
}

// Run executes one benchmark (or Options.Script) under one policy: a
// width-1 call into the same lock-step kernel RunBatch drives, so a device
// run alone and the same device run in a batch produce byte-identical
// samples and results. Unlike RunBatch, Run also keeps the §6.3.1
// prediction-accuracy accounting (Result.Pred*, and the "predmax_c" series
// when recording) whenever Options.Model is set, and accepts unscripted
// benchmarks, plain Scripts, and recording.
//
// The context cancels the run between control intervals: on cancellation
// Run returns the partial Result over the completed intervals together
// with an error wrapping both ErrCancelled and the context's cause. With
// an Options.Observer attached, the observer has then seen exactly the
// intervals the partial result (and its recorder, when recording)
// contains.
func (r *Runner) Run(ctx context.Context, opt Options) (*Result, error) {
	// A single run allocates its own scratch instead of drawing on
	// RunBatch's pool: pooled arenas live per P, so a pooled Run's
	// allocation count would depend on which P ran the caller — and
	// BenchmarkSimCell gates that count.
	var arena batchArena
	var res [1]*Result
	err := r.run(ctx, &arena, []Options{opt}, res[:], true)
	return res[0], err
}

// steadyWindow returns the slice of the series after the cold-start ramp:
// from the first sample within 3 °C of tMax, or from 30% of the run when the
// trace never gets that hot.
func steadyWindow(series []float64, tMax float64) []float64 {
	if len(series) == 0 {
		return series
	}
	start := int(0.3 * float64(len(series)))
	for i, v := range series {
		if v >= tMax-3 {
			start = i
			break
		}
	}
	if start >= len(series) {
		start = len(series) - 1
	}
	return series[start:]
}

// applyCoreLimit hotplugs big-cluster cores to match the DTPM limit.
func applyCoreLimit(chip *platform.Chip, lim dtpm.Limits) {
	if chip.ActiveKind() != platform.BigCluster {
		return
	}
	cl := chip.BigCluster
	n := cl.NumCores()
	if lim.OfflineCore >= 0 && cl.OnlineCount() > lim.MaxBigCores {
		_ = cl.SetCoreOnline(lim.OfflineCore, false)
	}
	// Shed further cores if still above the limit (deterministic order).
	for i := n - 1; i >= 0 && cl.OnlineCount() > lim.MaxBigCores; i-- {
		if cl.CoreOnline(i) {
			_ = cl.SetCoreOnline(i, false)
		}
	}
	// Restore cores when allowed.
	for i := 0; i < n && cl.OnlineCount() < lim.MaxBigCores; i++ {
		if !cl.CoreOnline(i) {
			_ = cl.SetCoreOnline(i, true)
		}
	}
}
