package repro

import (
	"fmt"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Spec is the unified description of one simulation run, shared by every
// execution mode: a plain benchmark, a multi-phase scenario, a recorded
// trace replayed as the workload source, and the cells of a campaign all
// run from the same knobs. Build one with NewSpec from functional options:
//
//	spec := repro.NewSpec(
//	    repro.WithBenchmark("templerun"),
//	    repro.WithPolicy(repro.DTPM),
//	    repro.WithModels(models),
//	    repro.WithSeed(1),
//	)
//	session, err := dev.Start(ctx, spec)
//
// Exactly one workload option — WithBenchmark, WithScenario,
// WithScenarioSpec, or WithTrace — must be given; everything else defaults
// to the paper's configuration. The zero Spec is not runnable.
//
// The migration table in docs/api.md maps every field of the removed batch
// run structs to its option.
type Spec struct {
	policy   Policy
	models   *Models
	seed     int64
	tmax     float64
	governor string
	record   bool
	period   float64
	observer func(Sample)

	bench    string
	scenario string
	scenSpec *ScenarioSpec
	trace    *trace.Recorder
}

// Option configures one aspect of a Spec.
type Option func(*Spec)

// NewSpec builds a run spec from options. Later options override earlier
// ones, so a base spec can be extended: NewSpec(append(base, extra...)...).
func NewSpec(opts ...Option) Spec {
	var s Spec
	for _, o := range opts {
		o(&s)
	}
	return s
}

// WithPolicy selects the thermal-management configuration (default
// WithFan, the stock device).
func WithPolicy(p Policy) Option { return func(s *Spec) { s.policy = p } }

// WithModels supplies the Chapter 4 characterization. Required for the
// DTPM policy; under any other policy it enables the §6.3.1
// prediction-accuracy accounting.
func WithModels(m *Models) Option { return func(s *Spec) { s.models = m } }

// WithSeed fixes the sensor-noise and background-load realization
// (default 0).
func WithSeed(seed int64) Option { return func(s *Spec) { s.seed = seed } }

// WithTMax overrides the thermal constraint in °C (0 = the paper's 63).
func WithTMax(tmax float64) Option { return func(s *Spec) { s.tmax = tmax } }

// WithGovernor sets the initial cpufreq governor ("" = ondemand; also:
// interactive, performance, powersave). Scenario phases may swap it
// mid-run.
func WithGovernor(name string) Option { return func(s *Spec) { s.governor = name } }

// WithRecord retains the full time traces in Result.Rec. Trace replays
// always record, with or without this option.
func WithRecord(on bool) Option { return func(s *Spec) { s.record = on } }

// WithControlPeriod overrides the kernel control period in seconds (0 =
// the paper's 100 ms). Replays default to the period the trace was
// recorded at.
func WithControlPeriod(sec float64) Option { return func(s *Spec) { s.period = sec } }

// WithObserver attaches a callback invoked synchronously at the end of
// every control interval with that interval's Sample — the callback form
// of Session.Samples. It runs on the simulation goroutine: keep it cheap,
// or the run slows to its pace.
func WithObserver(fn func(Sample)) Option { return func(s *Spec) { s.observer = fn } }

// WithBenchmark selects a Table 6.4 benchmark (see Benchmarks()) as the
// workload.
func WithBenchmark(name string) Option {
	return func(s *Spec) {
		s.bench, s.scenario, s.scenSpec, s.trace = name, "", nil, nil
	}
}

// WithScenario selects a named library scenario (see Scenarios()) as the
// workload.
func WithScenario(name string) Option {
	return func(s *Spec) {
		s.bench, s.scenario, s.scenSpec, s.trace = "", name, nil, nil
	}
}

// WithScenarioSpec runs a custom declarative scenario as the workload.
func WithScenarioSpec(spec *ScenarioSpec) Option {
	return func(s *Spec) {
		s.bench, s.scenario, s.scenSpec, s.trace = "", "", spec, nil
	}
}

// WithTrace re-feeds a recorded scenario trace (Result.Rec or ReadTrace)
// as the workload demand source. The trace supplies the workload and the
// control period; the run always records, so the fresh trace can be
// diffed against the recording (see Device.ReplayTrace).
func WithTrace(rec *trace.Recorder) Option {
	return func(s *Spec) {
		s.bench, s.scenario, s.scenSpec, s.trace = "", "", nil, rec
	}
}

// withPolicyOverride returns a copy of the spec under a different policy —
// the Compare sweep's per-policy override.
func (s Spec) withPolicyOverride(p Policy) Spec {
	s.policy = p
	return s
}

// compile resolves the spec against a device into executable sim options.
// All validation happens here — unknown names, platform mismatches, and
// ambiguous workload declarations fail before a goroutine is spawned.
func (s Spec) compile(d *Device) (sim.Options, error) {
	declared := 0
	for _, set := range []bool{s.bench != "", s.scenario != "", s.scenSpec != nil, s.trace != nil} {
		if set {
			declared++
		}
	}
	if declared == 0 {
		return sim.Options{}, fmt.Errorf("repro: spec declares no workload: use WithBenchmark, WithScenario, WithScenarioSpec, or WithTrace")
	}
	if declared > 1 {
		return sim.Options{}, fmt.Errorf("repro: spec declares %d workload sources; WithBenchmark, WithScenario, WithScenarioSpec, and WithTrace are alternatives", declared)
	}
	opt := sim.Options{
		Policy:        s.policy,
		Seed:          s.seed,
		TMax:          s.tmax,
		Governor:      s.governor,
		ControlPeriod: s.period,
		Record:        s.record,
		Observer:      s.observer,
	}
	switch {
	case s.bench != "":
		b, err := workload.ByName(s.bench)
		if err != nil {
			return sim.Options{}, err
		}
		opt.Bench = b
	case s.scenario != "" || s.scenSpec != nil:
		sc := s.scenSpec
		if sc == nil {
			named, err := scenario.ByName(s.scenario)
			if err != nil {
				return sim.Options{}, err
			}
			sc = &named
		}
		if err := scenario.ValidateFor(*sc, d.r.Desc); err != nil {
			return sim.Options{}, err
		}
		script, err := scenario.Compile(*sc)
		if err != nil {
			return sim.Options{}, err
		}
		opt.Script = script
	case s.trace != nil:
		script, err := scenario.FromTrace(s.trace, "replay")
		if err != nil {
			return sim.Options{}, err
		}
		opt.Script = script
		if opt.ControlPeriod == 0 {
			// Replay on the grid the trace was recorded at; any other
			// period can never reproduce it.
			opt.ControlPeriod = script.Period()
		}
		// The fresh trace is the replay's entire point (the diff needs it).
		opt.Record = true
	}
	if s.models != nil {
		opt.Model = s.models.c.Thermal
		opt.PowerModel = s.models.c.Power
	}
	return opt, nil
}
