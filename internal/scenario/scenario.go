// Package scenario is the declarative scenario engine on top of the
// simulator: where the evaluation of §6 runs one benchmark per experiment,
// a scenario strings timed phases together the way a real device is used —
// app switches, screen-off idle gaps, ambient-temperature changes, governor
// swaps mid-run, and thermal-soak preludes — and compiles into a sim.Script
// the existing run loop executes.
//
// Scenarios are data (a small JSON-decodable Spec), so new ones are added
// by declaration, not by writing simulation code; Library holds the named
// ones shipped with the repo. A recorded scenario trace can also be turned
// back into a script with FromTrace and re-fed to the simulator, which is
// the basis of the replay/diff regression workflow.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"repro/internal/governor"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Hard spec bounds: generous for any plausible device scenario, tight
// enough that a fuzzer cannot make Compile produce a multi-day grid.
const (
	// MaxPhases bounds the declared (pre-repeat) phase count.
	MaxPhases = 64
	// MaxRepeat bounds the phase-cycle repeat count.
	MaxRepeat = 100
	// MaxDuration bounds the total compiled duration in seconds (2 h).
	MaxDuration = 2 * 3600
	// MaxScale bounds the per-phase demand multiplier.
	MaxScale = 4
	// MinAmbient / MaxAmbient bound ambient overrides (°C).
	MinAmbient = -40
	MaxAmbient = 120
)

// IdleBenchmark is the phase workload name for a screen-off / idle gap
// (the empty name means the same thing).
const IdleBenchmark = "idle"

// Phase is one timed segment of a scenario.
type Phase struct {
	// Name labels the phase in docs and errors (optional).
	Name string `json:"name,omitempty"`
	// DurationS is the phase length in seconds (required, > 0).
	DurationS float64 `json:"duration_s"`
	// Benchmark is the Table 6.4 workload driven during the phase;
	// "" or "idle" is a screen-off gap (background load only).
	Benchmark string `json:"benchmark,omitempty"`
	// Scale multiplies the benchmark's demand and GPU load (0 = 1.0);
	// 0.4 of a game models its menu screen, 1.0 full gameplay.
	Scale float64 `json:"scale,omitempty"`
	// Governor swaps the cpufreq governor at phase start ("" = keep the
	// one currently active). The swap persists into later phases.
	Governor string `json:"governor,omitempty"`
	// AmbientC moves the ambient temperature at phase start (0 = keep).
	// It also persists until another phase moves it.
	AmbientC float64 `json:"ambient_c,omitempty"`
}

// idle reports whether the phase is a screen-off gap.
func (p Phase) idle() bool { return p.Benchmark == "" || p.Benchmark == IdleBenchmark }

// Spec is a complete declarative scenario.
type Spec struct {
	// Name identifies the scenario (required).
	Name string `json:"name"`
	// Notes documents what the scenario models (optional).
	Notes string `json:"notes,omitempty"`
	// Seed drives the demand jitter; replicate noise (sensors, background
	// load) comes from the run seed instead, so replicates of one scenario
	// share the exact workload.
	Seed int64 `json:"seed,omitempty"`
	// AmbientC is the ambient temperature from t=0 (0 = device default).
	AmbientC float64 `json:"ambient_c,omitempty"`
	// SoakS prepends a thermal-soak prelude: the device sits idle for this
	// long at AmbientC before the first phase (a phone left in the sun
	// before the benchmark starts).
	SoakS float64 `json:"soak_s,omitempty"`
	// Repeat cycles the phase list this many times (0 or 1 = once).
	Repeat int `json:"repeat,omitempty"`
	// Phases is the timed phase sequence (required, non-empty).
	Phases []Phase `json:"phases"`
}

// Validate checks the spec against the package bounds and the workload and
// governor registries.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	if len(s.Phases) == 0 {
		return fmt.Errorf("scenario %s: no phases", s.Name)
	}
	if len(s.Phases) > MaxPhases {
		return fmt.Errorf("scenario %s: %d phases exceeds the limit of %d", s.Name, len(s.Phases), MaxPhases)
	}
	if s.Repeat < 0 || s.Repeat > MaxRepeat {
		return fmt.Errorf("scenario %s: repeat %d out of range [0, %d]", s.Name, s.Repeat, MaxRepeat)
	}
	if !finiteIn(s.SoakS, 0, MaxDuration) {
		return fmt.Errorf("scenario %s: soak_s %g out of range [0, %d]", s.Name, s.SoakS, MaxDuration)
	}
	if s.AmbientC != 0 && !finiteIn(s.AmbientC, MinAmbient, MaxAmbient) {
		return fmt.Errorf("scenario %s: ambient_c %g out of range [%d, %d]", s.Name, s.AmbientC, MinAmbient, MaxAmbient)
	}
	cycle := 0.0
	for i, p := range s.Phases {
		if !finiteIn(p.DurationS, 1e-9, MaxDuration) || p.DurationS <= 0 {
			return fmt.Errorf("scenario %s: phase %d (%s) duration_s %g must be positive and at most %d", s.Name, i, p.Name, p.DurationS, MaxDuration)
		}
		if !p.idle() {
			if _, err := workload.ByName(p.Benchmark); err != nil {
				return fmt.Errorf("scenario %s: phase %d (%s): %w", s.Name, i, p.Name, err)
			}
		}
		if p.Scale != 0 && !finiteIn(p.Scale, 0, MaxScale) {
			return fmt.Errorf("scenario %s: phase %d (%s) scale %g out of range (0, %d]", s.Name, i, p.Name, p.Scale, MaxScale)
		}
		if p.Governor != "" && governor.Index(p.Governor) < 0 {
			return fmt.Errorf("scenario %s: phase %d (%s): unknown governor %q", s.Name, i, p.Name, p.Governor)
		}
		if p.AmbientC != 0 && !finiteIn(p.AmbientC, MinAmbient, MaxAmbient) {
			return fmt.Errorf("scenario %s: phase %d (%s) ambient_c %g out of range [%d, %d]", s.Name, i, p.Name, p.AmbientC, MinAmbient, MaxAmbient)
		}
		cycle += p.DurationS
	}
	repeat := s.Repeat
	if repeat < 1 {
		repeat = 1
	}
	if total := s.SoakS + float64(repeat)*cycle; total > MaxDuration {
		return fmt.Errorf("scenario %s: total duration %.0f s exceeds the limit of %d s", s.Name, total, MaxDuration)
	}
	return nil
}

// Perturbed returns a copy of the spec with its workload-jitter seed
// replaced and its entire ambient profile shifted by shiftC °C — the base
// ambient and every per-phase override move together, so a hot room stays
// hot through the whole scenario. A spec whose base ambient is 0 (device
// default) anchors the shift at defaultC, the platform's nominal ambient.
// It is the fleet engine's per-cell perturbation hook: phases, repeats,
// and soak are otherwise unchanged, so two perturbed copies of one
// scenario differ only in the demand-jitter stream and the thermal
// environment — exactly the axes a device population varies on.
func (s Spec) Perturbed(seed int64, shiftC, defaultC float64) Spec {
	s.Seed = seed
	if shiftC == 0 {
		return s
	}
	// An ambient field of exactly 0 means "device default" / "keep", so a
	// shift that lands precisely on 0 °C would silently change semantics;
	// nudge it by a sub-sensor-resolution epsilon instead.
	shifted := func(v float64) float64 {
		v += shiftC
		if v == 0 {
			v = 1e-9
		}
		return v
	}
	base := s.AmbientC
	if base == 0 {
		base = defaultC
	}
	s.AmbientC = shifted(base)
	phases := make([]Phase, len(s.Phases))
	copy(phases, s.Phases)
	for i := range phases {
		if phases[i].AmbientC != 0 {
			phases[i].AmbientC = shifted(phases[i].AmbientC)
		}
	}
	s.Phases = phases
	return s
}

// ValidateFor checks the spec against one platform profile on top of the
// platform-independent Validate: every phase's workload must be
// schedulable on the platform without permanent oversubscription (thread
// count at most twice the widest cluster — beyond that the phase can never
// retire its demand and its metrics are meaningless). A nil descriptor
// validates against the default platform.
func ValidateFor(s Spec, d *platform.Descriptor) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if d == nil {
		d = platform.Default()
	}
	maxThreads := 2 * d.MaxClusterCores()
	for i, p := range s.Phases {
		if p.idle() {
			continue
		}
		b, err := workload.ByName(p.Benchmark)
		if err != nil {
			return fmt.Errorf("scenario %s: phase %d (%s): %w", s.Name, i, p.Name, err)
		}
		if b.Threads > maxThreads {
			return fmt.Errorf("scenario %s: phase %d (%s): benchmark %s needs %d threads but platform %s schedules at most %d (2x its widest cluster)",
				s.Name, i, p.Name, b.Name, b.Threads, d.Name, maxThreads)
		}
	}
	return nil
}

// ParseJSON decodes and validates a scenario spec. Unknown fields and
// trailing data are errors: a typo in a spec file must not silently become
// a default.
func ParseJSON(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: %w", err)
	}
	if dec.More() {
		return Spec{}, fmt.Errorf("scenario: trailing data after spec")
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// cphase is one flattened (soak + repeat expanded) phase with resolved
// workload parameters and absolute timing.
type cphase struct {
	start, dur float64
	idle       bool
	bench      workload.Benchmark
	scale      float64
	governor   string
	ambient    float64
	index      int // position in the flattened sequence (jitter stream id)
}

// Compiled is an executable scenario; it implements sim.Script. All methods
// are pure functions of their arguments, which is what makes a recorded
// scenario trace exactly replayable.
type Compiled struct {
	name     string
	seed     int64
	workers  int
	duration float64
	phases   []cphase
	starts   []float64 // phase start times, for binary search
}

// Compile validates the spec and flattens it — soak prelude prepended,
// repeat cycles expanded, workload parameters resolved — into a sim.Script.
func Compile(s Spec) (*Compiled, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	c := &Compiled{name: s.Name, seed: s.Seed}
	add := func(p Phase) error {
		cp := cphase{
			start:    c.duration,
			dur:      p.DurationS,
			idle:     p.idle(),
			scale:    p.Scale,
			governor: p.Governor,
			ambient:  p.AmbientC,
			index:    len(c.phases),
		}
		if cp.scale == 0 {
			cp.scale = 1
		}
		if !cp.idle {
			b, err := workload.ByName(p.Benchmark)
			if err != nil {
				return err
			}
			cp.bench = b
			if b.Threads > c.workers {
				c.workers = b.Threads
			}
		}
		c.phases = append(c.phases, cp)
		c.starts = append(c.starts, cp.start)
		c.duration += p.DurationS
		return nil
	}
	if s.SoakS > 0 {
		if err := add(Phase{Name: "soak", DurationS: s.SoakS, AmbientC: s.AmbientC}); err != nil {
			return nil, err
		}
	} else if s.AmbientC != 0 && len(s.Phases) > 0 && s.Phases[0].AmbientC == 0 {
		// No soak: fold the base ambient into the first phase.
		s.Phases = append([]Phase(nil), s.Phases...)
		s.Phases[0].AmbientC = s.AmbientC
	}
	repeat := s.Repeat
	if repeat < 1 {
		repeat = 1
	}
	for r := 0; r < repeat; r++ {
		for _, p := range s.Phases {
			if err := add(p); err != nil {
				return nil, err
			}
		}
	}
	return c, nil
}

// Name implements sim.Script.
func (c *Compiled) Name() string { return c.name }

// Duration implements sim.Script.
func (c *Compiled) Duration() float64 { return c.duration }

// Workers implements sim.Script: the widest phase's thread count.
func (c *Compiled) Workers() int { return c.workers }

// Phases returns the flattened phase count (soak + repeats expanded).
func (c *Compiled) Phases() int { return len(c.phases) }

// phaseAt returns the phase containing time t, clamping to the first and
// last phases outside the scripted window. Binary search keeps the lookup
// O(log phases): it runs several times per control step, and a spec at the
// bounds flattens to thousands of phases.
func (c *Compiled) phaseAt(t float64) *cphase {
	// First start strictly greater than t, minus one = containing phase.
	i := sort.SearchFloat64s(c.starts, t)
	if i < len(c.starts) && c.starts[i] == t {
		return &c.phases[i]
	}
	if i == 0 {
		return &c.phases[0]
	}
	return &c.phases[i-1]
}

// Conditions returns every non-demand quantity the scenario dictates at
// time t (SharedStep's Cond).
func (c *Compiled) Conditions(t float64) sim.Conditions {
	p := c.phaseAt(t)
	cond := sim.Conditions{Governor: p.governor, AmbientC: p.ambient}
	if p.idle {
		// Background daemons are ordinary integer code.
		cond.CPUActivity = 1
		return cond
	}
	cond.CPUActivity = p.bench.CPUActivity
	cond.GPUActivity = p.bench.GPUActivity
	cond.MemTraffic = p.bench.MemTraffic
	cond.MemBound = p.bench.MemBound
	if p.bench.GPUUtil > 0 {
		tl := t - p.start
		u := p.bench.GPUUtil * p.scale * (1 + 0.15*math.Sin(2*math.Pi*tl/3.3))
		cond.GPUDemand = clamp01(u)
	}
	return cond
}

// jitter returns a deterministic pseudo-random value in [-1, 1) from a
// splitmix64-style finalizer over the stream coordinates.
func jitter(seed, phase, worker, step int64) float64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(phase)*0xbf58476d1ce4e5b9 +
		uint64(worker)*0x94d049bb133111eb + uint64(step)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11)/float64(1<<52) - 1
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

func finiteIn(v, lo, hi float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= lo && v <= hi
}
