// Package governor implements the default cpufreq governors the DTPM
// framework cooperates with (Figure 3.1): ondemand (the paper's default
// configuration, [36]), interactive (the other stock Android governor),
// performance and powersave, plus a utilization-based GPU governor.
// "Existing frequency and idle state governors ... remain intact and feed
// their outputs to the proposed framework" (§3).
package governor

import (
	"fmt"

	"repro/internal/platform"
)

// CPUGovernor decides the next cluster frequency from per-core utilization.
type CPUGovernor interface {
	// Name returns the governor's cpufreq name.
	Name() string
	// Decide returns the desired frequency given the current per-core
	// utilizations (of the ONLINE cores; offline cores are 0; the slice
	// length follows the platform's cluster width) and the current
	// frequency. The result is always a table frequency.
	Decide(util []float64, cur platform.KHz, d *platform.Domain) platform.KHz
	// Reset clears internal state (called on cluster migration).
	Reset()
}

func maxUtil(util []float64) float64 {
	m := util[0]
	for _, u := range util[1:] {
		if u > m {
			m = u
		}
	}
	return m
}

// Ondemand is the classic Linux ondemand governor: jump to the maximum
// frequency when load exceeds the up-threshold, otherwise set the lowest
// frequency that keeps the load just under the threshold. A sampling-down
// factor keeps the frequency high for a few intervals after a burst.
type Ondemand struct {
	// UpThreshold is the load fraction above which the governor jumps to
	// the maximum frequency (Linux default 80%... 95%; Odroid ships 80%).
	UpThreshold float64
	// SamplingDownFactor holds the max frequency for this many intervals
	// after a jump before re-evaluating downscaling.
	SamplingDownFactor int

	holdoff int
}

// NewOndemand returns an ondemand governor with the stock tuning.
func NewOndemand() *Ondemand {
	return &Ondemand{UpThreshold: 0.80, SamplingDownFactor: 3}
}

// Name implements CPUGovernor.
func (g *Ondemand) Name() string { return "ondemand" }

// Reset implements CPUGovernor.
func (g *Ondemand) Reset() { g.holdoff = 0 }

// Decide implements CPUGovernor.
func (g *Ondemand) Decide(util []float64, cur platform.KHz, d *platform.Domain) platform.KHz {
	load := maxUtil(util)
	if load > g.UpThreshold {
		g.holdoff = g.SamplingDownFactor
		return d.MaxFreq()
	}
	if g.holdoff > 0 {
		g.holdoff--
		return cur
	}
	// Proportional scaling: the lowest frequency that would keep the
	// current absolute load below the threshold.
	target := float64(cur) * load / g.UpThreshold
	return d.CeilFreq(platform.KHz(target))
}

// Interactive approximates the Android interactive governor: on a load burst
// it first ramps to a configurable "hispeed" frequency, and only above that
// tracks load toward the maximum; it ramps down lazily.
type Interactive struct {
	GoHispeedLoad float64      // load triggering the hispeed jump
	Hispeed       platform.KHz // first-stage target frequency
	TargetLoad    float64      // steady-state load target

	aboveHispeed int
}

// NewInteractive returns an interactive governor tuned like the stock
// Exynos 5410 configuration (hispeed 1.2 GHz on the big cluster).
func NewInteractive() *Interactive {
	return &Interactive{GoHispeedLoad: 0.85, Hispeed: 1200000, TargetLoad: 0.90}
}

// Name implements CPUGovernor.
func (g *Interactive) Name() string { return "interactive" }

// Reset implements CPUGovernor.
func (g *Interactive) Reset() { g.aboveHispeed = 0 }

// Decide implements CPUGovernor.
func (g *Interactive) Decide(util []float64, cur platform.KHz, d *platform.Domain) platform.KHz {
	load := maxUtil(util)
	hispeed := d.FloorFreq(g.Hispeed)
	if load >= g.GoHispeedLoad {
		if cur < hispeed {
			g.aboveHispeed = 0
			return hispeed
		}
		g.aboveHispeed++
		if g.aboveHispeed >= 2 {
			return d.StepUp(cur)
		}
		return cur
	}
	g.aboveHispeed = 0
	target := float64(cur) * load / g.TargetLoad
	// Lazy ramp down: at most one step per interval.
	want := d.CeilFreq(platform.KHz(target))
	if want < cur {
		return d.StepDown(cur)
	}
	return cur
}

// Performance pins the maximum frequency.
type Performance struct{}

// Name implements CPUGovernor.
func (Performance) Name() string { return "performance" }

// Reset implements CPUGovernor.
func (Performance) Reset() {}

// Decide implements CPUGovernor.
func (Performance) Decide(_ []float64, _ platform.KHz, d *platform.Domain) platform.KHz {
	return d.MaxFreq()
}

// Powersave pins the minimum frequency.
type Powersave struct{}

// Name implements CPUGovernor.
func (Powersave) Name() string { return "powersave" }

// Reset implements CPUGovernor.
func (Powersave) Reset() {}

// Decide implements CPUGovernor.
func (Powersave) Decide(_ []float64, _ platform.KHz, d *platform.Domain) platform.KHz {
	return d.MinFreq()
}

// Names returns the cpufreq governor names ByNameN accepts, in a stable
// order. The position of a name in this list is its wire identifier in
// recorded traces (the "gov_id" series), so the order must never change.
func Names() []string {
	return []string{"ondemand", "interactive", "performance", "powersave"}
}

// Index returns the position of name in Names(), or -1 when unknown.
func Index(name string) int {
	for i, n := range Names() {
		if n == name {
			return i
		}
	}
	return -1
}

// ByNameN constructs n independent instances of the named cpufreq
// governor in one allocation. The batched fleet kernel gives every device
// of a batch its own governor (Ondemand and Interactive carry per-device
// holdoff state) but builds them together, so the slab avoids n small heap
// objects on the stateful kinds; the stateless value kinds cost nothing
// either way.
func ByNameN(name string, n int) ([]CPUGovernor, error) {
	govs := make([]CPUGovernor, n)
	switch name {
	case "ondemand":
		slab := make([]Ondemand, n)
		for i := range slab {
			slab[i] = *NewOndemand()
			govs[i] = &slab[i]
		}
	case "interactive":
		slab := make([]Interactive, n)
		for i := range slab {
			slab[i] = *NewInteractive()
			govs[i] = &slab[i]
		}
	case "performance":
		for i := range govs {
			govs[i] = Performance{}
		}
	case "powersave":
		for i := range govs {
			govs[i] = Powersave{}
		}
	default:
		return nil, fmt.Errorf("governor: unknown governor %q", name)
	}
	return govs, nil
}

// GPU is the utilization-based GPU DVFS governor (the Mali/SGX "dvfs"
// policy): step up when busy, step down when idle, with hysteresis.
type GPU struct {
	UpThreshold   float64
	DownThreshold float64
}

// NewGPU returns the stock GPU governor thresholds.
func NewGPU() *GPU { return &GPU{UpThreshold: 0.75, DownThreshold: 0.35} }

// Decide returns the next GPU frequency for the observed utilization.
func (g *GPU) Decide(util float64, cur platform.KHz, d *platform.Domain) platform.KHz {
	switch {
	case util > g.UpThreshold:
		return d.StepUp(cur)
	case util < g.DownThreshold:
		return d.StepDown(cur)
	default:
		return cur
	}
}
