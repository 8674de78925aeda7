// Package power implements the paper's power modeling methodology (§4.1).
//
// It contains two layers:
//
//   - GroundTruth: the "silicon" — the power the simulated chip actually
//     draws, with the functional forms the paper establishes empirically:
//     exponential temperature-dependent leakage (Eq. 4.2) and
//     frequency/voltage-dependent dynamic power (Eq. 4.1). This plays the
//     role of the physical Exynos 5410 and is what the sensors observe.
//
//   - Model: the run-time power model implemented inside the kernel
//     (Figures 4.3-4.4) — a fitted leakage law per resource plus continuous
//     αC (activity factor x switching capacitance) extraction from sensor
//     readings, used to predict power before a DVFS decision is applied.
package power

import (
	"fmt"
	"math"

	"repro/internal/platform"
)

// CelsiusToKelvin converts °C to K for the leakage law.
func CelsiusToKelvin(c float64) float64 { return c + 273.15 }

// LeakageParams are the condensed leakage-law parameters of Equation 4.2:
//
//	I_leak(T) = C1 * T^2 * exp(C2 / T) + IGate      (T in kelvin)
//
// The leakage current additionally scales linearly with supply voltage
// around the nominal point, and leakage power is V * I_leak.
type LeakageParams struct {
	C1    float64 // A/K^2
	C2    float64 // K (negative: leakage grows with temperature)
	IGate float64 // A, gate-leakage floor
	VNom  float64 // volts, nominal voltage the parameters were extracted at
}

// Power returns the leakage power in watts: V * I_leak(T, V).
func (p LeakageParams) Power(tC, v float64) float64 { return p.At(tC).Power(v) }

// At evaluates the temperature term of the leakage law once, so a caller
// that needs the law at one temperature for several voltages (a DVFS table
// walk, the cores of a cluster sharing one node) pays for one exponential.
func (p LeakageParams) At(tC float64) Leakage {
	tk := CelsiusToKelvin(tC)
	sub := p.C1 * tk * tk * math.Exp(p.C2/tk)
	return Leakage{cur: sub + p.IGate, vNom: p.VNom}
}

// Leakage is a leakage law evaluated at one temperature: what
// LeakageParams.At returns. Its Current and Power are the law's, bit for
// bit, at that temperature. (Two scalar fields, so it stays in registers
// across the hot loops that carry it.)
type Leakage struct {
	cur  float64 // C1 * T^2 * exp(C2 / T) + IGate: the current at VNom
	vNom float64
}

// Current returns the leakage current in amperes at supply voltage v.
func (l Leakage) Current(v float64) float64 {
	scale := 1.0
	if l.vNom > 0 {
		scale = v / l.vNom
	}
	return l.cur * scale
}

// Power returns the leakage power in watts at supply voltage v.
func (l Leakage) Power(v float64) float64 { return v * l.Current(v) }

// ResourceParams hold the ground-truth per-resource constants.
type ResourceParams struct {
	Leak LeakageParams
	// AlphaC is the nominal activity-factor x switching-capacitance product
	// (farads) at 100% utilization. Per core for CPU clusters, total for
	// GPU and memory.
	AlphaC float64
}

// GroundTruth is the silicon power model of the whole platform.
type GroundTruth struct {
	Res [platform.NumResources]ResourceParams
	// MemStatic is the always-on DRAM background power in watts.
	MemStatic float64
	// MemPerActivity converts combined CPU+GPU memory traffic activity
	// (0..~2) into watts.
	MemPerActivity float64
	// Base is the rest-of-platform power (display, WiFi, board) in watts,
	// included in the external power-meter reading only.
	Base float64
	// BaseBoardHeat is the fraction of Base (in watts) dissipated inside
	// the enclosure close enough to the SoC to heat the board node
	// (display driver, PMIC losses). It keeps the idle platform warm
	// (~47 C core), matching where the paper's measured traces start.
	BaseBoardHeat float64
	// FanMax is the fan power draw at 100% speed in watts.
	FanMax float64
}

// DefaultGroundTruth returns the default platform's (Exynos 5410) silicon
// constants, calibrated so that the simulated platform reproduces the
// paper's measured ranges:
//
//   - big-cluster leakage 0.12 W at 40 °C rising to ~0.33 W at 80 °C at
//     1.6 GHz/1.25 V (Figures 4.3 and 4.5),
//   - big-cluster dynamic power up to ~2.6 W with all four cores fully
//     loaded at 1.6 GHz (Figure 4.8 shows ~2.8 W total cluster power),
//   - ~30x total power range between 4 big cores at max frequency and one
//     little core at min frequency (§1),
//   - ~0.7 W of platform-level savings corresponding to the paper's 14%
//     high-activity figure (§6.3.3).
//
// The numbers themselves live in the exynos5410 platform descriptor.
func DefaultGroundTruth() *GroundTruth {
	return GroundTruthFor(platform.Default())
}

// GroundTruthFor builds the silicon power model from a platform
// descriptor's ground-truth constants.
func GroundTruthFor(d *platform.Descriptor) *GroundTruth {
	g := &GroundTruth{
		MemStatic:      d.Power.MemStatic,
		MemPerActivity: d.Power.MemPerActivity,
		Base:           d.Power.Base,
		BaseBoardHeat:  d.Power.BaseBoardHeat,
		FanMax:         d.Power.FanMax,
	}
	for r := range g.Res {
		spec := d.Power.Domains[r]
		g.Res[r] = ResourceParams{Leak: LeakageParams(spec.Leak), AlphaC: spec.AlphaC}
	}
	return g
}

// Dynamic returns the dynamic power (watts) of one unit of resource r at
// voltage v, frequency f, and utilization u in [0, 1] scaled by the
// workload's relative activity factor act (1.0 = nominal): Eq. 4.1's
// alpha*C*V^2*f term.
func (g *GroundTruth) Dynamic(r platform.Resource, v float64, f platform.KHz, u, act float64) float64 {
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	return g.Res[r].AlphaC * act * u * v * v * f.Hz()
}

// Leakage returns the leakage power (watts) of resource r at temperature tC
// and voltage v. For CPU clusters this is the whole-cluster leakage when all
// cores are powered; scale by the online fraction for hotplugged cores.
func (g *GroundTruth) Leakage(r platform.Resource, tC, v float64) float64 {
	return g.Res[r].Leak.Power(tC, v)
}

// MemPower returns memory power given a combined traffic activity level.
func (g *GroundTruth) MemPower(tC, trafficActivity float64) float64 {
	if trafficActivity < 0 {
		trafficActivity = 0
	}
	leak := g.Res[platform.Mem].Leak.Power(tC, g.Res[platform.Mem].Leak.VNom)
	return g.MemStatic + g.MemPerActivity*trafficActivity + leak
}

// FanPower returns the fan power draw at the given speed fraction [0, 1].
// Small DC fan draw grows superlinearly with duty (P â speed^1.5 sits
// between the linear motor-loss and cubic aerodynamic regimes): the
// always-on idle duty costs a few tens of milliwatts while 100% duty
// costs the full FanMax.
func (g *GroundTruth) FanPower(speed float64) float64 {
	if speed <= 0 {
		return 0
	}
	if speed > 1 {
		speed = 1
	}
	return g.FanMax * speed * math.Sqrt(speed)
}

// Breakdown is an instantaneous power accounting for the four SoC domains
// plus platform-level components.
type Breakdown struct {
	Domain  [platform.NumResources]float64 // watts per SoC power domain
	Fan     float64                        // watts
	Base    float64                        // watts (display, board, radios)
	Leakage [platform.NumResources]float64 // leakage portion of Domain
}

// SoC returns the summed SoC power (the four sensor-visible domains).
func (b Breakdown) SoC() float64 {
	s := 0.0
	for _, v := range b.Domain {
		s += v
	}
	return s
}

// Platform returns the total platform power (external power meter reading).
func (b Breakdown) Platform() float64 { return b.SoC() + b.Fan + b.Base }

// String summarizes the breakdown.
func (b Breakdown) String() string {
	return fmt.Sprintf("big=%.3fW little=%.3fW gpu=%.3fW mem=%.3fW fan=%.3fW base=%.3fW total=%.3fW",
		b.Domain[platform.Big], b.Domain[platform.Little], b.Domain[platform.GPU],
		b.Domain[platform.Mem], b.Fan, b.Base, b.Platform())
}

// ChipActivity describes the instantaneous activity of the chip needed to
// evaluate ground-truth power: utilization and workload activity factors for
// each resource and per-core utilization for the active CPU cluster.
type ChipActivity struct {
	// CoreUtil is the utilization [0,1] of each core of the ACTIVE cluster;
	// offline cores must be 0. Its length must cover the active cluster's
	// core count (extra entries are ignored).
	CoreUtil []float64
	// CPUActivity is the workload's relative activity factor on the CPU.
	CPUActivity float64
	// GPUUtil is the GPU utilization [0,1] and GPUActivity its relative
	// activity factor.
	GPUUtil     float64
	GPUActivity float64
	// MemTraffic is the combined memory traffic activity level (0..~2).
	MemTraffic float64
	// FanSpeed is the current fan speed fraction [0,1].
	FanSpeed float64
}

// Evaluate computes the ground-truth power breakdown for the given chip
// configuration, activity, and temperatures. coreTemps are the big-cluster
// hotspot temperatures (°C) used for big-cluster leakage; boardTemp (°C) is
// used for the other domains. Per-core leakage uses each core's own hotspot
// temperature, which is what makes the leakage-temperature loop (§4.1.1)
// visible to the DTPM algorithm.
func (g *GroundTruth) Evaluate(chip *platform.Chip, act ChipActivity, coreTemps []float64, boardTemp float64) Breakdown {
	var b Breakdown
	b.Base = g.Base
	b.Fan = g.FanPower(act.FanSpeed)

	active := chip.Active()
	v := active.Volt()
	f := active.Freq()

	// Active cluster: per-core dynamic power plus per-core leakage share.
	var dyn, leak float64
	res := platform.Big
	if active.Kind == platform.LittleCluster {
		res = platform.Little
	}
	nc := active.NumCores()
	for i := 0; i < nc; i++ {
		if !active.CoreOnline(i) {
			continue
		}
		dyn += g.Dynamic(res, v, f, act.CoreUtil[i], act.CPUActivity)
		t := boardTemp
		if res == platform.Big {
			t = coreTemps[i]
		}
		leak += g.Leakage(res, t, v) / float64(nc)
	}
	b.Domain[res] = dyn + leak
	b.Leakage[res] = leak

	// Inactive cluster is power gated: a tiny residual leakage remains.
	inactive := platform.Little
	if res == platform.Little {
		inactive = platform.Big
	}
	residual := 0.02 * g.Leakage(inactive, boardTemp, g.Res[inactive].Leak.VNom)
	b.Domain[inactive] = residual
	b.Leakage[inactive] = residual

	// GPU.
	gv := chip.GPUVolt()
	gleak := g.Leakage(platform.GPU, boardTemp, gv)
	b.Domain[platform.GPU] = g.Dynamic(platform.GPU, gv, chip.GPUFreq(), act.GPUUtil, act.GPUActivity) + gleak
	b.Leakage[platform.GPU] = gleak

	// Memory.
	mleak := g.Res[platform.Mem].Leak.Power(boardTemp, g.Res[platform.Mem].Leak.VNom)
	b.Domain[platform.Mem] = g.MemPower(boardTemp, act.MemTraffic)
	b.Leakage[platform.Mem] = mleak

	return b
}
