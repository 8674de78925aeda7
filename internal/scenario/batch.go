package scenario

import (
	"math"
	"strconv"

	"repro/internal/sim"
)

// Compiled's per-interval view (sim.Script): a fleet batch of cells
// running one scenario shape shares the per-interval phase lookup,
// waveform modulation, and conditions read, leaving only the per-device
// jitter factor and ambient override to per-device evaluation.

// SharedStep implements sim.Script. DemandBase is the per-worker demand
// before the jitter multiply: the benchmark demand times the phase scale,
// times the waveform modulation when the benchmark has one. The waveform
// mirrors the benchmark demand generator's phase modulation but is a pure
// function of (phase, time), so any instant can be re-queried exactly.
func (c *Compiled) SharedStep(t float64) sim.SharedStep {
	p := c.phaseAt(t)
	sh := sim.SharedStep{
		Time:       t,
		Cond:       c.Conditions(t),
		Idle:       p.idle,
		PhaseIndex: p.index,
		PhaseStart: p.start,
	}
	if !p.idle {
		sh.Threads = p.bench.Threads
		d := p.bench.Demand * p.scale
		if p.bench.PhasePeriod > 0 && p.bench.PhaseAmp > 0 {
			phase := math.Sin(2 * math.Pi * (t - p.start) / p.bench.PhasePeriod)
			d *= 1 + p.bench.PhaseAmp*math.Tanh(3*phase)
		}
		sh.DemandBase = d
	}
	return sh
}

// WorkerDemand implements sim.Script: the device-independent base read
// from sh with only this scenario's jitter applied. The jitter is a
// counter hash of (seed, phase, worker, step) instead of a stateful RNG,
// so the demand stays a pure function of its arguments.
func (c *Compiled) WorkerDemand(sh *sim.SharedStep, i int) float64 {
	if sh.Idle || i < 0 || i >= sh.Threads {
		return 0
	}
	tl := sh.Time - sh.PhaseStart
	d := sh.DemandBase
	d *= 1 + 0.05*jitter(c.seed, int64(sh.PhaseIndex), int64(i), int64(tl/0.1))
	return clamp01(d)
}

// AmbientAt implements sim.Script: this scenario's ambient override
// for the shared step's phase (Conditions(sh.Time).AmbientC).
func (c *Compiled) AmbientAt(sh *sim.SharedStep) float64 {
	return c.phases[sh.PhaseIndex].ambient
}

// ShapeSignature implements sim.Script. Two compiled scenarios with
// equal signatures have identical flattened phase grids, workloads,
// scales, and governor swaps — everything the lock-step batch kernel
// shares — while the signature deliberately excludes the jitter seed and
// the ambient profile, the two axes Perturbed varies per fleet cell.
// Floats are fingerprinted by their exact bit patterns: shapes must match
// bitwise, not approximately.
func (c *Compiled) ShapeSignature() string {
	// One grown []byte and strconv's Append forms: the batch kernel
	// fingerprints every device in a unit, so this sits on the fleet's
	// per-cell path and must not allocate per field.
	buf := make([]byte, 0, 64+48*len(c.phases))
	bits := func(v float64) {
		buf = strconv.AppendUint(buf, math.Float64bits(v), 16)
		buf = append(buf, ',')
	}
	buf = append(buf, c.name...)
	buf = append(buf, '|')
	buf = strconv.AppendInt(buf, int64(c.workers), 10)
	buf = append(buf, '|')
	bits(c.duration)
	for i := range c.phases {
		p := &c.phases[i]
		buf = append(buf, ';')
		bits(p.start)
		bits(p.dur)
		if p.idle {
			buf = append(buf, 'i')
		} else {
			buf = append(buf, p.bench.Name...)
		}
		buf = append(buf, ',')
		bits(p.scale)
		buf = append(buf, p.governor...)
	}
	return string(buf)
}
