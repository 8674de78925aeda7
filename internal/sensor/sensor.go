// Package sensor models the measurement infrastructure of §6.1.2: the
// per-core temperature sensors (TMU) on the big cluster, the built-in INA231
// power sensors for the big cluster, little cluster, GPU, and memory rails,
// and the external power meter that logs total platform power.
//
// Real sensors quantize and add noise; both effects are modelled so the
// run-time models (package power, package sysid) are fitted from imperfect
// data exactly as on hardware. All randomness is seeded for reproducibility.
package sensor

import (
	"math"
	"math/rand"

	"repro/internal/platform"
)

// Config describes sensor imperfections. The zero Config is ideal:
// noiseless, unquantized readings.
type Config struct {
	// TempNoiseStd is the standard deviation of temperature readings (°C).
	TempNoiseStd float64
	// TempQuantum is the temperature quantization step (°C). The Exynos TMU
	// reports whole degrees; we default to a finer effective resolution
	// because the paper averages multiple readings per control interval.
	TempQuantum float64
	// PowerNoiseStd is the relative (fractional) noise of power readings.
	PowerNoiseStd float64
	// PowerQuantum is the power quantization step (W); INA231 sensors
	// resolve to a few milliwatts.
	PowerQuantum float64
}

// DefaultConfig returns realistic sensor imperfection values.
func DefaultConfig() Config {
	return Config{
		TempNoiseStd:  0.20,
		TempQuantum:   0.10,
		PowerNoiseStd: 0.01,
		PowerQuantum:  0.005,
	}
}

// Bank is a set of sensors sharing one noise source.
type Bank struct {
	cfg Config
	rng *rand.Rand
}

// NewBank creates a sensor bank with a deterministic seed.
func NewBank(cfg Config, seed int64) *Bank {
	return &Bank{cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// Reseed rewinds the bank to the state NewBank(cfg, seed) produces — the
// recycling hook for batch arenas. rand.Rand.Seed resets both the source
// and the buffered-read state, so a reseeded bank's reading stream is
// bit-identical to a fresh bank's.
func (b *Bank) Reseed(cfg Config, seed int64) {
	b.cfg = cfg
	b.rng.Seed(seed)
}

func quantize(v, q float64) float64 {
	if q <= 0 {
		return v
	}
	return math.Round(v/q) * q
}

// ReadTemp returns one temperature reading for a true value (°C).
func (b *Bank) ReadTemp(trueC float64) float64 {
	v := trueC
	if b.cfg.TempNoiseStd > 0 {
		v += b.rng.NormFloat64() * b.cfg.TempNoiseStd
	}
	return quantize(v, b.cfg.TempQuantum)
}

// ReadCoreTempsInto reads the big-cluster hotspot sensors, one per core
// node: len(trueC) readings into dst (which must be at least that long),
// returning dst[:len(trueC)]. dst may be trueC itself: each true value is
// read before its reading is written.
func (b *Bank) ReadCoreTempsInto(dst, trueC []float64) []float64 {
	dst = dst[:len(trueC)]
	for i, t := range trueC {
		dst[i] = b.ReadTemp(t)
	}
	return dst
}

// ReadPower returns one power reading for a true value (W). Readings are
// clamped at zero: the INA231 never reports negative rail power.
func (b *Bank) ReadPower(trueW float64) float64 {
	v := trueW
	if b.cfg.PowerNoiseStd > 0 {
		v *= 1 + b.rng.NormFloat64()*b.cfg.PowerNoiseStd
	}
	v = quantize(v, b.cfg.PowerQuantum)
	if v < 0 {
		v = 0
	}
	return v
}

// ReadDomainPowers reads the four rail power sensors in the order of the
// paper's P vector (Eq. 5.3): big, little, GPU, mem.
func (b *Bank) ReadDomainPowers(trueW [platform.NumResources]float64) [platform.NumResources]float64 {
	var out [platform.NumResources]float64
	for i, w := range trueW {
		out[i] = b.ReadPower(w)
	}
	return out
}
