// Package workload models the benchmarks of Table 6.4: eleven MiBench
// programs, three common Android game/video applications, and the
// self-written multi-threaded matrix multiplication, plus the LU benchmark
// used in the multi-threaded evaluation (Figure 6.10).
//
// Each benchmark is a synthetic load model: worker threads that demand CPU
// cycles (with benchmark-specific phase behaviour), a relative switching
// activity factor, and GPU/memory activity. Demands are generated from a
// per-benchmark seeded RNG so every experiment is reproducible.
//
// The model reproduces the properties the evaluation depends on: the
// low/medium/high CPU-power classes of Table 6.4, GPU usage for the game
// and video workloads, and multi-threaded scaling for matrix multiply, FFT
// and LU.
package workload

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
)

// Class is the paper's comparative CPU-power category (Table 6.4).
type Class int

// The three activity classes.
const (
	Low Class = iota
	Medium
	High
)

func (c Class) String() string {
	switch c {
	case Low:
		return "low"
	case Medium:
		return "medium"
	case High:
		return "high"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// RefCapacity is the reference execution capacity against which demands are
// expressed: one A15 core at the maximum big-cluster frequency (cycles/s).
const RefCapacity = 1.6e9

// Benchmark describes one entry of Table 6.4.
type Benchmark struct {
	Name  string
	Type  string // benchmark suite category (Security, Network, ...)
	Class Class

	// Threads is the number of worker threads carrying the foreground work.
	Threads int
	// WorkPerThread is each worker's total work in cycles at reference IPC.
	WorkPerThread float64
	// Demand is each worker's average demanded fraction of RefCapacity.
	Demand float64
	// PhasePeriod and PhaseAmp shape the utilization phases: demand is
	// modulated by (1 + PhaseAmp * square/sine wave of the given period).
	PhasePeriod float64
	PhaseAmp    float64
	// CPUActivity is the workload's switching-activity factor relative to
	// the nominal alphaC (1.0 = typical integer code).
	CPUActivity float64
	// GPUUtil / GPUActivity describe GPU load (games and video).
	GPUUtil     float64
	GPUActivity float64
	// MemTraffic is the memory traffic activity level (0..~2).
	MemTraffic float64
	// MemBound in [0, 1) is the fraction of execution time spent stalled on
	// memory at the reference configuration; memory stalls do not scale with
	// core frequency, so performance degrades sublinearly under DVFS
	// throttling (the roofline effect).
	MemBound float64
	// Seed drives the benchmark's demand jitter.
	Seed int64
}

// NominalDuration returns the run time (s) with one worker per core at the
// reference capacity, i.e. the unthrottled execution-time baseline.
func (b Benchmark) NominalDuration() float64 {
	if b.Demand <= 0 {
		return 0
	}
	return b.WorkPerThread / (b.Demand * RefCapacity)
}

// Table returns all 15 benchmarks of Table 6.4 plus LU (Figure 6.10), in a
// stable order. The durations and classes follow the paper's traces:
// Dijkstra ~64 s (Fig. 6.6), Patricia ~300 s (Fig. 6.7), matrix multiply
// ~60 s (Fig. 6.8), Templerun ~100 s (Fig. 6.3), Basicmath ~140 s (Fig 6.4).
func Table() []Benchmark {
	mk := func(name, typ string, class Class, threads int, durS, demand, phaseP, phaseA, act, gpuU, mem, membound float64, seed int64) Benchmark {
		b := Benchmark{
			Name: name, Type: typ, Class: class,
			Threads: threads, Demand: demand,
			PhasePeriod: phaseP, PhaseAmp: phaseA,
			CPUActivity: act, GPUUtil: gpuU, GPUActivity: 1.0,
			MemTraffic: mem, MemBound: membound, Seed: seed,
		}
		b.WorkPerThread = demand * RefCapacity * durS
		return b
	}
	return []Benchmark{
		// MiBench programs run the CPU flat out while active; the paper's
		// low/medium/high labels are measured POWER classes, which here come
		// from the switching-activity factor (memory-stalling integer code
		// switches far less logic per cycle than dense arithmetic).
		// Security (Low, Medium).
		mk("blowfish", "Security", Low, 1, 280, 0.90, 11, 0.25, 0.55, 0, 0.35, 0.15, 101),
		mk("sha", "Security", Medium, 1, 90, 0.95, 7, 0.20, 1.50, 0, 0.40, 0.12, 102),
		// Network (Low, Medium). Pointer-chasing codes are memory-heavy.
		mk("dijkstra", "Network", Low, 1, 64, 0.92, 9, 0.30, 0.50, 0, 0.50, 0.35, 103),
		mk("patricia", "Network", Medium, 1, 300, 0.95, 13, 0.22, 1.40, 0, 0.55, 0.40, 104),
		// Computational.
		mk("basicmath", "Computational", High, 1, 140, 0.97, 17, 0.04, 1.60, 0, 0.30, 0.08, 105),
		mk("matrixmult", "Computational", High, 4, 60, 0.98, 23, 0.03, 0.85, 0, 0.90, 0.70, 106),
		mk("bitcount", "Computational", Medium, 1, 75, 0.93, 6, 0.18, 1.45, 0, 0.20, 0.05, 107),
		mk("qsort", "Computational", Medium, 1, 85, 0.95, 8, 0.22, 1.50, 0, 0.60, 0.30, 108),
		// Telecomm (Low, Medium, High).
		mk("crc32", "Telecomm", Low, 1, 70, 0.90, 5, 0.28, 0.50, 0, 0.45, 0.25, 109),
		mk("gsm", "Telecomm", Medium, 1, 110, 0.94, 10, 0.20, 1.45, 0, 0.35, 0.15, 110),
		mk("fft", "Telecomm", High, 4, 80, 0.94, 12, 0.06, 0.85, 0, 0.70, 0.70, 111),
		// Consumer.
		mk("jpeg", "Consumer", Medium, 1, 95, 0.95, 6, 0.25, 1.50, 0, 0.65, 0.30, 112),
		// Games (High, GPU + background matrix multiply per §6.1.3).
		mk("angrybirds", "Games", High, 2, 120, 0.85, 15, 0.10, 1.05, 0.55, 0.80, 0.60, 113),
		mk("templerun", "Games", High, 2, 100, 0.88, 14, 0.08, 1.08, 0.65, 0.85, 0.60, 114),
		// Video (Low, GPU).
		mk("youtube", "Video", Low, 1, 180, 0.30, 20, 0.25, 0.80, 0.45, 0.70, 0.60, 115),
		// Extra multi-threaded benchmark of Figure 6.10.
		mk("lu", "Computational", High, 4, 70, 0.95, 18, 0.05, 0.85, 0, 0.75, 0.70, 116),
	}
}

// ErrUnknown is the sentinel wrapped by every "no such benchmark" error, so
// callers can distinguish a bad workload name from a failed run with
// errors.Is instead of string matching.
var ErrUnknown = errors.New("unknown benchmark")

// The benchmark table is immutable, so ByName serves lookups from a map
// built once instead of materializing all 16 Benchmark values per call —
// ByName sits on the fleet's per-cell setup path.
var (
	tableOnce   sync.Once
	tableByName map[string]Benchmark
)

// ByName returns the named benchmark from Table().
func ByName(name string) (Benchmark, error) {
	tableOnce.Do(func() {
		t := Table()
		tableByName = make(map[string]Benchmark, len(t))
		for _, b := range t {
			tableByName[b.Name] = b
		}
	})
	if b, ok := tableByName[name]; ok {
		return b, nil
	}
	return Benchmark{}, fmt.Errorf("workload: %w %q", ErrUnknown, name)
}

// Names returns all benchmark names in table order.
func Names() []string {
	t := Table()
	out := make([]string, len(t))
	for i, b := range t {
		out[i] = b.Name
	}
	return out
}

// ByClass returns the names of benchmarks in a class, sorted.
func ByClass(c Class) []string {
	var out []string
	for _, b := range Table() {
		if b.Class == c {
			out = append(out, b.Name)
		}
	}
	sort.Strings(out)
	return out
}

// Generator produces the time-varying demand of one benchmark run.
type Generator struct {
	B   Benchmark
	rng *rand.Rand
	// jitter state: smoothed random walk so demand is not white noise.
	jitter float64

	// The phase factor of the last DemandAt call and the inputs it was
	// computed from. The scheduler asks for every worker's demand several
	// times per tick at one t, and B is exported, so the key covers both
	// phase parameters as well as t.
	phaseT, phaseP, phaseA float64
	phase                  float64
}

// NewGenerator returns a deterministic demand generator for b.
func NewGenerator(b Benchmark) *Generator {
	return &Generator{B: b, rng: rand.New(rand.NewSource(b.Seed))}
}

// DemandAt returns the demanded fraction of RefCapacity for one worker
// thread at time t (seconds since launch). The waveform combines the phase
// modulation with a smoothed +-5% jitter. Every call advances the jitter,
// including repeated calls at one t; only the phase factor is reused.
func (g *Generator) DemandAt(t float64) float64 {
	d := g.B.Demand
	if g.B.PhasePeriod > 0 && g.B.PhaseAmp > 0 {
		d *= g.phaseFactor(t)
	}
	g.jitter = 0.9*g.jitter + 0.1*(g.rng.Float64()*2-1)
	d *= 1 + 0.05*g.jitter
	if d < 0 {
		d = 0
	}
	if d > 1 {
		d = 1
	}
	return d
}

// phaseFactor returns the phase modulation 1 + PhaseAmp*sq at t, where sq
// is a soft square wave of period PhasePeriod, evaluating the waveform
// only when t or a phase parameter differs from the previous call. It is
// only called with PhasePeriod > 0, so the zero memo of a new Generator
// never matches.
func (g *Generator) phaseFactor(t float64) float64 {
	p, a := g.B.PhasePeriod, g.B.PhaseAmp
	if t != g.phaseT || p != g.phaseP || a != g.phaseA {
		// Square-ish phases: compute/IO alternation typical of MiBench.
		phase := math.Sin(2 * math.Pi * t / p)
		sq := math.Tanh(3 * phase) // soft square wave
		g.phase = 1 + a*sq
		g.phaseT, g.phaseP, g.phaseA = t, p, a
	}
	return g.phase
}

// GPUUtilAt returns the demanded GPU utilization at time t.
func (g *Generator) GPUUtilAt(t float64) float64 {
	if g.B.GPUUtil == 0 {
		return 0
	}
	u := g.B.GPUUtil * (1 + 0.15*math.Sin(2*math.Pi*t/3.3))
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	return u
}

// Background models the Android stack and kernel daemons that keep several
// cores lightly busy during every run (§6.1.3: "multiple background
// processes also load the processor"). Utilization per core is a small
// seeded random process; the core count follows the platform (one daemon
// stream per big core).
type Background struct {
	rng   *rand.Rand
	level []float64
	out   []float64
}

// NewBackgroundN returns a background generator for n cores.
func NewBackgroundN(seed int64, n int) *Background {
	flat := make([]float64, 2*n)
	return &Background{
		rng:   rand.New(rand.NewSource(seed)),
		level: flat[0:n:n],
		out:   flat[n : 2*n : 2*n],
	}
}

// Cores returns the per-core stream count the generator was built for.
func (bg *Background) Cores() int { return len(bg.level) }

// Reseed rewinds the generator to the state NewBackgroundN(seed, Cores())
// produces — the recycling hook for batch arenas: the RNG restarts from
// seed and the smoothed levels drop back to their zero initial state, so
// the reseeded demand stream is bit-identical to a fresh generator's.
func (bg *Background) Reseed(seed int64) {
	bg.rng.Seed(seed)
	clear(bg.level)
	clear(bg.out)
}

// UtilAt returns the per-core background demand (fraction of RefCapacity)
// at a control tick. Values hover around 2-6%. The returned slice is reused
// across calls (the simulation loop reads it every tick without
// allocating); copy it to retain a sample.
func (bg *Background) UtilAt() []float64 {
	for i := range bg.level {
		bg.level[i] = 0.95*bg.level[i] + 0.05*(0.02+0.04*bg.rng.Float64())
		bg.out[i] = bg.level[i]
	}
	return bg.out
}
