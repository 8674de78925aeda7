package sim

import "repro/internal/workload"

// Script drives time-varying run conditions through the simulation loop —
// the hook the scenario engine compiles into. Where a plain benchmark run
// fixes the workload, governor, and ambient for the whole run, a script is
// consulted every control interval and may move all of them: timed phases
// that switch workloads, screen-off idle gaps, governor swaps mid-run,
// ambient-temperature profiles, and thermal-soak preludes.
//
// Every method must be a pure function of its arguments (no internal state
// advanced per call): the kernel scheduler samples WorkerDemand more than
// once per tick, and trace replay depends on re-querying the same instants
// and getting bit-identical values back.
type Script interface {
	// Name labels the run (Result.Bench).
	Name() string
	// Duration is the scripted wall-clock length in seconds; the run
	// completes when it is reached.
	Duration() float64
	// Workers is the number of foreground worker tasks to schedule.
	Workers() int
	// WorkerDemand returns worker i's demanded fraction of
	// workload.RefCapacity at time t, in [0, 1]. Workers idle in phases
	// that use fewer threads than Workers.
	WorkerDemand(i int, t float64) float64
	// Conditions returns every other scripted quantity at time t.
	Conditions(t float64) Conditions
}

// Conditions is the non-demand state a Script dictates at one instant.
type Conditions struct {
	// Governor is the cpufreq governor that should be active ("" = keep
	// the current one). The sim swaps to a fresh instance when the name
	// changes, like writing scaling_governor on real hardware.
	Governor string
	// AmbientC overrides the ambient temperature in °C (0 = keep).
	AmbientC float64
	// GPUDemand is the demanded GPU utilization at the maximum GPU
	// frequency, in [0, 1].
	GPUDemand float64
	// CPUActivity / GPUActivity are switching-activity factors relative to
	// the nominal alphaC (1.0 = typical integer code).
	CPUActivity float64
	GPUActivity float64
	// MemTraffic is the memory-traffic activity level (0..~2), scaled by
	// realized CPU utilization like a benchmark's.
	MemTraffic float64
	// MemBound is the workers' memory-stall fraction in [0, 1).
	MemBound float64
}

// plainScript adapts a Script that is not a BatchScript (a trace replay,
// say) to the kernel's per-interval view: the "shared" step is simply this
// device's own evaluation. RunBatch refuses such scripts, so the kernel
// only ever steps them at width 1 (through Run).
type plainScript struct{ Script }

func (p plainScript) SharedStep(t float64) SharedStep {
	return SharedStep{Time: t, Cond: p.Conditions(t)}
}

func (p plainScript) WorkerDemandShared(sh *SharedStep, i int) float64 {
	return p.WorkerDemand(i, sh.Time)
}

func (p plainScript) AmbientAt(sh *SharedStep) float64 { return sh.Cond.AmbientC }

// ShapeSignature is never compared: plain scripts never share a batch.
func (p plainScript) ShapeSignature() string { return "" }

// benchScript adapts an unscripted benchmark run to the kernel's
// per-interval view: constant conditions from the benchmark table, GPU
// demand from the generator's waveform. Only Run reaches it (at width 1).
// Two things stay specific to benchmarks and are handled by the kernel
// itself: the workers draw their demand through generator closures (see
// WorkerDemand), and the run completes on retired work, not on Duration.
type benchScript struct {
	b   workload.Benchmark
	gen *workload.Generator
}

func (s *benchScript) Name() string { return s.b.Name }

// Duration is the default run cap: 4x the benchmark's nominal time, at
// least a minute.
func (s *benchScript) Duration() float64 { return max(4*s.b.NominalDuration(), 60) }

func (s *benchScript) Workers() int { return s.b.Threads }

// WorkerDemand draws from the generator, which advances its RNG on every
// call — unlike a Script's pure demand. The kernel therefore ticks
// benchmark workers through their Demand closures and never calls this.
func (s *benchScript) WorkerDemand(_ int, t float64) float64 { return s.gen.DemandAt(t) }

func (s *benchScript) Conditions(t float64) Conditions {
	return Conditions{
		GPUDemand:   s.gen.GPUUtilAt(t),
		CPUActivity: s.b.CPUActivity,
		GPUActivity: s.b.GPUActivity,
		MemTraffic:  s.b.MemTraffic,
		MemBound:    s.b.MemBound,
	}
}

func (s *benchScript) SharedStep(t float64) SharedStep {
	return SharedStep{Time: t, Cond: s.Conditions(t)}
}

func (s *benchScript) WorkerDemandShared(sh *SharedStep, i int) float64 {
	return s.WorkerDemand(i, sh.Time)
}

func (s *benchScript) AmbientAt(*SharedStep) float64 { return 0 }

// ShapeSignature is never compared: benchmarks never share a batch.
func (s *benchScript) ShapeSignature() string { return "" }
