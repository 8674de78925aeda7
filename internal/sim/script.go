package sim

import "repro/internal/workload"

// Script drives time-varying run conditions through the simulation loop —
// the hook the scenario engine compiles into. Where a plain benchmark run
// fixes the workload, governor, and ambient for the whole run, a script is
// consulted every control interval and may move all of them: timed phases
// that switch workloads, screen-off idle gaps, governor swaps mid-run,
// ambient-temperature profiles, and thermal-soak preludes.
//
// The kernel reads a script one interval at a time, in two parts: a shared
// part (one SharedStep per batch per interval) and a cheap per-device part
// (WorkerDemand and AmbientAt continued from it). Every method must be a
// pure function of its arguments (no internal state advanced per call):
// trace replay depends on re-querying the same instants and getting
// bit-identical values back.
type Script interface {
	// Name labels the run (Result.Bench).
	Name() string
	// Duration is the scripted wall-clock length in seconds; the run
	// completes when it is reached.
	Duration() float64
	// Workers is the number of foreground worker tasks to schedule.
	Workers() int
	// SharedStep evaluates the device-independent state of the interval
	// starting at t.
	SharedStep(t float64) SharedStep
	// WorkerDemand returns worker i's demanded fraction of
	// workload.RefCapacity in the interval sh, in [0, 1], continued from
	// the shared step: only per-device parts (a jitter stream) are applied
	// here. Workers idle in phases that use fewer threads than Workers.
	WorkerDemand(sh *SharedStep, i int) float64
	// AmbientAt is this device's ambient override in °C for the interval
	// sh (0 = keep).
	AmbientAt(sh *SharedStep) float64
	// ShapeSignature fingerprints everything two scripts must share to be
	// steppable in lock-step — phase timing, workloads, scales, governor
	// swaps — and nothing that may vary per device (jitter seed, ambient).
	// Scripts with equal signatures must return equal SharedSteps (their
	// Cond.AmbientC aside, which is read per device through AmbientAt): a
	// batch steps every device on its first device's shared step. An
	// empty signature means the script never shares a batch.
	ShapeSignature() string
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

func (s *benchScript) SharedStep(t float64) SharedStep {
	return SharedStep{Time: t, Cond: Conditions{
		GPUDemand:   s.gen.GPUUtilAt(t),
		CPUActivity: s.b.CPUActivity,
		GPUActivity: s.b.GPUActivity,
		MemTraffic:  s.b.MemTraffic,
		MemBound:    s.b.MemBound,
	}}
}

// WorkerDemand draws from the generator, which advances its RNG on every
// call — unlike a Script's pure demand. The kernel therefore ticks
// benchmark workers through their Demand closures and never calls this.
func (s *benchScript) WorkerDemand(sh *SharedStep, _ int) float64 { return s.gen.DemandAt(sh.Time) }

func (s *benchScript) AmbientAt(*SharedStep) float64 { return 0 }

// ShapeSignature is empty: benchmarks never share a batch.
func (s *benchScript) ShapeSignature() string { return "" }
