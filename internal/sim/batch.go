package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/dtpm"
	"repro/internal/governor"
	"repro/internal/kernel"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/sensor"
	"repro/internal/stats"
	"repro/internal/sysid"
	"repro/internal/thermal"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ErrBatchIncompatible reports that a set of runs cannot share a batch:
// RunBatch refuses rather than silently stepping devices that disagree on
// what the lock-step kernel shares.
var ErrBatchIncompatible = errors.New("sim: runs are not batch-compatible")

// SharedStep is the device-independent slice of one control interval of a
// scripted scenario: everything a Script can compute once per batch
// instead of once per device. Cond carries the full interval conditions —
// including AmbientC, which is the only per-device field; batch consumers
// must read each device's ambient through AmbientAt instead.
type SharedStep struct {
	// Time is the interval start on the script clock.
	Time float64
	// Cond is the interval's conditions as the reference device sees them.
	Cond Conditions
	// Idle is true during screen-off gaps (no foreground demand).
	Idle bool
	// Threads is the foreground worker count of the current phase.
	Threads int
	// DemandBase is the per-worker demand before the per-device jitter
	// factor: benchmark demand x phase scale x waveform modulation.
	DemandBase float64
	// PhaseIndex / PhaseStart locate the current phase for the per-device
	// jitter stream and ambient lookup.
	PhaseIndex int
	PhaseStart float64
}

// batchDev is the complete mutable state of one device in a batch, minus
// the thermal integrator (owned by the shared BatchSim).
type batchDev struct {
	// Reseedable / resettable state: kept across arena uses and rewound
	// instead of reallocated (bit-identical to fresh by each type's
	// contract). release clears every other field.
	bank  *sensor.Bank
	bg    *workload.Background
	sched kernel.Sched

	opt      Options
	script   Script
	bench    benchScript         // backs script for unscripted runs
	gen      *workload.Generator // unscripted runs only: the benchmark's demand stream
	res      *Result
	chip     *platform.Chip
	fan      thermal.FanController // unused on fanless platforms
	reactive dtpm.ReactiveHeuristic
	ctrl     *dtpm.Controller
	gov      governor.CPUGovernor
	gpuGov   governor.GPU
	workers  []kernel.Task // the foreground tasks, a prefix of the task slab

	demands     []float64 // TickWith input, worker demands then bg levels
	prevUtil    []float64
	sensedTemps []float64
	corePow     []float64 // aliases the BatchSim input row
	st          thermal.State

	prevGPUUtil   float64
	prevPowers    [platform.NumResources]float64
	energy        float64
	maxTempSeries []float64

	// §6.3.1 prediction-accuracy accounting (Run only): one model-order
	// prediction per interval, whose hottest core is kept in predMax (a
	// ring of the last horizon+1 intervals, at most steps) until the
	// measurement horizon intervals later folds it into the running sums.
	predictor *sysid.Predictor
	horizon   int
	predStep  []float64
	predMax   []float64
	predN     int
	predSum   float64
	predWorst float64
	predAbs   float64

	demandNames []string // recorded "demand_w<i>" series names
}

// batchArena is the recyclable scratch of one kernel call: every
// allocation whose lifetime is exactly the call and whose reset-to-fresh
// state is provable. The fleet runs millions of batches with a handful in
// flight, so RunBatch pools these, turning the per-batch slab cost into a
// one-time cost per worker (Run uses a fresh arena). Deliberately NOT
// pooled: the thermal BatchSim (its Params copy is cheap and aliasing its
// matrices across runs is not worth proving safe), each device's chip and
// DTPM controller (mutable model state with no reset contract), and the
// Results (they escape to the caller).
type batchArena struct {
	devs []batchDev
	// floats backs, in order: the per-device vector buffers (zeroed on
	// acquire), the B x steps maxTempSeries (append-only), and — with
	// accounting — each device's ring of predicted maxima (every slot
	// written before it is read).
	floats []float64
	tasks  []kernel.Task // B x nTasks task slab, fully rewritten per use
}

var batchArenas = sync.Pool{New: func() any { return new(batchArena) }}

// scratch returns s resliced to length n, reallocating only when the
// pooled backing is too small. Contents are unspecified — callers fully
// rewrite (or explicitly zero) what they use.
func scratch[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// keep grows s to length n preserving existing elements — for the device
// slab, whose surviving entries carry reusable objects that are rewound
// rather than replaced.
func keep[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	out := make([]T, n)
	copy(out, s)
	return out
}

// release returns the arena to the pool, dropping every reference a future
// holder must not resurrect: the device slab retains observer closures and
// Result pointers, the task slab retains demand closures. The reusable
// RNG-backed objects stay — rewinding them is the point of the pool.
func (a *batchArena) release() {
	for i := range a.devs {
		dev := &a.devs[i]
		*dev = batchDev{bank: dev.bank, bg: dev.bg, sched: dev.sched}
	}
	clear(a.tasks)
	batchArenas.Put(a)
}

// RunBatch executes len(opts) scripted runs in lock-step as one batch,
// sharing the per-interval script evaluation, the thermal integrator's
// stage buffers, and a fused power evaluation across devices. It is the
// same kernel Run drives at width 1, so every Sample an observer sees and
// every Result field is byte-identical to running each device through Run
// — except the §6.3.1 prediction-accuracy accounting (PredMeanPct,
// PredMaxPct, PredMaxAbsC stay zero): it is bookkeeping no fleet output
// consumes, and it would cost a model-order prediction per device per
// interval for a metric nobody reads. Callers that need Pred* use Run.
//
// All runs must be batch-compatible — scripted, no recording, equal
// policy/TMax/control period/governor/max duration, and, in a batch of two
// or more, one non-empty Script.ShapeSignature — otherwise RunBatch
// returns nil results and an error wrapping ErrBatchIncompatible. Any
// mid-run error (and cancellation) aborts the whole batch the way Run
// aborts a single device.
func (r *Runner) RunBatch(ctx context.Context, opts []Options) ([]*Result, error) {
	if len(opts) == 0 {
		return nil, fmt.Errorf("%w: empty batch", ErrBatchIncompatible)
	}
	for i := range opts {
		opt := &opts[i]
		if opt.Script == nil {
			return nil, fmt.Errorf("%w: run %d is not scripted", ErrBatchIncompatible, i)
		}
		if opt.Record {
			return nil, fmt.Errorf("%w: run %d records traces", ErrBatchIncompatible, i)
		}
	}
	arena := batchArenas.Get().(*batchArena)
	defer arena.release()
	results := make([]*Result, len(opts))
	err := r.run(ctx, arena, opts, results, false)
	if results[0] == nil {
		return nil, err
	}
	return results, err
}

// run is the simulation kernel: it steps len(opts) devices in lock-step,
// one control interval at a time, and is the only per-interval loop in the
// package. It draws its scratch from arena, fills results (len(opts)
// entries) on completion and on cancellation, and leaves them nil on any
// other error. account turns on the §6.3.1 prediction accounting (Run's
// contract, not RunBatch's).
//
// Unscripted benchmarks arrive only from Run, so at width 1, where the
// shared step is the device's own: RunBatch refuses them. Scripts with an
// empty shape signature (a trace replay) likewise only ever run alone.
func (r *Runner) run(ctx context.Context, arena *batchArena, opts []Options, results []*Result, account bool) error {
	B := len(opts)
	arena.devs = keep(arena.devs, B)
	devs := arena.devs

	// Normalize every option set, then insist the batch agrees on
	// everything that is shared in lock-step.
	for i := range opts {
		opt := &opts[i]
		dev := &devs[i]
		if opt.ControlPeriod == 0 {
			opt.ControlPeriod = 0.1
		}
		if opt.TMax == 0 {
			opt.TMax = 63
		}
		if opt.Governor == "" {
			opt.Governor = "ondemand"
		}
		if opt.Script == nil {
			dev.bench = benchScript{b: opt.Bench, gen: workload.NewGenerator(opt.Bench)}
			dev.script = &dev.bench
		} else {
			dev.script = opt.Script
		}
		if opt.MaxDuration == 0 {
			opt.MaxDuration = dev.script.Duration()
		}
	}
	ref := &opts[0]
	lead := devs[0].script // the shared-step source
	unscripted := ref.Script == nil
	if B > 1 {
		shape := lead.ShapeSignature()
		if shape == "" {
			return fmt.Errorf("%w: run 0 script %q never shares a batch", ErrBatchIncompatible, lead.Name())
		}
		for i := 1; i < B; i++ {
			o := &opts[i]
			if o.Policy != ref.Policy || o.TMax != ref.TMax || o.ControlPeriod != ref.ControlPeriod ||
				o.Governor != ref.Governor || o.MaxDuration != ref.MaxDuration {
				return fmt.Errorf("%w: run %d disagrees with run 0 on shared knobs", ErrBatchIncompatible, i)
			}
			if devs[i].script.ShapeSignature() != shape {
				return fmt.Errorf("%w: run %d scenario shape differs from run 0", ErrBatchIncompatible, i)
			}
		}
	}

	// The batch agrees on the governor (checked above), so build all B
	// fresh instances in one slab.
	govs, err := governor.ByNameN(ref.Governor, B)
	if err != nil {
		return err
	}

	desc := r.desc()
	nodes := desc.Big.Cores // hotspot/sensor node count
	maxCores := desc.MaxClusterCores()
	nWorkers := lead.Workers()
	nTasks := nWorkers + nodes
	dt := ref.ControlPeriod
	steps := int(ref.MaxDuration/dt) + 1

	// Shared thermal integrator: B devices, one set of RK4 stage buffers.
	bsim := thermal.NewBatchSim(r.Thermal, B)
	idle := r.IdleState()

	ringN := 0
	for i := range opts {
		ringN += ringLen(&opts[i], account, steps)
	}

	// Allocation-reuse invariant: everything the per-step loop touches is
	// either a fixed-size value or preallocated here at full capacity —
	// sized from the platform descriptor, not from constants — so the loop
	// itself performs no heap allocation (BenchmarkSimCell* in the repo
	// root tracks this with -benchmem). Keep it that way when adding
	// per-step state. One flat backing array holds every per-device
	// vector buffer, the temperature series, and the accounting rings; the
	// arena backing carries stale values, so zero the vector buffers —
	// fresh-make semantics (the series is append-only and every ring slot
	// is written before it is read).
	perDev := maxCores + 3*nodes + nTasks
	vecN, seriesN := B*perDev, B*steps
	arena.floats = scratch(arena.floats, vecN+seriesN+ringN)
	flat := arena.floats[:vecN]
	clear(flat)
	series := arena.floats[vecN : vecN+seriesN]
	rings := arena.floats[vecN+seriesN:]

	arena.tasks = scratch(arena.tasks, B*nTasks)

	for d := range devs {
		dev := &devs[d]
		opt := opts[d]
		dev.opt = opt

		dev.gov = govs[d]
		dev.gpuGov = *governor.NewGPU()
		dev.chip = platform.NewChipFor(desc)
		bsim.SetState(d, idle)
		if dev.bank == nil {
			dev.bank = sensor.NewBank(r.Sensors, opt.Seed)
		} else {
			dev.bank.Reseed(r.Sensors, opt.Seed)
		}
		// Fanless platforms have no controller: the with-fan policy
		// degenerates to the plain governor and fan speed stays 0.
		if desc.Fan != nil {
			dev.fan = *thermal.NewFanControllerFor(*desc.Fan)
		}
		dev.reactive = *dtpm.NewReactiveHeuristic()

		if opt.Model != nil {
			if opt.Model.States() != nodes {
				return fmt.Errorf("sim: %w: model order %d vs platform %s (%d hotspot nodes) — characterize the same platform the run uses",
					ErrModelPlatformMismatch, opt.Model.States(), desc.Name, nodes)
			}
			// Same order is not enough: two profiles can both carry, say,
			// four hotspots while their silicon constants differ
			// completely. A model stamped with its origin platform must
			// only drive that platform.
			if opt.Model.Platform != "" && opt.Model.Platform != desc.Name {
				return fmt.Errorf("sim: %w: model was identified on platform %s, refusing to drive %s with it",
					ErrModelPlatformMismatch, opt.Model.Platform, desc.Name)
			}
		}
		if opt.Policy == PolicyDTPM {
			if opt.Model == nil {
				return fmt.Errorf("sim: PolicyDTPM requires an identified thermal model")
			}
			pm := opt.PowerModel
			if pm == nil {
				pm = r.groundTruthPowerModel()
			} else {
				// The controller observes into its power model every
				// interval; clone so a shared fitted model is never
				// mutated. This keeps each run independent of what ran
				// before it (and makes concurrent cells race-free).
				pm = pm.Clone()
			}
			cfg := dtpm.DefaultConfig()
			if opt.DTPM != nil {
				cfg = *opt.DTPM
			}
			cfg.TMax = opt.TMax
			dev.ctrl, err = dtpm.NewController(cfg, opt.Model, pm)
			if err != nil {
				return err
			}
		}

		// Workload: foreground workers first, then one background daemon
		// per hotspot node, so TickWith demand indices line up. Script
		// workers are open-ended (the script decides when they idle);
		// benchmark workers carry the finite foreground work and draw their
		// demand from the generator closure on every call.
		dev.sched.Reset()
		dev.sched.Reserve(nTasks, maxCores)
		taskPool := arena.tasks[d*nTasks : (d+1)*nTasks]
		dev.workers = taskPool[:nWorkers]
		if unscripted {
			dev.gen = dev.bench.gen
			for i := range dev.workers {
				dev.workers[i] = kernel.Task{
					Demand:   dev.gen.DemandAt,
					MemBound: opt.Bench.MemBound,
					WorkLeft: opt.Bench.WorkPerThread,
				}
			}
		} else {
			for i := range dev.workers {
				dev.workers[i] = kernel.Task{WorkLeft: math.Inf(1)}
			}
		}
		for i := range dev.workers {
			dev.sched.Add(&dev.workers[i])
		}
		if dev.bg == nil || dev.bg.Cores() != nodes {
			dev.bg = workload.NewBackgroundN(opt.Seed+77, nodes)
		} else {
			dev.bg.Reseed(opt.Seed + 77)
		}
		// The background walk takes one step before the first interval
		// (its draws are part of every committed output).
		dev.bg.UtilAt()
		for i := 0; i < nodes; i++ {
			taskPool[nWorkers+i] = kernel.Task{MemBound: 0.3, WorkLeft: math.Inf(1)}
			dev.sched.Add(&taskPool[nWorkers+i])
		}

		base := flat[d*perDev : (d+1)*perDev : (d+1)*perDev]
		dev.prevUtil = base[0:maxCores:maxCores]
		dev.sensedTemps = base[maxCores : maxCores+nodes : maxCores+nodes]
		dev.st = thermal.State{Core: base[maxCores+nodes : maxCores+2*nodes : maxCores+2*nodes]}
		dev.predStep = base[maxCores+2*nodes : maxCores+3*nodes : maxCores+3*nodes]
		dev.demands = base[maxCores+3*nodes:]
		dev.corePow = bsim.CoreInput(d)
		dev.maxTempSeries = series[d*steps : d*steps : (d+1)*steps]

		if n := ringLen(&opt, account, steps); n > 0 {
			dev.predictor = opt.Model.NewPredictor()
			dev.horizon = predHorizon(&opt)
			dev.predMax = rings[:n:n]
			rings = rings[n:]
		}

		dev.res = &Result{Bench: dev.script.Name(), Policy: opt.Policy}
		if opt.Record {
			dev.res.Rec = trace.NewRecorder()
			if !unscripted {
				dev.demandNames = make([]string, nWorkers)
				for i := range dev.demandNames {
					dev.demandNames[i] = fmt.Sprintf("demand_w%d", i)
				}
			}
		}

		// Initialize the power observation with an idle reading. Its core
		// powers land in the BatchSim input row, which the first
		// interval's StepInto overwrites before any Step reads it.
		idleAct := power.ChipActivity{CoreUtil: dev.prevUtil, CPUActivity: 1}
		bsim.StateInto(d, &dev.st)
		b0, _ := r.GT.StepInto(dev.corePow, dev.chip, idleAct, dev.st.Core, dev.st.Board)
		dev.prevPowers = b0.Domain
	}

	// The batch agrees on the initial governor and sees one shared
	// condition stream, so the "did the script swap the governor" question
	// has one answer per step; the fresh instances are per device.
	govName := ref.Governor

	// Cancellation is checked at the top of every control interval against
	// the context's done channel, fetched once: Done() on a cancellable
	// context allocates its channel lazily, and per-step Err() would take
	// its lock. context.Background keeps done nil, so an uncancellable run
	// pays one never-ready select case per step and nothing else.
	done := ctx.Done()
	cancelled := false
	completed := false

	elapsed := 0.0
	// Hoisted out of the loop: &sh is passed to the per-device script
	// calls, so an in-loop declaration escapes and reallocates every step.
	var sh SharedStep
	for k := 0; k < steps; k++ {
		select {
		case <-done:
			cancelled = true
		default:
		}
		if cancelled {
			break
		}

		// Shared per-interval script evaluation: one phase lookup, one
		// waveform modulation, one conditions read for the whole batch.
		// Governor swaps take effect like a scaling_governor write (fresh
		// instance, only when the name changes, so replayed swaps land on
		// the same step with the same state).
		sh = lead.SharedStep(elapsed)
		cond := sh.Cond
		if cond.Governor != "" && cond.Governor != govName {
			fresh, gerr := governor.ByNameN(cond.Governor, B)
			if gerr != nil {
				return gerr
			}
			for d := range devs {
				devs[d].gov = fresh[d]
			}
			govName = cond.Governor
		}

		for d := range devs {
			dev := &devs[d]
			// Ambient moves the ground truth, and the workers'
			// memory-boundedness follows the phase.
			if amb := dev.script.AmbientAt(&sh); amb != 0 {
				bsim.SetAmbient(d, amb)
			}
			for i := range dev.workers {
				dev.workers[i].MemBound = cond.MemBound
			}
			if dev.gen == nil {
				for i := range dev.workers {
					dev.demands[i] = dev.script.WorkerDemand(&sh, i)
				}
				if rec := dev.res.Rec; rec != nil {
					// The script's inputs, recorded alongside the outputs,
					// are what makes a trace replayable.
					for i, name := range dev.demandNames {
						rec.Record(name, elapsed, dev.demands[i])
					}
					rec.Record("gpu_demand", elapsed, cond.GPUDemand)
					rec.Record("ambient_c", elapsed, bsim.Ambient(d))
					rec.Record("cpu_activity", elapsed, cond.CPUActivity)
					rec.Record("gpu_activity", elapsed, cond.GPUActivity)
					rec.Record("mem_traffic", elapsed, cond.MemTraffic)
					rec.Record("mem_bound", elapsed, cond.MemBound)
					rec.Record("gov_id", elapsed, float64(governor.Index(govName)))
				}
			}
			bsim.StateInto(d, &dev.st)
			dev.bank.ReadCoreTempsInto(dev.sensedTemps, dev.st.Core)
			sensedPowers := dev.bank.ReadDomainPowers(dev.prevPowers)
			maxSensed := dev.sensedTemps[0]
			for _, t := range dev.sensedTemps[1:] {
				if t > maxSensed {
					maxSensed = t
				}
			}

			// Default governors decide from last interval's utilization.
			active := dev.chip.Active()
			govFreq := dev.gov.Decide(dev.prevUtil, active.Freq(), active.Domain)
			gpuWant := dev.gpuGov.Decide(dev.prevGPUUtil, dev.chip.GPUFreq(), dev.chip.GPUDomain)

			fanSpeed := 0.0
			effFreq := govFreq
			effGPU := gpuWant
			switch dev.opt.Policy {
			case PolicyFan:
				if desc.Fan != nil {
					fanSpeed = dev.fan.Update(maxSensed)
				}
			case PolicyNoFan:
				// governor only
			case PolicyReactive:
				if cap := dev.reactive.Cap(maxSensed, active.Domain); cap != 0 && cap < effFreq {
					effFreq = cap
				}
			case PolicyDTPM:
				dec := dev.ctrl.Update(dev.chip, dtpm.Inputs{
					Temps:        dev.sensedTemps,
					Powers:       sensedPowers,
					GovernorFreq: govFreq,
					GPUActive:    cond.GPUDemand > 0,
				})
				if rec := dev.res.Rec; rec != nil {
					viol := 0.0
					if dec.Violation {
						viol = 1
					}
					rec.Record("dtpm_violation", elapsed, viol)
					rec.Record("dtpm_budget_w", elapsed, dec.TotalBudget)
					rec.Record("dtpm_pred_c", elapsed, dec.PredictedMax)
				}
				lim := dec.Limits
				// Cluster migration.
				if lim.ForceLittle && dev.chip.ActiveKind() == platform.BigCluster {
					dev.chip.SwitchCluster(platform.LittleCluster)
					dev.sched.MigrateAll()
					dev.gov.Reset()
					dev.ctrl.Power.AlphaC[platform.Little].Reset()
				} else if !lim.ForceLittle && dev.chip.ActiveKind() == platform.LittleCluster {
					dev.chip.SwitchCluster(platform.BigCluster)
					dev.sched.MigrateAll()
					dev.gov.Reset()
					dev.ctrl.Power.AlphaC[platform.Big].Reset()
				}
				active = dev.chip.Active()
				// Hotplug to the allowed core count, then frequency caps.
				applyCoreLimit(dev.chip, lim)
				effFreq = dev.gov.Decide(dev.prevUtil, active.Freq(), active.Domain)
				if dev.chip.ActiveKind() == platform.BigCluster && lim.BigFreqCap != 0 && lim.BigFreqCap < effFreq {
					effFreq = lim.BigFreqCap
				}
				if dev.chip.ActiveKind() == platform.LittleCluster && lim.LittleFreqCap != 0 && lim.LittleFreqCap < effFreq {
					effFreq = lim.LittleFreqCap
				}
				if lim.GPUFreqCap != 0 && lim.GPUFreqCap < effGPU {
					effGPU = lim.GPUFreqCap
				}
			}
			if err := active.SetFreq(effFreq); err != nil {
				return err
			}
			if err := dev.chip.SetGPUFreq(effGPU); err != nil {
				return err
			}

			// Prediction-accuracy accounting: predict the hottest core one
			// horizon ahead from the current sensed state under current
			// power.
			if dev.predictor != nil {
				pred := dev.predictor.PredictConstInto(dev.predStep, dev.sensedTemps, sensedPowers[:], dev.horizon)
				predMax := stats.Max(pred)
				dev.predMax[k%len(dev.predMax)] = predMax
				if rec := dev.res.Rec; rec != nil {
					// Timestamp at the instant the prediction refers to, so
					// the series overlays the measured trace (Figure 4.9).
					// Scripted traces are replay artifacts instead: they
					// keep every series on the control-step grid, because a
					// shifted clock would widen the CSV's union time grid
					// past the scenario end and corrupt the duration a
					// replay infers from it.
					predT := elapsed
					if dev.gen != nil {
						predT += float64(dev.horizon) * dt
					}
					rec.Record("predmax_c", predT, predMax)
				}
			}

			// Advance the workload: background levels refresh their
			// per-device random walk and reach the tick through
			// dev.demands, beside the scripted worker demands read above.
			// Benchmark workers carry their generator's closure instead,
			// which the tick calls at each demand read (it draws jitter
			// on every call).
			copy(dev.demands[nWorkers:], dev.bg.UtilAt())
			tick := dev.sched.TickWith(dt, active, dev.demands)
			// Copy the realized utilization (the tick buffer is reused):
			// the tail beyond the active cluster's width is zeroed so a
			// cluster migration never leaves stale readings for the
			// governor.
			for i := copy(dev.prevUtil, tick.CoreUtil); i < len(dev.prevUtil); i++ {
				dev.prevUtil[i] = 0
			}

			// GPU load: demand expressed at the max GPU frequency.
			gpuScale := float64(dev.chip.GPUDomain.MaxFreq()) / float64(dev.chip.GPUFreq())
			dev.prevGPUUtil = math.Min(1, cond.GPUDemand*gpuScale)

			// Ground-truth power and thermal step.
			sumUtil := 0.0
			for _, u := range tick.CoreUtil {
				sumUtil += u
			}
			act := power.ChipActivity{
				CoreUtil:    tick.CoreUtil,
				CPUActivity: cond.CPUActivity,
				GPUUtil:     dev.prevGPUUtil,
				GPUActivity: cond.GPUActivity,
				MemTraffic:  cond.MemTraffic*math.Min(1, sumUtil) + 0.4*dev.prevGPUUtil,
				FanSpeed:    fanSpeed,
			}
			// Fused ground-truth evaluation: the domain breakdown and the
			// per-core thermal inputs in one pass.
			breakdown, boardPow := r.GT.StepInto(dev.corePow, dev.chip, act, dev.st.Core, dev.st.Board)
			dev.prevPowers = breakdown.Domain
			bsim.Step(d, dt, boardPow, fanSpeed)

			// Metrics.
			trueMax := dev.st.MaxCore()
			dev.maxTempSeries = append(dev.maxTempSeries, trueMax)
			if dev.predictor != nil && k >= dev.horizon {
				dev.foldPrediction(dev.predMax[(k-dev.horizon)%len(dev.predMax)], trueMax)
			}
			platPower := breakdown.Platform()
			dev.energy += platPower * dt
			if trueMax > dev.opt.TMax {
				dev.res.OverTMax += dt
			}
			// One Sample per interval feeds BOTH the recorder and the
			// observer, so a streamed sample and the recorded trace row
			// can never diverge. The struct lives on the stack: with
			// neither recording nor an observer this block is free.
			if rec := dev.res.Rec; rec != nil || dev.opt.Observer != nil {
				smp := Sample{
					Step:      k,
					Time:      elapsed,
					MaxTemp:   trueMax,
					FreqGHz:   active.Freq().GHz(),
					Power:     platPower,
					FanSpeed:  fanSpeed,
					Cores:     float64(active.OnlineCount()),
					Cluster:   float64(dev.chip.ActiveKind()),
					GPUMHz:    dev.chip.GPUFreq().MHz(),
					BoardTemp: dev.st.Board,
					BigPower:  breakdown.Domain[platform.Big],
				}
				if rec != nil {
					rec.Record("maxtemp", smp.Time, smp.MaxTemp)
					rec.Record("freq_ghz", smp.Time, smp.FreqGHz)
					rec.Record("power_w", smp.Time, smp.Power)
					rec.Record("fan", smp.Time, smp.FanSpeed)
					rec.Record("cores", smp.Time, smp.Cores)
					rec.Record("cluster", smp.Time, smp.Cluster)
					rec.Record("gpu_mhz", smp.Time, smp.GPUMHz)
					rec.Record("board", smp.Time, smp.BoardTemp)
					rec.Record("bigpower_w", smp.Time, smp.BigPower)
				}
				if dev.opt.Observer != nil {
					dev.opt.Observer(smp)
				}
			}
		}
		elapsed += dt

		// A script completes on its clock; a benchmark (always width 1)
		// completes when its finite foreground work has retired.
		if unscripted {
			if devs[0].sched.AllForegroundDone() {
				completed = true
				break
			}
		} else if elapsed >= lead.Duration()-1e-9 {
			completed = true
			break
		}
	}

	for d := range devs {
		dev := &devs[d]
		res := dev.res
		res.Completed = completed
		res.ExecTime = elapsed
		if completed && unscripted {
			res.ExecTime = dev.sched.LastFinish()
		}
		res.Energy = dev.energy
		// A run cancelled before its first interval completed has no
		// samples; leave the zero-value metrics rather than dividing by
		// zero elapsed time or taking the max of an empty series.
		if len(dev.maxTempSeries) > 0 {
			res.AvgPower = dev.energy / elapsed
			res.MaxTemp = stats.Max(dev.maxTempSeries)
			res.AvgTemp = stats.Mean(dev.maxTempSeries)
			res.TempVar = stats.Variance(dev.maxTempSeries)
			res.Spread = stats.Spread(dev.maxTempSeries)
			ss := steadyWindow(dev.maxTempSeries, dev.opt.TMax)
			res.SSAvgTemp = stats.Mean(ss)
			res.SSTempVar = stats.Variance(ss)
			res.SSSpread = stats.Spread(ss)
		}
		if dev.predN > 0 {
			res.PredMeanPct = dev.predSum / float64(dev.predN)
			res.PredMaxPct = dev.predWorst
			res.PredMaxAbsC = dev.predAbs
		}
		results[d] = res
	}
	if cancelled {
		return fmt.Errorf("sim: %w after %.1f s (%w)", ErrCancelled, elapsed, context.Cause(ctx))
	}
	return nil
}

// predHorizon is the §6.3.1 accounting horizon of a run in intervals.
func predHorizon(opt *Options) int {
	if opt.PredHorizon <= 0 {
		return 10 // 1 s at 100 ms
	}
	return opt.PredHorizon
}

// ringLen is the length of a run's accounting ring: the predicted maxima
// still waiting for their measurement, horizon+1 intervals but never more
// than the run's steps (0 without accounting).
func ringLen(opt *Options, account bool, steps int) int {
	if !account || opt.Model == nil {
		return 0
	}
	if h := predHorizon(opt); h < steps {
		return h + 1
	}
	return steps
}

// foldPrediction adds one interval to the §6.3.1 accounting: its predicted
// hottest core against the true maximum measured `horizon` intervals
// later. Intervals fold in order as their measurements arrive, so the
// sums are the ones a pass over the whole run would make.
func (dev *batchDev) foldPrediction(predMax, meas float64) {
	if meas <= 0 {
		return
	}
	abs := math.Abs(predMax - meas)
	pct := 100 * abs / meas
	dev.predSum += pct
	dev.predN++
	if pct > dev.predWorst {
		dev.predWorst = pct
	}
	if abs > dev.predAbs {
		dev.predAbs = abs
	}
}
