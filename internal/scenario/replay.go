package scenario

import (
	"fmt"

	"repro/internal/governor"
	"repro/internal/sim"
	"repro/internal/trace"
)

// conditionSeries are the recorded script-input series FromTrace requires
// (sim.Run records them for every scripted run with Record set).
var conditionSeries = []string{
	"gpu_demand", "ambient_c", "cpu_activity", "gpu_activity",
	"mem_traffic", "mem_bound", "gov_id",
}

// Replay is a sim.Script reconstructed from a recorded trace: the trace's
// input series become the workload demand source, sampled with zero-order
// hold. Because the simulator queries a script only at the instants the
// trace recorded, a replayed run re-feeds bit-identical inputs and — with
// the same seed, policy, and control period — reproduces the original
// output series sample for sample.
type Replay struct {
	name     string
	duration float64
	period   float64
	workers  []*trace.Series
	cond     map[string]*trace.Series
}

// MinPeriod bounds the control period FromTrace accepts (s). Anything
// finer than 1 ms is not a plausible recording of this simulator and
// would explode the replay's step count.
const MinPeriod = 1e-3

// FromTrace builds a replay script from a parsed trace. The trace must
// contain the scripted-run input series ("demand_w<i>" for contiguous
// workers from 0, plus gpu_demand / ambient_c / cpu_activity /
// gpu_activity / mem_traffic / mem_bound / gov_id); output-only traces
// are rejected.
func FromTrace(rec *trace.Recorder, name string) (*Replay, error) {
	r := &Replay{name: name, cond: make(map[string]*trace.Series)}
	for _, sname := range conditionSeries {
		s := rec.Series(sname)
		if s == nil || s.Len() == 0 {
			return nil, fmt.Errorf("scenario: trace has no %q series — not a recorded scenario run", sname)
		}
		r.cond[sname] = s
	}
	for i := 0; ; i++ {
		s := rec.Series(fmt.Sprintf("demand_w%d", i))
		if s == nil {
			break
		}
		r.workers = append(r.workers, s)
	}
	// The scripted duration is one sample period past the last sample:
	// the original run records at 0, dt, ..., D-dt. Both inferred values
	// are bounded — ReadCSV's validation only guarantees finite increasing
	// times, and an unbounded duration (or a microscopic period) would let
	// a corrupt trace demand a multi-terabyte simulation. Compile enforces
	// the same MaxDuration on declared scenarios.
	ref := r.cond["gpu_demand"]
	last := ref.Times[ref.Len()-1]
	dt := 0.1
	if ref.Len() > 1 {
		dt = ref.Times[1] - ref.Times[0]
	}
	if dt < MinPeriod || dt > 10 {
		return nil, fmt.Errorf("scenario: trace sample period %g s outside [%g, 10] — not a plausible recording", dt, MinPeriod)
	}
	r.period = dt
	r.duration = last + dt
	if r.duration > MaxDuration {
		return nil, fmt.Errorf("scenario: trace spans %.0f s, more than the %d s scenario limit", r.duration, MaxDuration)
	}
	return r, nil
}

// Period returns the control period the trace was recorded at; replaying
// with any other period can never reproduce it (the sample grids differ).
func (r *Replay) Period() float64 { return r.period }

// Name implements sim.Script.
func (r *Replay) Name() string { return r.name }

// Duration implements sim.Script.
func (r *Replay) Duration() float64 { return r.duration }

// Workers implements sim.Script.
func (r *Replay) Workers() int { return len(r.workers) }

// SharedStep implements sim.Script: the recorded conditions at t. The
// recorded gov_id is the effective governor at each step, so the replayed
// run performs the same swaps on the same steps; an out-of-range id keeps
// the current governor.
func (r *Replay) SharedStep(t float64) sim.SharedStep {
	govName := ""
	if id := int(r.cond["gov_id"].At(t)); id >= 0 && id < len(governor.Names()) {
		govName = governor.Names()[id]
	}
	return sim.SharedStep{Time: t, Cond: sim.Conditions{
		Governor:    govName,
		AmbientC:    r.cond["ambient_c"].At(t),
		GPUDemand:   r.cond["gpu_demand"].At(t),
		CPUActivity: r.cond["cpu_activity"].At(t),
		GPUActivity: r.cond["gpu_activity"].At(t),
		MemTraffic:  r.cond["mem_traffic"].At(t),
		MemBound:    r.cond["mem_bound"].At(t),
	}}
}

// WorkerDemand implements sim.Script: worker i's recorded demand.
func (r *Replay) WorkerDemand(sh *sim.SharedStep, i int) float64 {
	if i < 0 || i >= len(r.workers) {
		return 0
	}
	return r.workers[i].At(sh.Time)
}

// AmbientAt implements sim.Script: the recorded ambient.
func (r *Replay) AmbientAt(sh *sim.SharedStep) float64 { return sh.Cond.AmbientC }

// ShapeSignature implements sim.Script. It is empty: a replay never shares
// a batch.
func (r *Replay) ShapeSignature() string { return "" }
