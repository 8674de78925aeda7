// Package kernel is the simulated operating-system substrate the DTPM
// framework plugs into (Figure 3.1): a run queue of tasks, a load balancer
// that spreads them over the online cores of the active cluster, task
// migration on hotplug and cluster switches, and execution-time accounting.
//
// The paper implements its algorithm inside Linux 3.4.76; the scheduler
// behaviours that matter to the evaluation are reproduced here: "the tasks
// running on this core are migrated to the other cores by the kernel"
// (§5.2) and "the kernel of modern platforms already considers scheduling
// and migration techniques such as load balancer" (§2).
package kernel

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/platform"
	"repro/internal/workload"
)

// Task is one schedulable entity.
type Task struct {
	Name string
	// Demand returns the demanded fraction of workload.RefCapacity at time
	// t (seconds).
	Demand func(t float64) float64
	// MemBound in [0, 1) is the fraction of the task's execution time spent
	// stalled on memory at the reference configuration. Memory stalls do not
	// speed up with core frequency, so a task's progress scales sublinearly
	// with DVFS (the roofline effect): time per unit work at speed ratio
	// rho is (1-MemBound)/rho + MemBound. Zero means fully compute-bound.
	MemBound float64
	// WorkLeft is the remaining work in reference cycles; math.Inf(1) for
	// open-ended tasks (background daemons).
	WorkLeft float64
	// Done is set when WorkLeft reaches zero; the completion time is
	// recorded in FinishedAt.
	Done       bool
	FinishedAt float64

	core   int     // current core assignment
	demand float64 // cached demand for the current TickWith interval
}

// Foreground reports whether the task is work-bound (finite work).
func (t *Task) Foreground() bool { return !math.IsInf(t.WorkLeft, 1) }

// Sched is the simulated scheduler.
type Sched struct {
	tasks []*Task
	now   float64

	// Reusable per-tick buffers: Tick and rebalance run every 100 ms
	// control interval, so the task groupings are kept across calls
	// (truncated, never freed) instead of reallocated each tick. They are
	// sized to the widest cluster seen so far (grow grows them).
	perCore   [][]*Task
	load      []float64
	coreUtil  []float64
	displaced []*Task
}

// NewSched returns an empty scheduler.
func NewSched() *Sched { return &Sched{} }

// Reserve preallocates for nTasks tasks on clusters up to nCores wide, so
// the Add calls and the first Tick perform no incremental growth (the
// simulation loop builds one Sched per run and knows both numbers
// up front).
func (s *Sched) Reserve(nTasks, nCores int) {
	if cap(s.tasks) < nTasks {
		grown := make([]*Task, len(s.tasks), nTasks)
		copy(grown, s.tasks)
		s.tasks = grown
	}
	if cap(s.displaced) < nTasks {
		s.displaced = make([]*Task, 0, nTasks)
	}
	s.grow(nCores)
	// Give every per-core grouping row its worst-case capacity (all tasks
	// on one core) from one flat slab, so the first ticks never grow them
	// append by append. Skipped entirely when a recycled scheduler already
	// has the capacity.
	need := false
	for c := 0; c < nCores; c++ {
		if cap(s.perCore[c]) < nTasks {
			need = true
			break
		}
	}
	if need {
		rows := make([]*Task, nCores*nTasks)
		for c := 0; c < nCores; c++ {
			s.perCore[c] = rows[c*nTasks : c*nTasks : (c+1)*nTasks]
		}
	}
}

// Reset empties the scheduler for reuse: tasks are dropped, the clock
// rewinds to zero, and the grown per-tick buffers keep their capacity — a
// reset scheduler behaves exactly like NewSched(), allocation-free on its
// next Reserve/Add cycle. Task references are cleared from every retained
// buffer so a pooled scheduler does not pin a previous run's tasks.
func (s *Sched) Reset() {
	clear(s.tasks)
	s.tasks = s.tasks[:0]
	s.now = 0
	clear(s.displaced[:cap(s.displaced)])
	s.displaced = s.displaced[:0]
	for c := range s.perCore {
		row := s.perCore[c]
		clear(row[:cap(row)])
		s.perCore[c] = row[:0]
	}
}

// grow ensures the per-core buffers cover n cores.
func (s *Sched) grow(n int) {
	if n <= len(s.perCore) {
		return
	}
	old := s.perCore
	s.perCore = make([][]*Task, n)
	copy(s.perCore, old)
	flat := make([]float64, 2*n)
	copy(flat[:n], s.load)
	copy(flat[n:], s.coreUtil)
	s.load = flat[0:n:n]
	s.coreUtil = flat[n : 2*n : 2*n]
}

// Add inserts a task, assigning it to the least-loaded core lazily at the
// next tick (core -1 means unassigned).
func (s *Sched) Add(t *Task) {
	t.core = -1
	s.tasks = append(s.tasks, t)
}

// AllForegroundDone reports whether every work-bound task has finished.
func (s *Sched) AllForegroundDone() bool {
	for _, t := range s.tasks {
		if t.Foreground() && !t.Done {
			return false
		}
	}
	return true
}

// LastFinish returns the latest completion time over the foreground tasks,
// or -1 if any is still running.
func (s *Sched) LastFinish() float64 {
	last := 0.0
	for _, t := range s.tasks {
		if !t.Foreground() {
			continue
		}
		if !t.Done {
			return -1
		}
		if t.FinishedAt > last {
			last = t.FinishedAt
		}
	}
	return last
}

// TickResult is the outcome of one scheduler interval.
type TickResult struct {
	// CoreUtil is the realized utilization of each core in [0, 1], one
	// entry per core of the ticked cluster. The slice aliases a Sched
	// buffer reused by the next Tick; copy it to retain a sample.
	CoreUtil []float64
	// WorkDone is the total reference cycles retired this tick.
	WorkDone float64
	// Saturated reports whether any core had more demand than capacity
	// (i.e. the workload is being slowed down).
	Saturated bool
}

// rebalance assigns every runnable task to an online core, keeping existing
// placements when possible (cache affinity) and moving tasks away from
// offline cores. New and displaced tasks go to the least-loaded core,
// mirroring the kernel load balancer.
func (s *Sched) rebalance(cluster *platform.Cluster) {
	n := cluster.NumCores()
	s.grow(n)
	load := s.load[:n]
	for i := range load {
		load[i] = 0
	}
	displaced := s.displaced[:0]
	for _, t := range s.tasks {
		if t.Done {
			continue
		}
		if t.core >= 0 && t.core < n && cluster.CoreOnline(t.core) {
			load[t.core] += t.Demand(s.now)
		} else {
			displaced = append(displaced, t)
		}
	}
	s.displaced = displaced // keep the (possibly regrown) buffer for reuse
	// Deterministic order: heaviest demand first onto least-loaded cores.
	// (Guarded: the reflection-based sort allocates even for an empty
	// slice, and on a steady-state tick nothing is displaced.)
	if len(displaced) > 1 {
		sort.SliceStable(displaced, func(i, j int) bool {
			return displaced[i].Demand(s.now) > displaced[j].Demand(s.now)
		})
	}
	for _, t := range displaced {
		best, bestLoad := -1, math.Inf(1)
		for c := 0; c < n; c++ {
			if !cluster.CoreOnline(c) {
				continue
			}
			if load[c] < bestLoad {
				best, bestLoad = c, load[c]
			}
		}
		if best < 0 {
			// No core online: cannot happen (platform keeps one online).
			panic("kernel: no online core to place task")
		}
		t.core = best
		load[best] += t.Demand(s.now)
	}
}

// MigrateAll forces every task off its core (used on cluster switches).
func (s *Sched) MigrateAll() {
	for _, t := range s.tasks {
		t.core = -1
	}
}

// Tick advances the scheduler by dt seconds on the given cluster.
//
// A task demanding fraction d of workload.RefCapacity needs, per second of
// wall time, d * ((1-MemBound)/rho + MemBound) seconds of core time, where
// rho = freq*IPC/RefCapacity is the core's speed ratio: compute cycles
// stretch when the core is slower, memory-stall time does not. When the
// core-time demands on a core exceed one, the runnable tasks share the core
// proportionally and the benchmark is slowed down (this is where throttling
// costs performance).
func (s *Sched) Tick(dt float64, cluster *platform.Cluster) TickResult {
	var res TickResult
	if dt <= 0 {
		return res
	}
	s.rebalance(cluster)
	n := cluster.NumCores()
	rho := cluster.Freq().Hz() * cluster.IPC / workload.RefCapacity // speed ratio

	// Group runnable tasks per core (reusing the per-core buffers).
	perCore := s.perCore[:n]
	for c := range perCore {
		perCore[c] = perCore[c][:0]
	}
	for _, t := range s.tasks {
		if t.Done {
			continue
		}
		perCore[t.core] = append(perCore[t.core], t)
	}
	res.CoreUtil = s.coreUtil[:n]
	for i := range res.CoreUtil {
		res.CoreUtil[i] = 0
	}
	coreTime := func(t *Task) float64 {
		return t.Demand(s.now) * ((1-t.MemBound)/rho + t.MemBound)
	}
	for c := 0; c < n; c++ {
		if len(perCore[c]) == 0 {
			continue
		}
		need := 0.0
		for _, t := range perCore[c] {
			need += coreTime(t)
		}
		if need <= 0 {
			continue
		}
		util := need
		scale := 1.0
		if util > 1 {
			scale = 1 / util
			util = 1
			res.Saturated = true
		}
		res.CoreUtil[c] = util
		for _, t := range perCore[c] {
			cycles := t.Demand(s.now) * workload.RefCapacity * scale * dt
			res.WorkDone += cycles
			if t.Foreground() {
				t.WorkLeft -= cycles
				if t.WorkLeft <= 0 {
					t.WorkLeft = 0
					t.Done = true
					// Linear interpolation of the finish instant inside
					// the tick would need per-task bookkeeping; end of
					// tick is accurate to dt (100 ms), plenty for the
					// paper's second-scale execution times.
					t.FinishedAt = s.now + dt
				}
			}
		}
	}
	s.now += dt
	return res
}

// TickWith advances the scheduler exactly like Tick, but reads each task's
// demand from demands — demands[j] belongs to the j-th Add-ed task — instead
// of calling the Demand closures. Tick evaluates every runnable task's
// closure up to three times per interval (load accounting, displacement
// sort, core-time and cycle math); TickWith evaluates each exactly zero
// times, which is what lets the batched fleet kernel compute the
// device-independent part of scripted demand once per batch.
//
// The contract is byte-identity with Tick: the caller guarantees
// demands[j] == tasks[j].Demand(now) bitwise for this interval, now being
// the scheduler clock. That holds only for pure demand functions (scripted
// scenarios, background levels frozen for the tick); benchmark generators
// advance RNG state on every call and MUST keep using Tick.
func (s *Sched) TickWith(dt float64, cluster *platform.Cluster, demands []float64) TickResult {
	var res TickResult
	if dt <= 0 {
		return res
	}
	if len(demands) != len(s.tasks) {
		panic(fmt.Sprintf("kernel: TickWith got %d demands for %d tasks", len(demands), len(s.tasks)))
	}
	for j, t := range s.tasks {
		t.demand = demands[j]
	}
	s.rebalanceCached(cluster)
	n := cluster.NumCores()
	rho := cluster.Freq().Hz() * cluster.IPC / workload.RefCapacity // speed ratio

	perCore := s.perCore[:n]
	for c := range perCore {
		perCore[c] = perCore[c][:0]
	}
	for _, t := range s.tasks {
		if t.Done {
			continue
		}
		perCore[t.core] = append(perCore[t.core], t)
	}
	res.CoreUtil = s.coreUtil[:n]
	for i := range res.CoreUtil {
		res.CoreUtil[i] = 0
	}
	for c := 0; c < n; c++ {
		if len(perCore[c]) == 0 {
			continue
		}
		need := 0.0
		for _, t := range perCore[c] {
			need += t.demand * ((1-t.MemBound)/rho + t.MemBound)
		}
		if need <= 0 {
			continue
		}
		util := need
		scale := 1.0
		if util > 1 {
			scale = 1 / util
			util = 1
			res.Saturated = true
		}
		res.CoreUtil[c] = util
		for _, t := range perCore[c] {
			cycles := t.demand * workload.RefCapacity * scale * dt
			res.WorkDone += cycles
			if t.Foreground() {
				t.WorkLeft -= cycles
				if t.WorkLeft <= 0 {
					t.WorkLeft = 0
					t.Done = true
					t.FinishedAt = s.now + dt
				}
			}
		}
	}
	s.now += dt
	return res
}

// rebalanceCached is rebalance over the demands cached by TickWith. On the
// common steady-state tick (no task displaced) it additionally skips the
// per-core load accounting entirely: load is recomputed from scratch every
// call and consumed only by displacement placement, so with nothing to
// place it is dead work.
func (s *Sched) rebalanceCached(cluster *platform.Cluster) {
	n := cluster.NumCores()
	s.grow(n)
	displaced := s.displaced[:0]
	for _, t := range s.tasks {
		if t.Done {
			continue
		}
		if !(t.core >= 0 && t.core < n && cluster.CoreOnline(t.core)) {
			displaced = append(displaced, t)
		}
	}
	s.displaced = displaced // keep the (possibly regrown) buffer for reuse
	if len(displaced) == 0 {
		return
	}
	load := s.load[:n]
	for i := range load {
		load[i] = 0
	}
	for _, t := range s.tasks {
		if t.Done {
			continue
		}
		if t.core >= 0 && t.core < n && cluster.CoreOnline(t.core) {
			load[t.core] += t.demand
		}
	}
	// Deterministic order: heaviest demand first onto least-loaded cores.
	// Stable sort over the same key values Tick's comparator re-evaluates,
	// so the placement permutation is identical.
	if len(displaced) > 1 {
		sort.SliceStable(displaced, func(i, j int) bool {
			return displaced[i].demand > displaced[j].demand
		})
	}
	for _, t := range displaced {
		best, bestLoad := -1, math.Inf(1)
		for c := 0; c < n; c++ {
			if !cluster.CoreOnline(c) {
				continue
			}
			if load[c] < bestLoad {
				best, bestLoad = c, load[c]
			}
		}
		if best < 0 {
			// No core online: cannot happen (platform keeps one online).
			panic("kernel: no online core to place task")
		}
		t.core = best
		load[best] += t.demand
	}
}

// String summarizes the scheduler state.
func (s *Sched) String() string {
	running := 0
	for _, t := range s.tasks {
		if !t.Done {
			running++
		}
	}
	return fmt.Sprintf("kernel: t=%.1fs tasks=%d running=%d", s.now, len(s.tasks), running)
}
