package fleet

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/platform"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/store"
)

// Progress is one live per-device event: emitted serially (never
// concurrently) as each cell of a running fleet finishes, in completion
// order. Metrics is nil for a failed cell.
type Progress struct {
	// Done / Total count completed cells and the population size.
	Done, Total int
	// Cell is the device that finished.
	Cell CellConfig
	// Metrics is the device's fixed-size outcome (nil on failure).
	Metrics *CellMetrics
	// Err is the collected failure ("" on success).
	Err string
	// Cached reports that the cell was served from the result store
	// instead of being simulated. Cached cells are byte-identical to
	// computed ones, so this is telemetry only — it never appears in the
	// report.
	Cached bool
}

// Engine runs device populations over the shared sched worker pool.
type Engine struct {
	// Workers is the pool size; <= 0 means GOMAXPROCS.
	Workers int
	// Runner is the anchor device (nil = sim.NewRunner()): cells whose
	// platform matches it run on it directly, every other platform is
	// characterized once per engine and cached.
	Runner *sim.Runner
	// Models is the anchor device's characterization; nil means Run
	// characterizes it on first need (at BaseSeed), like every other
	// platform. The engine keeps lazily made models to itself: they are
	// never written back into Models.
	Models *sim.Characterization
	// BaseSeed anchors the whole population draw and every derived
	// simulation seed.
	BaseSeed int64
	// OnCellDone, when set, receives a Progress event after each cell,
	// serially.
	OnCellDone func(Progress)
	// BatchSize caps how many same-(platform, scenario) cells Run steps in
	// lock-step through the batched SoA kernel. 0, the setting every
	// program path uses, means DefaultBatchSize, the fastest measured
	// width. 1 runs width-1 batches of the same kernel: the reference
	// side of the throughput ratio benchmark and of the bench harness's
	// oracle. Outputs are byte-identical at any width.
	BatchSize int
	// Store, when set, makes cell execution lookup-or-compute: each
	// cell's normalized configuration is hashed to a content address,
	// computed results are persisted under it, and later runs of an
	// identical cell are served from the store instead of simulated.
	// Determinism is byte-exact, so a warm run's report is byte-identical
	// to a cold one — the store changes wall-clock time, never results.
	Store *store.Store

	// devices resolves every cell's runner, characterization and store
	// provenance tag (see sched.Cache). It is built from Runner, Models and
	// BaseSeed at the first run and kept, so repeated Run and ReplayCell
	// calls reuse its characterizations. Characterization is
	// lazy, so a fully warm store-served run never pays for it.
	devicesOnce sync.Once
	devices     *sched.Cache

	// aggs recycles the dense per-cell aggregators, which live only
	// inside one kernel call (at most workers × batch width at once);
	// sums recycles the compact cells, which live until the collector
	// merges them (at most the pending window plus the cells in flight).
	// Run sets both limits and stocks sums up front, so a stalled merge
	// frontier draws on cells the engine already holds.
	aggs freeList[cellAgg, *cellAgg]
	sums freeList[cellSums, *cellSums]

	// lastMaxPending / lastMaxBuffered record the previous Run's
	// high-water marks of the collector's reorder window and the
	// planner's buffers — the observability hooks the bounded-memory
	// test asserts on. Written once after the pool drains.
	lastMaxPending  int
	lastMaxBuffered int
}

// cellOutcome is what one cell leaves behind for assembly: its compact
// sums, or the error it failed with.
type cellOutcome struct {
	cfg    CellConfig
	sums   *cellSums
	err    string
	cached bool
}

// cache returns the engine's device resolver, building it on first use.
func (e *Engine) cache() *sched.Cache {
	e.devicesOnce.Do(func() { e.devices = sched.NewCache(e.Runner, e.Models, e.BaseSeed) })
	return e.devices
}

// Run simulates the whole population and returns the aggregate report.
// Individual cell failures are collected in the report, never aborting the
// fleet. On cancellation the partial report — aggregated over the cells
// that completed, the rest collected as cancelled — comes back with an
// error wrapping sim.ErrCancelled.
func (e *Engine) Run(ctx context.Context, spec Spec) (*Report, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	spec = spec.normalized()
	pol, err := sim.ParsePolicy(spec.Policy)
	if err != nil {
		return nil, err
	}
	// Per-worker sim scratch is recycled through pooled arenas, and the
	// collector returns each merged cell's sums to the engine's free list.
	coll := newCollector(spec.N, &e.sums)
	var (
		mu   sync.Mutex
		done int
	)
	pool := sched.Pool{Workers: e.Workers}
	// Store writes leave the hot path: a bounded queue (a few units per
	// worker) feeds one writer goroutine, and workers block only when the
	// store falls that far behind.
	var (
		writer *storeWriter
		keys   cellKeys
	)
	if e.Store != nil {
		writer = e.startWriter(4 * pool.Size(spec.N) * e.batchSize())
		keys = e.newCellKeys(spec, "fleet-cell")
	}
	// Work units pack same-(platform, scenario) cells for the batched
	// kernel, derived lazily in (platform, scenario) grouped chunks; every
	// unit is one kernel call, so BatchSize 1 degenerates to a per-cell
	// fan-out of width-1 batches.
	plan := newUnitPlanner(spec, e.BaseSeed, e.batchSize())
	// Backpressure: a worker may not take a new unit while the collector's
	// pending window is full. Without this the reorder window is bounded
	// only by goroutine scheduling fairness — a preempted worker holding
	// the frontier unit lets its peers complete a full scheduler slice of
	// cells each — which on a loaded box scales with throughput, not with
	// the pool. The gate cannot deadlock: once pending exceeds the
	// planner's flush window the frontier cell is necessarily in flight
	// with a worker (a buffered frontier would cap pending at the flush
	// window), and that worker finishes and merges without ever gating.
	workers := pool.Size(spec.N)
	coll.window = (flushWindowUnits + workers) * e.batchSize()
	// A worker gates only while pending < window and then holds at most
	// one unit, so no more than window + workers × width sums are ever
	// out at once.
	e.aggs.setLimit(workers * e.batchSize())
	e.sums.setLimit(coll.window + workers*e.batchSize())
	e.sums.stock(spec.N)
	sched.Drain(pool, func() ([]int, bool) {
		coll.gate()
		return plan.nextUnit()
	}, func(unit []int) {
		outs := e.runBatchUnit(ctx, spec, pol, unit, keys, writer)
		for j, out := range outs {
			// The merge recycles the sums, so the event gets a copy of
			// the metrics taken before the add.
			var m *CellMetrics
			if e.OnCellDone != nil && out.sums != nil {
				m = new(CellMetrics)
				*m = out.sums.metrics
			}
			coll.add(unit[j], out)
			if e.OnCellDone != nil {
				mu.Lock()
				done++
				e.OnCellDone(Progress{Done: done, Total: spec.N, Cell: out.cfg, Metrics: m, Err: out.err, Cached: out.cached})
				mu.Unlock()
			}
		}
	})
	writer.close() // drain every queued store write, cancelled or not
	e.lastMaxPending, e.lastMaxBuffered = coll.maxPending, plan.maxBuffered
	rep := coll.report(spec, e.BaseSeed)
	if cause := context.Cause(ctx); cause != nil {
		return rep, fmt.Errorf("fleet: %w (%w)", sim.ErrCancelled, cause)
	}
	return rep, nil
}

// runCell runs device cfg standalone with full trace recording.
func (e *Engine) runCell(ctx context.Context, spec Spec, pol sim.Policy, cfg CellConfig) (*sim.Result, error) {
	if ctx.Err() != nil {
		return nil, errors.New("fleet: cancelled before start")
	}
	runner, models, err := e.cache().Device(ctx, cfg.Platform)
	if err != nil {
		return nil, err
	}
	opt, err := cellOptions(spec, pol, cfg, runner, models, true)
	if err != nil {
		return nil, err
	}
	return sched.RunSafely(func() (*sim.Result, error) { return runner.Run(ctx, opt) })
}

// cellOptions compiles one device cell into executable run options: the
// cell's scenario perturbed onto its seeds and ambient shift, under the
// fleet's policy/constraint/period. The caller attaches any observer.
func cellOptions(spec Spec, pol sim.Policy, cfg CellConfig, runner *sim.Runner, models *sim.Characterization, record bool) (sim.Options, error) {
	desc := runner.Desc
	if desc == nil {
		desc = platform.Default()
	}
	sc, err := scenario.ByName(cfg.Scenario)
	if err != nil {
		return sim.Options{}, err
	}
	script, err := scenario.Compile(sc.Perturbed(cfg.ScenarioSeed, cfg.AmbientShiftC, desc.Thermal.Ambient))
	if err != nil {
		return sim.Options{}, err
	}
	opt := sim.Options{
		Policy:        pol,
		Script:        script,
		Seed:          cfg.Seed,
		TMax:          spec.TMaxC,
		ControlPeriod: spec.ControlPeriodS,
		Record:        record,
	}
	if models != nil {
		opt.Model = models.Thermal
		opt.PowerModel = models.Power
	}
	return opt, nil
}

// ReplayCell re-runs device `index` standalone with full trace recording:
// the returned result's recorder holds the complete per-interval series of
// the device, bit-identical to what the fleet's aggregator observed (both
// are fed from the same Sample values). With a store attached the trace is
// served from it when present and persisted after a run.
func (e *Engine) ReplayCell(ctx context.Context, spec Spec, index int) (*sim.Result, CellConfig, error) {
	if err := spec.Validate(); err != nil {
		return nil, CellConfig{}, err
	}
	spec = spec.normalized()
	if index < 0 || index >= spec.N {
		return nil, CellConfig{}, fmt.Errorf("fleet: cell index %d out of range [0, %d)", index, spec.N)
	}
	pol, err := sim.ParsePolicy(spec.Policy)
	if err != nil {
		return nil, CellConfig{}, err
	}
	cfg := DeriveCell(spec, e.BaseSeed, index)
	if e.Store != nil {
		if res, ok := e.lookupTrace(spec, cfg); ok {
			return res, cfg, nil
		}
	}
	res, err := e.runCell(ctx, spec, pol, cfg)
	if err != nil {
		return nil, cfg, fmt.Errorf("fleet: cell %d: %w", index, err)
	}
	if e.Store != nil {
		e.putTrace(spec, cfg, res)
	}
	return res, cfg, nil
}

// collector assembles the aggregate report incrementally while cells are
// still running. Completed outcomes are parked in a pending window under a
// lock and merged the moment every lower-indexed cell has been merged too
// — so the merge happens strictly in cell-index order (the
// byte-determinism contract) while each cell's compact sums go back to the
// engine's free list as soon as they are folded in. The pending window is
// hard-bounded by the gate: workers wait for window room before taking a
// new unit, so pending stays O(flush window + workers × batch), never
// O(N) — that, not a cells-length slice, is what lets a million-device
// fleet run in memory independent of N. Only the per-group scalar tails
// (one energy / perf-loss / throttle value per completed cell, for the
// exact percentiles the report promises) and the failure list still grow
// with the population.
type collector struct {
	mu        sync.Mutex
	cond      *sync.Cond // signalled whenever the merge frontier advances
	n         int
	pending   map[int]cellOutcome // completed but not yet merged
	next      int                 // first index not yet merged
	completed int
	failures  []CellFailure // collected at merge time, so index order
	overall   *groupAgg
	groups    map[[2]string]*groupAgg
	keys      [][2]string
	free      *freeList[cellSums, *cellSums] // where merged sums go

	// window caps the pending map: gate blocks unit hand-out while the
	// window is full (0 = ungated). Must exceed the planner's flush window
	// so the frontier cell is always in flight whenever gate blocks.
	window int
	// maxPending is the high-water mark of the pending window — the
	// bounded-memory test asserts it stays under the gate's window plus
	// one in-flight unit per worker at any population size.
	maxPending int
}

func newCollector(n int, free *freeList[cellSums, *cellSums]) *collector {
	c := &collector{
		n:       n,
		free:    free,
		pending: map[int]cellOutcome{},
		overall: newGroupAgg("all", "all"),
		groups:  map[[2]string]*groupAgg{},
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// gate blocks until the pending window has room for another unit's cells.
// Callers hold no unit when they gate, so the worker running the frontier
// unit always proceeds to add — which advances the frontier and wakes the
// gate. See Run for the no-deadlock argument.
func (c *collector) gate() {
	if c.window <= 0 {
		return
	}
	c.mu.Lock()
	for len(c.pending) >= c.window {
		c.cond.Wait()
	}
	c.mu.Unlock()
}

// add records cell i's outcome and advances the in-order merge frontier.
func (c *collector) add(i int, out cellOutcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pending[i] = out
	if len(c.pending) > c.maxPending {
		c.maxPending = len(c.pending)
	}
	for {
		o, ok := c.pending[c.next]
		if !ok {
			break
		}
		delete(c.pending, c.next)
		if o.err != "" {
			c.failures = append(c.failures, CellFailure{Cell: o.cfg, Err: o.err})
		} else {
			key := [2]string{o.cfg.Platform, o.cfg.Scenario}
			g, ok := c.groups[key]
			if !ok {
				g = newGroupAgg(key[0], key[1])
				c.groups[key] = g
				c.keys = append(c.keys, key)
			}
			g.merge(o.sums)
			c.overall.merge(o.sums)
			c.completed++
			c.free.put(o.sums)
		}
		c.next++
	}
	c.cond.Broadcast()
}

// report finalizes the deterministic aggregate report. Every cell has been
// added by the time the pool drains, so the merge frontier has passed the
// whole population.
func (c *collector) report(spec Spec, baseSeed int64) *Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	rep := &Report{
		Name:      spec.Name,
		BaseSeed:  baseSeed,
		Policy:    spec.Policy,
		TMaxC:     spec.TMaxC,
		Cells:     c.n,
		Completed: c.completed,
		Failures:  c.failures,
	}
	sort.Slice(c.keys, func(i, j int) bool {
		if c.keys[i][0] != c.keys[j][0] {
			return c.keys[i][0] < c.keys[j][0]
		}
		return c.keys[i][1] < c.keys[j][1]
	})
	for _, k := range c.keys {
		rep.Groups = append(rep.Groups, c.groups[k].report())
	}
	rep.Overall = c.overall.report()
	return rep
}
