package fleet

import (
	"context"
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
	// lock-step through the batched SoA kernel (0 = DefaultBatchSize, 1 =
	// width-1 batches of the same kernel). Outputs are byte-identical at
	// any width, so the knob trades throughput against per-unit latency,
	// never results.
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
	// BaseSeed at the first run and kept, so repeated Run calls (and
	// RunCell probes) reuse its characterizations. Characterization is
	// lazy, so a fully warm store-served run never pays for it.
	devicesOnce sync.Once
	devices     *sched.Cache

	// lastMaxPending / lastMaxBuffered record the previous Run's
	// high-water marks of the collector's reorder window and the
	// planner's buffers — the observability hooks the bounded-memory
	// test asserts on. Written once after the pool drains.
	lastMaxPending  int
	lastMaxBuffered int
}

// cellOutcome is what one cell leaves behind for assembly.
type cellOutcome struct {
	cfg     CellConfig
	agg     *cellAgg
	metrics *CellMetrics
	err     string
	cached  bool
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
	coll := newCollector(spec.N)
	// Per-worker sim scratch is recycled through pooled arenas; the
	// collector returns each merged cell's aggregator to the pool — but
	// only on store-less runs: with a store attached the async writer may
	// still be marshalling an aggregate after the merge has folded it.
	coll.recycle = e.Store == nil
	var (
		mu   sync.Mutex
		done int
	)
	pool := sched.Pool{Workers: e.Workers}
	// Store writes leave the hot path: a bounded queue (a few units per
	// worker) feeds one writer goroutine, and workers block only when the
	// store falls that far behind.
	var writer *storeWriter
	if e.Store != nil {
		writer = e.startWriter(spec, 4*pool.Size(spec.N)*e.batchSize())
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
	coll.window = (flushWindowUnits + pool.Size(spec.N)) * e.batchSize()
	sched.Drain(pool, func() ([]int, bool) {
		coll.gate()
		return plan.nextUnit()
	}, func(unit []int) {
		outs := e.runBatchUnit(ctx, spec, pol, unit, writer)
		for j, out := range outs {
			coll.add(unit[j], out)
			if e.OnCellDone != nil {
				mu.Lock()
				done++
				e.OnCellDone(Progress{Done: done, Total: spec.N, Cell: out.cfg, Metrics: out.metrics, Err: out.err, Cached: out.cached})
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

// runCell executes one device cell; every failure mode becomes a collected
// outcome. With record set the full trace is retained (the replay path);
// the fleet path keeps only the aggregate.
func (e *Engine) runCell(ctx context.Context, spec Spec, pol sim.Policy, index int, record bool) cellOutcome {
	cfg := DeriveCell(spec, e.BaseSeed, index)
	out := cellOutcome{cfg: cfg}
	if ctx.Err() != nil {
		out.err = "fleet: cancelled before start"
		return out
	}
	runner, models, err := e.cache().Device(ctx, cfg.Platform)
	if err != nil {
		out.err = err.Error()
		return out
	}
	opt, agg, err := cellOptions(spec, pol, cfg, runner, models, record)
	if err != nil {
		out.err = err.Error()
		return out
	}
	res, err := sched.RunSafely(func() (*sim.Result, error) { return runner.Run(ctx, opt) })
	if err != nil {
		out.err = err.Error()
		return out
	}
	agg.finish(res)
	out.agg = agg
	out.metrics = agg.metrics()
	return out
}

// cellOptions compiles one device cell into executable run options plus its
// fresh aggregator: the cell's scenario perturbed onto its seeds and
// ambient shift, under the fleet's policy/constraint/period, observed by
// the per-sample fold.
func cellOptions(spec Spec, pol sim.Policy, cfg CellConfig, runner *sim.Runner, models *sim.Characterization, record bool) (sim.Options, *cellAgg, error) {
	desc := runner.Desc
	if desc == nil {
		desc = platform.Default()
	}
	sc, err := scenario.ByName(cfg.Scenario)
	if err != nil {
		return sim.Options{}, nil, err
	}
	script, err := scenario.Compile(sc.Perturbed(cfg.ScenarioSeed, cfg.AmbientShiftC, desc.Thermal.Ambient))
	if err != nil {
		return sim.Options{}, nil, err
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
	agg := newCellAgg(desc, spec.TMaxC)
	opt.Observer = agg.observe
	return opt, agg, nil
}

// RunCell simulates exactly one device of the population standalone — the
// cheap spot-check — and returns its fixed-size metrics. The cell runs the
// very configuration (and RNG streams) it would run inside the full fleet,
// so its metrics match the fleet's sample for sample.
func (e *Engine) RunCell(ctx context.Context, spec Spec, index int) (*CellMetrics, CellConfig, error) {
	out, err := e.cell(ctx, spec, index, false)
	if err != nil {
		return nil, out.cfg, err
	}
	return out.metrics, out.cfg, nil
}

// ReplayCell re-runs device `index` standalone with full trace recording:
// the returned result's recorder holds the complete per-interval series of
// the device, bit-identical to what the fleet's aggregator observed (both
// are fed from the same Sample values).
func (e *Engine) ReplayCell(ctx context.Context, spec Spec, index int) (*sim.Result, CellConfig, error) {
	out, err := e.cell(ctx, spec, index, true)
	if err != nil {
		return nil, out.cfg, err
	}
	return out.agg.res, out.cfg, nil
}

// cell is the shared single-cell path under RunCell and ReplayCell.
func (e *Engine) cell(ctx context.Context, spec Spec, index int, record bool) (cellOutcome, error) {
	if err := spec.Validate(); err != nil {
		return cellOutcome{}, err
	}
	spec = spec.normalized()
	if index < 0 || index >= spec.N {
		return cellOutcome{}, fmt.Errorf("fleet: cell index %d out of range [0, %d)", index, spec.N)
	}
	pol, err := sim.ParsePolicy(spec.Policy)
	if err != nil {
		return cellOutcome{}, err
	}
	if e.Store != nil {
		if record {
			cfg := DeriveCell(spec, e.BaseSeed, index)
			if out, ok := e.lookupTrace(spec, cfg); ok {
				return out, nil
			}
		} else if out, ok := e.lookupCell(spec, index); ok {
			return out, nil
		}
	}
	out := e.runCell(ctx, spec, pol, index, record)
	if out.err != "" {
		return out, fmt.Errorf("fleet: cell %d: %s", index, out.err)
	}
	if e.Store != nil {
		if record {
			e.putTrace(spec, out)
		} else {
			e.putCell(spec, out)
		}
	}
	return out, nil
}

// collector assembles the aggregate report incrementally while cells are
// still running. Completed outcomes are parked in a pending window under a
// lock and merged the moment every lower-indexed cell has been merged too
// — so the merge happens strictly in cell-index order (the
// byte-determinism contract) while each cell's aggregator (its histogram
// backing) is recycled as soon as it is folded in. The pending window is
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

	// recycle returns merged aggregators to the arena pool. Disabled on
	// store-backed runs: the async writer may still be marshalling an
	// aggregate after the merge folded it.
	recycle bool
	// window caps the pending map: gate blocks unit hand-out while the
	// window is full (0 = ungated). Must exceed the planner's flush window
	// so the frontier cell is always in flight whenever gate blocks.
	window int
	// maxPending is the high-water mark of the pending window — the
	// bounded-memory test asserts it stays under the gate's window plus
	// one in-flight unit per worker at any population size.
	maxPending int
}

func newCollector(n int) *collector {
	c := &collector{
		n:       n,
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
			g.merge(o.agg, o.metrics)
			c.overall.merge(o.agg, o.metrics)
			c.completed++
		}
		if c.recycle {
			releaseCellAgg(o.agg)
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
