// Package campaign is the concurrent simulation-campaign engine: it fans a
// declarative grid of {policy × workload × platform × governor × seed}
// cells out across a worker pool, runs each cell through sim.Run, and
// aggregates the fixed-size per-cell metrics in bounded memory (no traces
// are retained). Engine.RunContext is the one run loop; live progress is
// its OnCellDone callback, which sees every cell that ran, failures
// included. The workload axis is either a Table 6.4 benchmark or a
// named scenario (a compiled multi-phase sim.Script); the two axes are
// alternatives. The platform axis selects registered platform descriptors.
//
// Devices resolve through sched.Cache, under the same rule as the fleet
// engine: cells of the engine's own device (the empty platform coordinate
// or its platform's name) run on it with the injected Models; every other
// case — including an engine given nil Models — is characterized once, at
// the base seed, on first need, and its models are shared by all of its
// cells. So every cell runs with models: DTPM cells can always control,
// and every cell gets the §6.3.1 prediction-accuracy accounting.
//
// Determinism is the core contract: every cell derives its own RNG seed
// from the campaign base seed and the cell's coordinates alone, and sim.Run
// never shares mutable state between runs, so a campaign produces
// bit-identical results at any parallelism level — 1 worker, 8 workers, or
// one worker per cell. Cell failures are collected in the report instead of
// aborting the sweep.
package campaign

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/platform"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

// Grid declares a campaign as the cartesian product of its axes. Axes left
// empty are treated as a single default entry (the paper's configuration),
// so the zero value of an axis never silently empties the whole grid.
type Grid struct {
	// Policies are the management configurations to sweep.
	Policies []sim.Policy `json:"policies"`
	// Benchmarks are workload names resolved through workload.ByName.
	Benchmarks []string `json:"benchmarks"`
	// Scenarios are named multi-phase scenarios resolved through
	// scenario.ByName — the alternative workload axis. Declare Benchmarks
	// or Scenarios, not both: a cell carrying both coordinates is a
	// collected error.
	Scenarios []string `json:"scenarios,omitempty"`
	// Platforms are registered platform-descriptor names (platform.Names);
	// empty means the engine's own device only. Every platform without
	// injected models is characterized once (at the campaign base seed)
	// before its first computed cell runs.
	Platforms []string `json:"platforms,omitempty"`
	// Governors are default-governor names ("" = ondemand).
	Governors []string `json:"governors"`
	// Seeds are replicate seeds; each is mixed with the cell coordinates
	// (see DeriveSeed) to decorrelate the noise streams across cells.
	Seeds []int64 `json:"seeds"`
	// TMax are thermal constraints in °C (0 = the paper's 63 °C).
	TMax []float64 `json:"tmax"`
}

// normalizedCell resolves defaulted coordinates to their explicit values
// ("" governor = ondemand, 0 TMax = the paper's 63 °C) so that physically
// identical cells derive identical seeds and exports record the
// configuration the simulation actually enforced.
//
// The platform coordinate is deliberately NOT defaulted here: an empty
// platform means "the engine's own device" — which need not be the
// registry default when the caller built the engine around a non-default
// runner (Device.RunCampaign on a NewDeviceFor device). runCell resolves
// it against the engine and stamps the actual platform name into the
// exported cell.
func normalizedCell(c Cell) Cell {
	if c.Governor == "" {
		c.Governor = "ondemand"
	}
	if c.TMax == 0 {
		c.TMax = 63
	}
	return c
}

// normalized returns the grid with every empty axis replaced by its single
// default entry. The workload axes default together: with scenarios
// declared the benchmark axis collapses to the empty marker, and vice
// versa, so a scenario sweep never silently gains a benchmark dimension.
func (g Grid) normalized() Grid {
	if len(g.Policies) == 0 {
		g.Policies = []sim.Policy{sim.PolicyDTPM}
	}
	if len(g.Benchmarks) == 0 && len(g.Scenarios) == 0 {
		g.Benchmarks = []string{"templerun"}
	}
	if len(g.Benchmarks) == 0 {
		g.Benchmarks = []string{""}
	}
	if len(g.Scenarios) == 0 {
		g.Scenarios = []string{""}
	}
	if len(g.Platforms) == 0 {
		g.Platforms = []string{""}
	}
	if len(g.Governors) == 0 {
		g.Governors = []string{""}
	}
	if len(g.Seeds) == 0 {
		g.Seeds = []int64{1}
	}
	if len(g.TMax) == 0 {
		g.TMax = []float64{0}
	}
	return g
}

// Size returns the number of cells in the grid.
func (g Grid) Size() int {
	g = g.normalized()
	return len(g.Policies) * len(g.Benchmarks) * len(g.Scenarios) * len(g.Platforms) * len(g.Governors) * len(g.Seeds) * len(g.TMax)
}

// Cells expands the grid into its cells in a deterministic row-major order
// (policy outermost, TMax innermost). Cell.Index is the position in this
// order and identifies the cell across exports. Every cell is normalized:
// a grid declaring governor "" or TMax 0 produces exactly the cells (and
// derived seeds) of one declaring "ondemand" / 63.
func (g Grid) Cells() []Cell {
	g = g.normalized()
	cells := make([]Cell, 0, g.Size())
	for _, pol := range g.Policies {
		for _, bench := range g.Benchmarks {
			for _, scen := range g.Scenarios {
				for _, plat := range g.Platforms {
					for _, gov := range g.Governors {
						for _, seed := range g.Seeds {
							for _, tmax := range g.TMax {
								c := normalizedCell(Cell{
									Index:     len(cells),
									Policy:    pol,
									Benchmark: bench,
									Scenario:  scen,
									Platform:  plat,
									Governor:  gov,
									Seed:      seed,
									TMax:      tmax,
								})
								cells = append(cells, c)
							}
						}
					}
				}
			}
		}
	}
	return cells
}

// Cell is one point of the grid. Exactly one of Benchmark/Scenario names
// the workload.
type Cell struct {
	Index     int        `json:"index"`
	Policy    sim.Policy `json:"policy"`
	Benchmark string     `json:"benchmark"`
	Scenario  string     `json:"scenario,omitempty"`
	Platform  string     `json:"platform"`
	Governor  string     `json:"governor"`
	Seed      int64      `json:"seed"`
	TMax      float64    `json:"tmax"`
}

// Workload names the cell's workload coordinate regardless of axis.
func (c Cell) Workload() string {
	if c.Scenario != "" {
		return "scenario:" + c.Scenario
	}
	return c.Benchmark
}

// String renders the cell coordinates compactly; the platform appears only
// when explicitly non-default (keeping classic progress lines unchanged).
func (c Cell) String() string {
	c = normalizedCell(c)
	plat := ""
	if c.Platform != "" && c.Platform != platform.DefaultName {
		plat = "/" + c.Platform
	}
	return fmt.Sprintf("%s/%s%s/%s/seed%d/tmax%g", c.Policy, c.Workload(), plat, c.Governor, c.Seed, c.TMax)
}

// DeriveSeed maps the campaign base seed and a cell to the seed its
// simulation runs with. The mix is a splitmix64-style finalizer over the
// base seed, the cell's replicate seed, and an FNV-1a hash of the cell's
// normalized categorical coordinates: the derived stream depends only on
// the physical configuration the cell runs — never on worker count,
// execution order, or whether a default was spelled out — and two cells
// never share a noise stream just because they share a replicate seed.
func DeriveSeed(base int64, c Cell) int64 {
	c = normalizedCell(c)
	const (
		fnvOffset = 0xcbf29ce484222325
		fnvPrime  = 0x100000001b3
	)
	h := uint64(fnvOffset)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= fnvPrime
		}
		h ^= 0xff // field separator
		h *= fnvPrime
	}
	mix(c.Policy.String())
	mix(c.Benchmark)
	// Scenario cells prefix-tag their coordinate; plain benchmark cells
	// skip the mix entirely so every pre-scenario derived stream is
	// preserved verbatim. Platforms follow the same rule: default-platform
	// cells derive exactly the streams they did before the platform axis
	// existed.
	if c.Scenario != "" {
		mix("scenario:" + c.Scenario)
	}
	if c.Platform != "" && c.Platform != platform.DefaultName {
		mix("platform:" + c.Platform)
	}
	mix(c.Governor)
	mix(fmt.Sprintf("%g", c.TMax))
	z := uint64(base) + 0x9e3779b97f4a7c15*uint64(c.Seed+1) + h
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	// Keep the sign bit clear so the derived seed is stable across int64
	// formatting conventions in exports.
	return int64(z &^ (1 << 63))
}

// Metrics is the fixed-size aggregate the engine keeps per cell — the
// sim.Result scalars without the trace recorder, so a campaign's memory is
// bounded by the cell count regardless of how long each simulation runs.
type Metrics struct {
	Completed   bool    `json:"completed"`
	ExecTime    float64 `json:"exec_s"`
	AvgPower    float64 `json:"avg_power_w"`
	Energy      float64 `json:"energy_j"`
	MaxTemp     float64 `json:"max_temp_c"`
	AvgTemp     float64 `json:"avg_temp_c"`
	TempVar     float64 `json:"temp_var"`
	Spread      float64 `json:"spread_c"`
	OverTMax    float64 `json:"over_tmax_s"`
	SSAvgTemp   float64 `json:"ss_avg_temp_c"`
	SSTempVar   float64 `json:"ss_temp_var"`
	SSSpread    float64 `json:"ss_spread_c"`
	PredMeanPct float64 `json:"pred_mean_pct"`
	PredMaxPct  float64 `json:"pred_max_pct"`
	PredMaxAbsC float64 `json:"pred_max_abs_c"`
}

func newMetrics(r *sim.Result) *Metrics {
	return &Metrics{
		Completed: r.Completed, ExecTime: r.ExecTime,
		AvgPower: r.AvgPower, Energy: r.Energy,
		MaxTemp: r.MaxTemp, AvgTemp: r.AvgTemp, TempVar: r.TempVar,
		Spread: r.Spread, OverTMax: r.OverTMax,
		SSAvgTemp: r.SSAvgTemp, SSTempVar: r.SSTempVar, SSSpread: r.SSSpread,
		PredMeanPct: r.PredMeanPct, PredMaxPct: r.PredMaxPct,
		PredMaxAbsC: r.PredMaxAbsC,
	}
}

// CellResult is the outcome of one cell: metrics on success, a collected
// error string on failure. Exactly one of Metrics/Err is set.
type CellResult struct {
	Cell    Cell     `json:"cell"`
	Metrics *Metrics `json:"metrics,omitempty"`
	Err     string   `json:"error,omitempty"`
	// Cached reports that the cell was served from the result store instead
	// of being simulated. Telemetry only — cached metrics are byte-identical
	// to computed ones, so the field is excluded from exports.
	Cached bool `json:"-"`
}

// Report is a completed campaign in cell-index order. It contains only
// cell-determined data (no wall-clock times, no worker counts), so two runs
// of the same grid at different parallelism export byte-identical files.
type Report struct {
	BaseSeed int64        `json:"base_seed"`
	Cells    []CellResult `json:"cells"`
}

// Failures returns the failed cells.
func (r *Report) Failures() []CellResult {
	var out []CellResult
	for _, c := range r.Cells {
		if c.Err != "" {
			out = append(out, c)
		}
	}
	return out
}

// Engine runs campaigns over a worker pool.
type Engine struct {
	// Workers is the pool size; <= 0 means GOMAXPROCS.
	Workers int
	// Runner is the anchor device (nil = sim.NewRunner()): cells with an
	// empty platform coordinate or one naming its platform run on it;
	// every other platform is built from the registry.
	Runner *sim.Runner
	// Models is the anchor device's characterization; nil means the engine
	// characterizes the anchor itself, at BaseSeed, on first need — like
	// every other platform. DTPM cells use the models for control, and
	// every cell gets the §6.3.1 prediction-accuracy accounting from them.
	Models *sim.Characterization
	// BaseSeed is mixed into every cell's derived seed and seeds every
	// characterization the engine makes itself.
	BaseSeed int64
	// OnCellDone, when set, is invoked serially (never concurrently) once
	// for every cell of a run that ran — computed, store-served or failed
	// — with the number done so far and the grid size. Cells never started
	// because the run was cancelled are not reported.
	OnCellDone func(done, total int, r CellResult)
	// Store, when set, makes cell execution lookup-or-compute: each cell's
	// normalized coordinates are hashed to a content address, computed
	// metrics are persisted under it, and later runs of an identical cell
	// are served from the store instead of simulated. Purely a wall-clock
	// optimization — cached metrics are byte-identical to computed ones.
	Store *store.Store

	// devices resolves every cell's runner, characterization and store
	// provenance tag. It is built from Runner, Models and BaseSeed at the
	// first run and kept, so later runs reuse its characterizations.
	devicesOnce sync.Once
	devices     *sched.Cache
}

// cache returns the engine's device resolver, building it on first use.
func (e *Engine) cache() *sched.Cache {
	e.devicesOnce.Do(func() { e.devices = sched.NewCache(e.Runner, e.Models, e.BaseSeed) })
	return e.devices
}

// RunContext executes every cell of the grid across the worker pool and
// returns the report in the deterministic cell-index order the exports
// rely on. OnCellDone sees every cell that ran — computed, store-served
// and failed alike — in completion order. Individual cell failures
// (unknown benchmark, bad governor, unknown platform, panics) are recorded
// in the report; it fails only on a cancelled context. On cancellation it
// returns the partial report — completed cells keep their bit-exact
// metrics, in-flight cells are collected as cancelled failures, cells that
// never started are marked "cancelled before start" — together with an
// error wrapping sim.ErrCancelled.
func (e *Engine) RunContext(ctx context.Context, grid Grid) (*Report, error) {
	cells := grid.Cells()
	results := make([]CellResult, len(cells))
	var (
		mu   sync.Mutex
		done int
	)
	sched.Pool{Workers: e.Workers}.ForEach(len(cells), func(i int) {
		if ctx.Err() != nil {
			results[i] = CellResult{Cell: cells[i], Err: "campaign: cancelled before start"}
			return
		}
		results[i] = e.runCell(ctx, cells[i])
		if e.OnCellDone != nil {
			mu.Lock()
			done++
			e.OnCellDone(done, len(cells), results[i])
			mu.Unlock()
		}
	})
	rep := &Report{BaseSeed: e.BaseSeed, Cells: results}
	if cause := context.Cause(ctx); cause != nil {
		return rep, fmt.Errorf("campaign: %w (%w)", sim.ErrCancelled, cause)
	}
	return rep, nil
}

// campaignCellKey is the canonical content of one campaign cell: the
// normalized coordinates, the derived simulation seed, the full scenario
// spec when the cell runs one (so editing a library scenario invalidates
// its cells), and the characterization provenance.
type campaignCellKey struct {
	Policy       string         `json:"policy"`
	Benchmark    string         `json:"benchmark"`
	Scenario     string         `json:"scenario"`
	ScenarioSpec *scenario.Spec `json:"scenario_spec,omitempty"`
	Platform     string         `json:"platform"`
	Governor     string         `json:"governor"`
	TMax         float64        `json:"tmax"`
	DerivedSeed  int64          `json:"derived_seed"`
	Models       string         `json:"models"`
}

// cellStoreKey resolves the cell's platform without characterizing it and
// computes the cell's content address. ok=false means the cell cannot be
// addressed (unknown platform or scenario, contradictory workload axes,
// unhashable injected models) — those cells just run the compute path,
// which produces the proper error or an unstored result.
func (e *Engine) cellStoreKey(c Cell) (store.Digest, Cell, bool) {
	devices := e.cache()
	var ok bool
	if c.Platform, ok = devices.Platform(c.Platform); !ok {
		return store.Digest{}, c, false
	}
	tag, ok := devices.Tag(c.Platform)
	if !ok || (c.Scenario != "" && c.Benchmark != "") {
		return store.Digest{}, c, false
	}
	nc := normalizedCell(c)
	key := campaignCellKey{
		Policy:      nc.Policy.String(),
		Benchmark:   nc.Benchmark,
		Scenario:    nc.Scenario,
		Platform:    nc.Platform,
		Governor:    nc.Governor,
		TMax:        nc.TMax,
		DerivedSeed: DeriveSeed(e.BaseSeed, c),
		Models:      tag,
	}
	if c.Scenario != "" {
		spec, err := scenario.ByName(c.Scenario)
		if err != nil {
			return store.Digest{}, c, false
		}
		key.ScenarioSpec = &spec
	}
	d, err := store.KeyDigest("campaign-cell", key)
	if err != nil {
		return store.Digest{}, c, false
	}
	return d, c, true
}

// runCell executes one cell, translating every failure mode into a
// collected CellResult.
func (e *Engine) runCell(ctx context.Context, c Cell) CellResult {
	// Lookup-or-compute: a stored cell is served without touching the
	// device cache, so a fully warm campaign re-run never characterizes.
	var (
		key      store.Digest
		storable bool
	)
	if e.Store != nil {
		var rc Cell
		if key, rc, storable = e.cellStoreKey(c); storable {
			var m Metrics
			if e.Store.GetJSON(key, &m) {
				return CellResult{Cell: rc, Metrics: &m, Cached: true}
			}
		}
	}
	devices := e.cache()
	runner, models, err := devices.Device(ctx, c.Platform)
	if err != nil {
		return CellResult{Cell: c, Err: err.Error()}
	}
	// Export the platform the cell actually ran on (an empty coordinate
	// resolves to the engine's device, which need not be the registry
	// default).
	c.Platform, _ = devices.Platform(c.Platform)
	opt := sim.Options{
		Policy:   c.Policy,
		Governor: c.Governor,
		Seed:     DeriveSeed(e.BaseSeed, c),
		TMax:     c.TMax,
	}
	switch {
	case c.Scenario != "" && c.Benchmark != "":
		return CellResult{Cell: c, Err: fmt.Sprintf("campaign: cell declares both benchmark %q and scenario %q", c.Benchmark, c.Scenario)}
	case c.Scenario != "":
		spec, err := scenario.ByName(c.Scenario)
		if err != nil {
			return CellResult{Cell: c, Err: err.Error()}
		}
		// Scenario cells validate the spec against the platform they run
		// on (thread counts a platform cannot schedule are declaration
		// bugs, caught here instead of producing meaningless metrics).
		if err := scenario.ValidateFor(spec, runner.Desc); err != nil {
			return CellResult{Cell: c, Err: err.Error()}
		}
		script, err := scenario.Compile(spec)
		if err != nil {
			return CellResult{Cell: c, Err: err.Error()}
		}
		opt.Script = script
	default:
		bench, err := workload.ByName(c.Benchmark)
		if err != nil {
			return CellResult{Cell: c, Err: err.Error()}
		}
		opt.Bench = bench
	}
	opt.Model = models.Thermal
	opt.PowerModel = models.Power
	res, err := sched.RunSafely(func() (*sim.Result, error) { return runner.Run(ctx, opt) })
	if err != nil {
		return CellResult{Cell: c, Err: err.Error()}
	}
	m := newMetrics(res)
	// Persist before the result is reported so an observer that inspects
	// the store sees the entry of every reported cell. Write failures are
	// non-fatal (the store counts them): the run has the result, the next
	// run recomputes.
	if storable {
		_ = e.Store.PutJSON(key, m)
	}
	return CellResult{Cell: c, Metrics: m}
}
