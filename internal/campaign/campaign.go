// Package campaign is the concurrent simulation-campaign engine: it fans a
// declarative grid of {policy × workload × platform × governor × seed}
// cells out across a worker pool, runs each cell through sim.Run, and
// aggregates the fixed-size per-cell metrics in bounded memory (no traces
// are retained). The workload axis is either a Table 6.4 benchmark or a
// named scenario (a compiled multi-phase sim.Script); the two axes are
// alternatives. The platform axis selects registered platform descriptors;
// each non-default platform is characterized once per campaign (same base
// seed) and its models are shared by all of its cells.
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
	"iter"
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
	// empty means the default platform only. Every non-default platform is
	// characterized once (at the campaign base seed) before its cells run.
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

// UsesDefaultPlatform reports whether any cell of the grid will run on the
// engine's own device (an empty platform axis or an explicit default
// entry) — the case where a caller that wants DTPM cells to work must
// supply (or characterize) the anchor device's models up front.
func (g Grid) UsesDefaultPlatform() bool {
	if len(g.Platforms) == 0 {
		return true
	}
	for _, p := range g.Platforms {
		if p == "" || p == platform.DefaultName {
			return true
		}
	}
	return false
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
	// Runner is the simulated device (nil = sim.NewRunner()).
	Runner *sim.Runner
	// Models supplies the identified thermal and fitted power models. DTPM
	// cells require it; other policies use it for prediction-accuracy
	// accounting when present.
	Models *sim.Characterization
	// BaseSeed is mixed into every cell's derived seed.
	BaseSeed int64
	// OnCellDone, when set, is invoked serially (never concurrently) after
	// each cell of a Run completes, with the number done so far and the
	// grid size.
	OnCellDone func(done, total int, r CellResult)
	// Store, when set, makes cell execution lookup-or-compute: each cell's
	// normalized coordinates are hashed to a content address, computed
	// metrics are persisted under it, and later runs of an identical cell
	// are served from the store instead of simulated. Purely a wall-clock
	// optimization — cached metrics are byte-identical to computed ones.
	Store *store.Store

	mu    sync.Mutex // guards done/total for OnCellDone
	done  int
	total int

	// storeTag caches the anchor platform's characterization-provenance
	// tag for store keys (computed on first use; see storeModelsTag).
	storeTag     string
	storeTagOnce sync.Once

	// devices is the shared per-platform cache for the Platforms sweep
	// axis: each non-default platform gets one runner and one
	// characterization (seeded with BaseSeed), built on first use and
	// shared by all of its cells. The fleet engine resolves its platforms
	// through the same cache via DeviceFor.
	devices sched.Cache
}

// runnerPlatform names the platform a runner simulates.
func runnerPlatform(r *sim.Runner) string {
	if r != nil && r.Desc != nil {
		return r.Desc.Name
	}
	return platform.DefaultName
}

// DeviceFor resolves the runner and models for a platform coordinate. The
// empty coordinate means the engine's own device (whatever platform it was
// built around); a named coordinate is served by the engine's Runner/Models
// when they describe that platform and otherwise by the per-campaign cache,
// characterized on first use (at the engine's BaseSeed). The fleet engine
// shares this cache so a platform appearing in thousands of fleet cells is
// characterized exactly once.
func (e *Engine) DeviceFor(ctx context.Context, name string) (*sim.Runner, *sim.Characterization, error) {
	if name == "" || name == runnerPlatform(e.Runner) {
		return e.Runner, e.Models, nil
	}
	return e.devices.Device(ctx, name, e.BaseSeed)
}

// Run executes every cell of the grid and returns the report. Individual
// cell failures (unknown benchmark, bad governor, missing models, panics)
// are recorded in the report; Run itself only fails on an empty grid.
func (e *Engine) Run(grid Grid) (*Report, error) {
	return e.RunContext(context.Background(), grid)
}

// RunContext is Run with cancellation: it collects the Stream into the
// deterministic cell-index order the exports rely on. On cancellation it
// returns the partial report — completed cells keep their bit-exact
// metrics, in-flight cells are collected as cancelled failures, cells that
// never started are marked "cancelled before start" — together with an
// error wrapping sim.ErrCancelled.
func (e *Engine) RunContext(ctx context.Context, grid Grid) (*Report, error) {
	cells := grid.Cells()
	seq, err := e.Stream(ctx, grid)
	if err != nil {
		return nil, err
	}
	results := make([]CellResult, len(cells))
	seen := make([]bool, len(cells))
	for r := range seq {
		if r.Cell.Index >= 0 && r.Cell.Index < len(results) {
			results[r.Cell.Index] = r
			seen[r.Cell.Index] = true
		}
	}
	if err := context.Cause(ctx); err != nil {
		for i, ok := range seen {
			if !ok {
				results[i] = CellResult{Cell: normalizedCell(cells[i]), Err: "campaign: cancelled before start"}
			}
		}
		return &Report{BaseSeed: e.BaseSeed, Cells: results},
			fmt.Errorf("campaign: %w (%w)", sim.ErrCancelled, err)
	}
	return &Report{BaseSeed: e.BaseSeed, Cells: results}, nil
}

// Stream executes the grid across the worker pool and returns an iterator
// that yields every CellResult as its worker finishes — completion order,
// not cell order, which is what makes live progress reporting possible
// while long cells are still running. Collect into index order (RunContext
// does) to recover the deterministic report.
//
// Cancelling the context stops workers from starting new cells and cancels
// the in-flight simulations (each is collected as a failed cell); the pool
// always drains cleanly — no goroutine outlives the iterator. Breaking out
// of the iteration early behaves like cancellation.
//
// The returned error is non-nil only for an empty grid; per-cell failures
// are yielded, never returned.
func (e *Engine) Stream(ctx context.Context, grid Grid) (iter.Seq[CellResult], error) {
	cells := grid.Cells()
	if len(cells) == 0 {
		return nil, fmt.Errorf("campaign: empty grid")
	}
	if e.Runner == nil {
		e.Runner = sim.NewRunner()
	}
	e.mu.Lock()
	e.done, e.total = 0, len(cells)
	e.mu.Unlock()
	return sched.Stream(ctx, sched.Pool{Workers: e.Workers}, len(cells), func(ictx context.Context, i int) CellResult {
		return e.runCell(ictx, cells[i])
	}), nil
}

// RunAll is the lower-level primitive the experiments package drives: it
// executes arbitrary pre-built sim.Options concurrently on the pool and
// returns results in input order. Unlike Run it performs no seed derivation
// and keeps full results (including traces when opts[i].Record is set) —
// the caller owns the memory consequences.
func (e *Engine) RunAll(ctx context.Context, opts []sim.Options) ([]*sim.Result, []error) {
	if e.Runner == nil {
		e.Runner = sim.NewRunner()
	}
	results := make([]*sim.Result, len(opts))
	errs := make([]error, len(opts))
	e.ForEach(len(opts), func(i int) {
		results[i], errs[i] = sched.RunSafely(func() (*sim.Result, error) { return e.Runner.Run(ctx, opts[i]) })
	})
	return results, errs
}

// ForEach runs fn(0..n-1) on the worker pool and blocks until all are done.
// It is the raw pool primitive under RunAll (and the fleet engine): work is
// handed out in index order from a shared counter, fn runs concurrently on
// up to Workers goroutines, and fn itself owns any synchronization of
// shared state it touches.
func (e *Engine) ForEach(n int, fn func(i int)) {
	sched.Pool{Workers: e.Workers}.ForEach(n, fn)
}

// runCell executes one cell, translating every failure mode into a
// collected CellResult.
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

// storeModelsTag names the characterization provenance of a platform's
// cells. Non-default platforms are characterized by the engine at BaseSeed
// (a pure function of platform + seed, so the seed tags them); the anchor
// platform's tag distinguishes injected models (content-addressed) from
// running model-free.
func (e *Engine) storeModelsTag(platformName string) string {
	if platformName != runnerPlatform(e.Runner) {
		return fmt.Sprintf("charseed:%d", e.BaseSeed)
	}
	e.storeTagOnce.Do(func() {
		if e.Models == nil {
			e.storeTag = "nomodels"
			return
		}
		d, err := store.KeyDigest("models", e.Models)
		if err != nil {
			e.storeTag = "models:unhashable"
			return
		}
		e.storeTag = "models:" + d.String()
	})
	return e.storeTag
}

// cellStoreKey resolves the cell's platform without characterizing it and
// computes the cell's content address. ok=false means the cell cannot be
// addressed (unknown platform or scenario, contradictory workload axes) —
// those cells just run the compute path, which produces the proper error.
func (e *Engine) cellStoreKey(c Cell) (store.Digest, Cell, bool) {
	if c.Platform == "" || c.Platform == runnerPlatform(e.Runner) {
		c.Platform = runnerPlatform(e.Runner)
	} else if _, err := platform.ByName(c.Platform); err != nil {
		return store.Digest{}, c, false
	}
	if c.Scenario != "" && c.Benchmark != "" {
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
		Models:      e.storeModelsTag(c.Platform),
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

func (e *Engine) runCell(ctx context.Context, c Cell) CellResult {
	// Lookup-or-compute: a stored cell is served without touching the
	// device cache, so a fully warm campaign re-run never characterizes.
	if e.Store != nil {
		if key, rc, ok := e.cellStoreKey(c); ok {
			var m Metrics
			if e.Store.GetJSON(key, &m) {
				done := CellResult{Cell: rc, Metrics: &m, Cached: true}
				e.notify(done)
				return done
			}
		}
	}
	runner, models, err := e.DeviceFor(ctx, c.Platform)
	if err != nil {
		return CellResult{Cell: c, Err: err.Error()}
	}
	// Export the platform the cell actually ran on (an empty coordinate
	// resolves to the engine's device, which need not be the registry
	// default).
	c.Platform = runnerPlatform(runner)
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
	if models != nil {
		opt.Model = models.Thermal
		opt.PowerModel = models.Power
	}
	res, err := sched.RunSafely(func() (*sim.Result, error) { return runner.Run(ctx, opt) })
	done := CellResult{Cell: c}
	if err != nil {
		done.Err = err.Error()
	} else {
		done.Metrics = newMetrics(res)
		// Persist before notify so an observer that inspects the store
		// sees the entry of every reported cell. Write failures are
		// non-fatal (the store counts them): the run has the result, the
		// next run recomputes.
		if e.Store != nil {
			if key, _, ok := e.cellStoreKey(c); ok {
				_ = e.Store.PutJSON(key, done.Metrics)
			}
		}
	}
	e.notify(done)
	return done
}

func (e *Engine) notify(r CellResult) {
	if e.OnCellDone == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.done++
	e.OnCellDone(e.done, e.total, r)
}
