package fleet

import (
	"bytes"
	"fmt"
	"strings"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/trace"
)

// cellKey is the canonical content of one fleet cell: every coordinate the
// cell's bytes depend on, fully resolved. The scenario's complete spec is
// embedded (not just its name), so editing a library scenario changes the
// key of every cell that drew it — which is exactly what makes "edit one
// scenario in a 3-way mix" recompute only the affected cells. Index is
// deliberately absent: two cells that resolve to identical coordinates are
// the same computation, so they dedupe to one store entry.
type cellKey struct {
	Platform       string        `json:"platform"`
	Scenario       string        `json:"scenario"`
	ScenarioSpec   scenario.Spec `json:"scenario_spec"`
	Seed           int64         `json:"seed"`
	ScenarioSeed   int64         `json:"scenario_seed"`
	AmbientShiftC  float64       `json:"ambient_shift_c"`
	Policy         string        `json:"policy"`
	TMaxC          float64       `json:"tmax_c"`
	ControlPeriodS float64       `json:"control_period_s"`
	Models         string        `json:"models"`
}

// cellEntry is the persisted outcome of one fleet cell: the full aggregator
// state (not just the metrics), because the group merge consumes histogram
// bins and moments — caching anything less could not rebuild a warm report
// byte-identical to a cold one. encoding/json round-trips float64 values
// bit-exactly (shortest-round-trip formatting), so it can.
type cellEntry struct {
	Skin     *stats.Histogram `json:"skin"`
	SkinM    stats.Moments    `json:"skin_m"`
	CoreM    stats.Moments    `json:"core_m"`
	OverN    uint64           `json:"over_n"`
	N        uint64           `json:"n"`
	FreqFrac float64          `json:"freq_frac"`
	Metrics  CellMetrics      `json:"metrics"`
}

// traceEntry is the persisted outcome of one replayed cell: the run's
// scalar result plus the full per-interval trace in the lossless CSV
// format (shortest-round-trip floats, so the parsed recorder reproduces
// WriteCSV byte-identically).
type traceEntry struct {
	Result   sim.Result `json:"result"`
	TraceCSV string     `json:"trace_csv"`
}

// modelsTagFor names the characterization provenance of a platform's cells.
// Non-anchor platforms are characterized by the pool at BaseSeed, so their
// models are a pure function of (platform, BaseSeed) and the seed tags
// them; the anchor platform uses the lazily computed anchorTag (the same
// seed tag when the engine self-characterizes, a digest of the injected
// models otherwise).
func (e *Engine) modelsTagFor(platformName string) string {
	if platformName == runnerPlatform(e.Runner) {
		return e.anchorTag()
	}
	return fmt.Sprintf("charseed:%d", e.BaseSeed)
}

// modelsDigestTag content-addresses an injected characterization.
func modelsDigestTag(c *sim.Characterization) string {
	d, err := store.KeyDigest("models", c)
	if err != nil {
		return "models:unhashable"
	}
	return "models:" + d.String()
}

// cellDigest computes the content address of one cell under a kind tag
// ("fleet-cell" for aggregates, "fleet-trace" for replay traces). ok=false
// means the cell cannot be addressed (e.g. its scenario is not resolvable);
// the caller just computes without the store.
func (e *Engine) cellDigest(spec Spec, cfg CellConfig, kind string) (store.Digest, bool) {
	sc, err := scenario.ByName(cfg.Scenario)
	if err != nil {
		return store.Digest{}, false
	}
	key := cellKey{
		Platform:       cfg.Platform,
		Scenario:       cfg.Scenario,
		ScenarioSpec:   sc,
		Seed:           cfg.Seed,
		ScenarioSeed:   cfg.ScenarioSeed,
		AmbientShiftC:  cfg.AmbientShiftC,
		Policy:         spec.Policy,
		TMaxC:          spec.TMaxC,
		ControlPeriodS: spec.ControlPeriodS,
		Models:         e.modelsTagFor(cfg.Platform),
	}
	d, err := store.KeyDigest(kind, key)
	if err != nil {
		return store.Digest{}, false
	}
	return d, true
}

// lookupCell serves one cell's aggregate outcome from the store. ok=false
// on any miss — never stored, corrupt entry, stale engine, or an entry
// whose histogram shape does not match the report contract (possible only
// through foreign bytes; treated as a recomputable miss, never trusted).
func (e *Engine) lookupCell(spec Spec, index int) (cellOutcome, bool) {
	cfg := DeriveCell(spec, e.BaseSeed, index)
	key, ok := e.cellDigest(spec, cfg, "fleet-cell")
	if !ok {
		return cellOutcome{}, false
	}
	var ent cellEntry
	if !e.Store.GetJSON(key, &ent) {
		return cellOutcome{}, false
	}
	if ent.Skin == nil || ent.Skin.Lo != skinLoC || ent.Skin.Hi != skinHiC || len(ent.Skin.Bins) != skinBins {
		return cellOutcome{}, false
	}
	m := ent.Metrics
	return cellOutcome{
		cfg: cfg,
		agg: &cellAgg{
			skin:     ent.Skin,
			skinM:    ent.SkinM,
			coreM:    ent.CoreM,
			overN:    ent.OverN,
			n:        ent.N,
			freqFrac: ent.FreqFrac,
		},
		metrics: &m,
		cached:  true,
	}, true
}

// putCell persists one freshly computed successful outcome. It runs on
// the async store writer's goroutine, concurrent with the collector's
// merge — safe because both only read the aggregator, and the collector
// never recycles aggregators on store-backed runs. Store write failures
// are deliberately non-fatal (the store counts them in its WriteErrors):
// the run still has the result, the next run just recomputes.
func (e *Engine) putCell(spec Spec, out cellOutcome) {
	if out.err != "" || out.agg == nil || out.metrics == nil || out.cached {
		return
	}
	key, ok := e.cellDigest(spec, out.cfg, "fleet-cell")
	if !ok {
		return
	}
	_ = e.Store.PutJSON(key, cellEntry{
		Skin:     out.agg.skin,
		SkinM:    out.agg.skinM,
		CoreM:    out.agg.coreM,
		OverN:    out.agg.overN,
		N:        out.agg.n,
		FreqFrac: out.agg.freqFrac,
		Metrics:  *out.metrics,
	})
}

// lookupTrace serves one replayed cell (full trace) from the store.
func (e *Engine) lookupTrace(spec Spec, cfg CellConfig) (cellOutcome, bool) {
	key, ok := e.cellDigest(spec, cfg, "fleet-trace")
	if !ok {
		return cellOutcome{}, false
	}
	var ent traceEntry
	if !e.Store.GetJSON(key, &ent) {
		return cellOutcome{}, false
	}
	rec, err := trace.ReadCSV(strings.NewReader(ent.TraceCSV))
	if err != nil {
		return cellOutcome{}, false
	}
	res := ent.Result
	res.Rec = rec
	return cellOutcome{cfg: cfg, agg: &cellAgg{res: &res}, cached: true}, true
}

// putTrace persists one freshly replayed cell: the scalar result plus the
// recorded trace as lossless CSV.
func (e *Engine) putTrace(spec Spec, out cellOutcome) {
	if out.err != "" || out.agg == nil || out.agg.res == nil || out.agg.res.Rec == nil || out.cached {
		return
	}
	key, ok := e.cellDigest(spec, out.cfg, "fleet-trace")
	if !ok {
		return
	}
	var buf bytes.Buffer
	if err := out.agg.res.Rec.WriteCSV(&buf); err != nil {
		return
	}
	res := *out.agg.res
	res.Rec = nil // the trace travels as CSV, not as a JSON recorder
	_ = e.Store.PutJSON(key, traceEntry{Result: res, TraceCSV: buf.String()})
}
