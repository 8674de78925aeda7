package fleet

import (
	"bytes"
	"strings"

	"repro/internal/scenario"
	"repro/internal/sim"
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

// traceEntry is the persisted outcome of one replayed cell: the run's
// scalar result plus the full per-interval trace in the lossless CSV
// format (shortest-round-trip floats, so the parsed recorder reproduces
// WriteCSV byte-identically).
type traceEntry struct {
	Result   sim.Result `json:"result"`
	TraceCSV string     `json:"trace_csv"`
}

// cellDigest computes the content address of one cell under a kind tag
// ("fleet-cell" for aggregates, "fleet-trace" for replay traces). ok=false
// means the cell cannot be addressed (its scenario is not resolvable, or
// its injected models cannot be hashed); the caller just computes without
// the store.
func (e *Engine) cellDigest(spec Spec, cfg CellConfig, kind string) (store.Digest, bool) {
	sc, err := scenario.ByName(cfg.Scenario)
	if err != nil {
		return store.Digest{}, false
	}
	tag, ok := e.cache().Tag(cfg.Platform)
	if !ok {
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
		Models:         tag,
	}
	d, err := store.KeyDigest(kind, key)
	if err != nil {
		return store.Digest{}, false
	}
	return d, true
}

// lookupCell serves cell cfg's aggregate outcome from the fleet-cell
// entry under key, decoded into a pooled aggregator. ok=false on any miss —
// never stored, corrupt entry, stale engine, or a payload the strict
// decoder rejects (possible only through foreign bytes; treated as a
// recomputable miss, never trusted).
func (e *Engine) lookupCell(key store.Digest, cfg CellConfig) (cellOutcome, bool) {
	agg := aggPool.Get().(*cellAgg)
	m := new(CellMetrics)
	if !e.Store.Decode(key, func(p []byte) error { return decodeCellEntry(p, agg, m) }) {
		releaseCellAgg(agg)
		return cellOutcome{}, false
	}
	return cellOutcome{cfg: cfg, agg: agg, metrics: m, cached: true}, true
}

// cellPayload encodes a freshly computed outcome as its fleet-cell entry;
// ok=false for an outcome that is not persisted (a failure, a cached cell).
func cellPayload(out cellOutcome) ([]byte, bool) {
	if out.err != "" || out.agg == nil || out.metrics == nil || out.cached {
		return nil, false
	}
	return appendCellEntry(nil, out.agg, out.metrics), true
}

// putCell persists one freshly computed outcome synchronously (the
// single-cell path; fleet runs go through the async store writer). Store
// write failures are deliberately non-fatal (the store counts them in its
// WriteErrors): the run still has the result, the next run just
// recomputes.
func (e *Engine) putCell(spec Spec, out cellOutcome) {
	payload, ok := cellPayload(out)
	if !ok {
		return
	}
	if key, ok := e.cellDigest(spec, out.cfg, "fleet-cell"); ok {
		_ = e.Store.Put(key, payload)
	}
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
