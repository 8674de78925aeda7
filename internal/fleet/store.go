package fleet

import (
	"bytes"
	"crypto/sha256"
	"math"
	"strconv"
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

// keyTemplate is the canonical key of every cell of one (kind, platform,
// scenario) under one spec, cut around its three per-cell values. A cell's
// key bytes are prefix, Seed, `,"scenario_seed":`, ScenarioSeed,
// `,"ambient_shift_c":`, AmbientShiftC, suffix — exactly what
// store.KeyBytes renders for its cellKey, so the digest is unchanged while
// the reflective marshal runs once per template instead of once per cell.
type keyTemplate struct {
	prefix, suffix []byte
}

// The per-cell run of a marshalled cellKey, with every per-cell value zero.
const (
	keySeed         = `,"seed":`
	keyScenarioSeed = `,"scenario_seed":`
	keyAmbientShift = `,"ambient_shift_c":`
	zeroCellFields  = keySeed + "0" + keyScenarioSeed + "0" + keyAmbientShift + "0,"
)

// newKeyTemplate builds the key template of the cells of (platform,
// scenario) under spec, which must be normalized. ok=false means those
// cells cannot be addressed (the scenario is not resolvable, or the
// platform's injected models cannot be hashed); the caller just computes
// them without the store.
func (e *Engine) newKeyTemplate(spec Spec, kind, platformName, scenarioName string) (*keyTemplate, bool) {
	sc, err := scenario.ByName(scenarioName)
	if err != nil {
		return nil, false
	}
	tag, ok := e.cache().Tag(platformName)
	if !ok {
		return nil, false
	}
	b, err := store.KeyBytes(kind, cellKey{
		Platform:       platformName,
		Scenario:       scenarioName,
		ScenarioSpec:   sc,
		Policy:         spec.Policy,
		TMaxC:          spec.TMaxC,
		ControlPeriodS: spec.ControlPeriodS,
		Models:         tag,
	})
	if err != nil {
		return nil, false
	}
	// The embedded scenario spec may hold a "seed" of its own, but every
	// field after the cell's ambient shift is a number or an escaped
	// string, so the last match is the cell's own run.
	at := bytes.LastIndex(b, []byte(zeroCellFields))
	if at < 0 {
		return nil, false
	}
	return &keyTemplate{
		prefix: b[:at+len(keySeed)],
		suffix: b[at+len(zeroCellFields)-1:],
	}, true
}

// digest returns the content address of cell cfg.
func (t *keyTemplate) digest(cfg CellConfig) store.Digest {
	var buf [1024]byte
	return sha256.Sum256(t.appendKey(buf[:0], cfg))
}

// appendKey appends the canonical key bytes of cell cfg. Its ambient shift
// is finite: DeriveCell draws it within a validated, finite jitter.
func (t *keyTemplate) appendKey(dst []byte, cfg CellConfig) []byte {
	dst = append(dst, t.prefix...)
	dst = strconv.AppendInt(dst, cfg.Seed, 10)
	dst = append(dst, keyScenarioSeed...)
	dst = strconv.AppendInt(dst, cfg.ScenarioSeed, 10)
	dst = append(dst, keyAmbientShift...)
	dst = appendJSONFloat(dst, cfg.AmbientShiftC)
	return append(dst, t.suffix...)
}

// appendJSONFloat appends the finite f exactly as encoding/json renders a
// float64: shortest round-trip digits, in 'e' form below 1e-6 and from
// 1e21 on, with a two-digit negative exponent shortened (e-07 → e-7).
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// cellKeys holds one run's key templates by (platform, scenario), built up
// front from the spec's mix and read-only afterwards, so workers share it
// without a lock. It lives as long as the run: a template embeds the
// scenario spec and the run's constraint, so it is valid for no other run.
type cellKeys map[[2]string]*keyTemplate

// newCellKeys builds the key templates, under kind, of every (platform,
// scenario) pair the normalized spec can draw. An unaddressable pair has
// no entry.
func (e *Engine) newCellKeys(spec Spec, kind string) cellKeys {
	keys := cellKeys{}
	for _, p := range spec.Platforms {
		for _, sc := range spec.Scenarios {
			k := [2]string{p.Name, sc.Name}
			if _, seen := keys[k]; seen || p.Weight <= 0 || sc.Weight <= 0 {
				continue
			}
			if t, ok := e.newKeyTemplate(spec, kind, p.Name, sc.Name); ok {
				keys[k] = t
			}
		}
	}
	return keys
}

// digest returns the content address of cell cfg, ok=false when the cell
// is unaddressable.
func (k cellKeys) digest(cfg CellConfig) (store.Digest, bool) {
	t, ok := k[[2]string{cfg.Platform, cfg.Scenario}]
	if !ok {
		return store.Digest{}, false
	}
	return t.digest(cfg), true
}

// cellDigest computes the content address of one cell under a kind tag
// ("fleet-cell" for aggregates, "fleet-trace" for replay traces) — the
// single-cell path, through the same template builder a run uses.
func (e *Engine) cellDigest(spec Spec, cfg CellConfig, kind string) (store.Digest, bool) {
	t, ok := e.newKeyTemplate(spec, kind, cfg.Platform, cfg.Scenario)
	if !ok {
		return store.Digest{}, false
	}
	return t.digest(cfg), true
}

// lookupCell serves cell cfg's outcome from the fleet-cell entry under
// key, decoded straight into compact sums from the engine's free list.
// ok=false on any miss — never stored, corrupt entry, stale engine, or a
// payload the strict decoder rejects (possible only through foreign bytes;
// treated as a recomputable miss, never trusted).
func (e *Engine) lookupCell(key store.Digest, cfg CellConfig) (cellOutcome, bool) {
	s := e.sums.get()
	if !e.Store.Decode(key, func(p []byte) error { return decodeCellEntry(p, s) }) {
		e.sums.put(s)
		return cellOutcome{}, false
	}
	return cellOutcome{cfg: cfg, sums: s, cached: true}, true
}

// cellPayload encodes a freshly computed outcome as its fleet-cell entry;
// ok=false for an outcome that is not persisted (a failure, a cached cell).
func cellPayload(out cellOutcome) ([]byte, bool) {
	if out.err != "" || out.sums == nil || out.cached {
		return nil, false
	}
	return appendCellEntry(nil, out.sums), true
}

// lookupTrace serves one replayed cell (full trace) from the store.
func (e *Engine) lookupTrace(spec Spec, cfg CellConfig) (*sim.Result, bool) {
	key, ok := e.cellDigest(spec, cfg, "fleet-trace")
	if !ok {
		return nil, false
	}
	var ent traceEntry
	if !e.Store.GetJSON(key, &ent) {
		return nil, false
	}
	rec, err := trace.ReadCSV(strings.NewReader(ent.TraceCSV))
	if err != nil {
		return nil, false
	}
	res := ent.Result
	res.Rec = rec
	return &res, true
}

// putTrace persists one freshly replayed cell: the scalar result plus the
// recorded trace as lossless CSV.
func (e *Engine) putTrace(spec Spec, cfg CellConfig, res *sim.Result) {
	key, ok := e.cellDigest(spec, cfg, "fleet-trace")
	if !ok {
		return
	}
	var buf bytes.Buffer
	if err := res.Rec.WriteCSV(&buf); err != nil {
		return
	}
	ent := traceEntry{Result: *res, TraceCSV: buf.String()}
	ent.Result.Rec = nil // the trace travels as CSV, not as a JSON recorder
	_ = e.Store.PutJSON(key, ent)
}
