package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"math"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/platform"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/store"
)

// registerStoreScenario (re-)registers a short scenario for the store
// tests; re-registering with a different duration is the "edit one
// scenario" event the incremental-rerun contract is about.
func registerStoreScenario(t *testing.T, name string, durS float64) {
	t.Helper()
	if err := scenario.Register(scenario.Spec{
		Name:   name,
		Seed:   42,
		Phases: []scenario.Phase{{Name: "p", DurationS: durS, Benchmark: "dijkstra"}},
	}); err != nil {
		t.Fatal(err)
	}
}

// storeSpec is a 3-way scenario mix over registered scenarios, small
// enough to run cold in well under a second.
func storeSpec(n int) Spec {
	return Spec{
		Name:           "store-fleet",
		N:              n,
		Policy:         "dtpm",
		ControlPeriodS: 0.5,
		Scenarios: []Weight{
			{Name: "store-mix-a", Weight: 1},
			{Name: "store-mix-b", Weight: 1},
			{Name: "store-mix-c", Weight: 1},
		},
		AmbientJitterC: 5,
	}
}

func openTestStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func runStoreFleet(t *testing.T, st *store.Store, spec Spec) (*Report, []byte, []byte) {
	t.Helper()
	eng := &Engine{Workers: 4, BaseSeed: 11, Store: st}
	rep, err := eng.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures) > 0 {
		t.Fatalf("fleet cells failed: %+v", rep.Failures)
	}
	var j, c bytes.Buffer
	if err := rep.WriteJSON(&j); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteCSV(&c); err != nil {
		t.Fatal(err)
	}
	return rep, j.Bytes(), c.Bytes()
}

// TestFleetStoreWarmRun is the incremental-rerun acceptance test: a warm
// re-run of an identical spec reports 100% cache hits, produces
// byte-identical JSON and CSV reports, and is at least an order of
// magnitude faster (the warm engine neither characterizes nor simulates).
func TestFleetStoreWarmRun(t *testing.T) {
	registerStoreScenario(t, "store-mix-a", 4)
	registerStoreScenario(t, "store-mix-b", 5)
	registerStoreScenario(t, "store-mix-c", 6)
	st := openTestStore(t)
	spec := storeSpec(12)

	t0 := time.Now()
	_, coldJSON, coldCSV := runStoreFleet(t, st, spec)
	coldDur := time.Since(t0)
	cold := st.Stats()
	if cold.Hits != 0 || cold.Misses != uint64(spec.N) || cold.Writes != uint64(spec.N) {
		t.Fatalf("cold-run stats: %+v", cold)
	}

	t0 = time.Now()
	_, warmJSON, warmCSV := runStoreFleet(t, st, spec)
	warmDur := time.Since(t0)
	warm := st.Stats()
	if warm.Misses != cold.Misses {
		t.Errorf("warm run missed the store %d times", warm.Misses-cold.Misses)
	}
	if warm.Hits != uint64(spec.N) {
		t.Errorf("warm run hits = %d, want %d", warm.Hits, spec.N)
	}
	if !bytes.Equal(coldJSON, warmJSON) {
		t.Errorf("warm JSON report diverged:\ncold:\n%s\nwarm:\n%s", coldJSON, warmJSON)
	}
	if !bytes.Equal(coldCSV, warmCSV) {
		t.Errorf("warm CSV report diverged:\ncold:\n%s\nwarm:\n%s", coldCSV, warmCSV)
	}
	// Timing: only meaningful when the cold run did real work (it
	// characterizes and simulates; warm does neither).
	if coldDur > 100*time.Millisecond && warmDur*10 > coldDur {
		t.Errorf("warm run not >=10x faster: cold %v, warm %v", coldDur, warmDur)
	}
}

// TestFleetStoreScenarioEdit pins the incremental property: editing one
// scenario of a 3-way mix invalidates exactly that scenario's cells — the
// others stay warm.
func TestFleetStoreScenarioEdit(t *testing.T) {
	registerStoreScenario(t, "store-mix-a", 4)
	registerStoreScenario(t, "store-mix-b", 5)
	registerStoreScenario(t, "store-mix-c", 6)
	st := openTestStore(t)
	spec := storeSpec(12)
	_, _, _ = runStoreFleet(t, st, spec)
	cold := st.Stats()

	// The edit: scenario b gets a longer phase. Every cell that drew b
	// now has different canonical content; a and c cells are untouched.
	registerStoreScenario(t, "store-mix-b", 7)
	edited := 0
	for i := 0; i < spec.N; i++ {
		if DeriveCell(spec, 11, i).Scenario == "store-mix-b" {
			edited++
		}
	}
	if edited == 0 || edited == spec.N {
		t.Fatalf("degenerate mix: %d/%d cells on the edited scenario", edited, spec.N)
	}

	_, _, _ = runStoreFleet(t, st, spec)
	warm := st.Stats()
	if got := warm.Misses - cold.Misses; got != uint64(edited) {
		t.Errorf("edit recomputed %d cells, want exactly the %d cells of the edited scenario", got, edited)
	}
	if got := warm.Hits - cold.Hits; got != uint64(spec.N-edited) {
		t.Errorf("edit served %d cells warm, want %d", got, spec.N-edited)
	}
	// Restore b: the original entries are still in the store (append-only),
	// so the original spec runs fully warm again.
	registerStoreScenario(t, "store-mix-b", 5)
	_, _, _ = runStoreFleet(t, st, spec)
	final := st.Stats()
	if got := final.Misses - warm.Misses; got != 0 {
		t.Errorf("restored scenario missed %d times; append-only store should still hold its entries", got)
	}
}

// TestFleetStoreCorruptionFallback damages one warm entry and re-runs: the
// corruption is detected (never served, never a crash), the cell is
// recomputed, and the report is still byte-identical.
func TestFleetStoreCorruptionFallback(t *testing.T) {
	registerStoreScenario(t, "store-mix-a", 4)
	registerStoreScenario(t, "store-mix-b", 5)
	registerStoreScenario(t, "store-mix-c", 6)
	st := openTestStore(t)
	spec := storeSpec(12)
	_, coldJSON, _ := runStoreFleet(t, st, spec)
	cold := st.Stats()

	// Corrupt cell 3's entry through the engine's own addressing.
	eng := &Engine{Workers: 1, BaseSeed: 11, Store: st}
	key, ok := eng.cellDigest(spec.normalized(), DeriveCell(spec, 11, 3), "fleet-cell")
	if !ok {
		t.Fatal("cell 3 not addressable")
	}
	if err := st.CorruptForTest(key); err != nil {
		t.Fatal(err)
	}

	_, warmJSON, _ := runStoreFleet(t, st, spec)
	warm := st.Stats()
	if got := warm.Invalid - cold.Invalid; got != 1 {
		t.Errorf("corrupt entry detected %d times, want 1", got)
	}
	if got := warm.Misses - cold.Misses; got != 1 {
		t.Errorf("re-run recomputed %d cells, want exactly the corrupted one", got)
	}
	if !bytes.Equal(coldJSON, warmJSON) {
		t.Error("report diverged after corruption fallback")
	}
	// The recompute healed the entry: a third run is fully warm.
	_, _, _ = runStoreFleet(t, st, spec)
	if final := st.Stats(); final.Misses != warm.Misses {
		t.Errorf("healed entry missed again: %+v", final)
	}
}

// TestFleetStoreJSONPayloadFallback: an entry whose header is valid for
// its fleet-cell key but whose payload is the old JSON encoding (what a
// fleet-cell entry held before the binary layout) passes the store's
// verification and fails the strict decoder. It is an invalid miss, never
// a hit; the cell recomputes, the report stays byte-identical, and the
// recompute's write heals the entry.
func TestFleetStoreJSONPayloadFallback(t *testing.T) {
	registerStoreScenario(t, "store-mix-a", 4)
	registerStoreScenario(t, "store-mix-b", 5)
	registerStoreScenario(t, "store-mix-c", 6)
	st := openTestStore(t)
	spec := storeSpec(12)
	_, coldJSON, coldCSV := runStoreFleet(t, st, spec)

	eng := &Engine{Workers: 1, BaseSeed: 11, Store: st}
	key, ok := eng.cellDigest(spec.normalized(), DeriveCell(spec, 11, 3), "fleet-cell")
	if !ok {
		t.Fatal("cell 3 not addressable")
	}
	binary, ok := st.Get(key)
	if !ok {
		t.Fatal("cell 3 not stored")
	}
	agg, m := newEntryAgg(), new(CellMetrics)
	if err := decodeCellEntry(binary, agg, m); err != nil {
		t.Fatal(err)
	}
	legacy, err := json.Marshal(struct {
		Skin     *stats.Histogram `json:"skin"`
		SkinM    stats.Moments    `json:"skin_m"`
		CoreM    stats.Moments    `json:"core_m"`
		OverN    uint64           `json:"over_n"`
		N        uint64           `json:"n"`
		FreqFrac float64          `json:"freq_frac"`
		Metrics  CellMetrics      `json:"metrics"`
	}{agg.skin, agg.skinM, agg.coreM, agg.overN, agg.n, agg.freqFrac, *m})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(key, legacy); err != nil {
		t.Fatal(err)
	}
	before := st.Stats()

	_, warmJSON, warmCSV := runStoreFleet(t, st, spec)
	warm := st.Stats()
	if warm.Invalid-before.Invalid != 1 || warm.Misses-before.Misses != 1 || warm.Hits-before.Hits != uint64(spec.N-1) {
		t.Errorf("JSON payload run: %+v after %+v, want 1 invalid miss and %d hits", warm, before, spec.N-1)
	}
	if !bytes.Equal(coldJSON, warmJSON) || !bytes.Equal(coldCSV, warmCSV) {
		t.Error("report diverged after the JSON payload fallback")
	}
	if healed, ok := st.Get(key); !ok || !bytes.Equal(healed, binary) {
		t.Error("recompute did not rewrite the binary entry")
	}
	_, _, _ = runStoreFleet(t, st, spec)
	if final := st.Stats(); final.Misses != warm.Misses || final.Invalid != warm.Invalid {
		t.Errorf("healed entry missed again: %+v", final)
	}
}

// TestReplayCellStoreRoundTrip pins the trace path: a store-served replay
// returns the same scalars and a byte-identical trace CSV to the recorded
// run (lossless shortest-round-trip floats through the CSV round trip).
func TestReplayCellStoreRoundTrip(t *testing.T) {
	registerStoreScenario(t, "store-mix-a", 4)
	registerStoreScenario(t, "store-mix-b", 5)
	registerStoreScenario(t, "store-mix-c", 6)
	st := openTestStore(t)
	spec := storeSpec(12)

	run := func() ([]byte, float64) {
		eng := &Engine{Workers: 1, BaseSeed: 11, Store: st}
		res, _, err := eng.ReplayCell(context.Background(), spec, 5)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.Rec.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), res.Energy
	}
	coldCSV, coldEnergy := run()
	cold := st.Stats()
	if cold.Hits != 0 || cold.Writes == 0 {
		t.Fatalf("cold replay stats: %+v", cold)
	}
	warmCSV, warmEnergy := run()
	warm := st.Stats()
	if warm.Hits != cold.Hits+1 {
		t.Errorf("warm replay did not hit the store: %+v", warm)
	}
	if warmEnergy != coldEnergy {
		t.Errorf("scalar drifted through the store: %g vs %g", warmEnergy, coldEnergy)
	}
	if !bytes.Equal(coldCSV, warmCSV) {
		t.Errorf("trace CSV drifted through the store:\ncold:\n%s\nwarm:\n%s", coldCSV, warmCSV)
	}
}

// TestFleetStoreUnhashableModels: injected models encoding/json cannot hash
// make their cells unaddressable — computed and never stored — so a second
// engine with different unhashable models gets no hits.
func TestFleetStoreUnhashableModels(t *testing.T) {
	registerStoreScenario(t, "store-mix-a", 4)
	registerStoreScenario(t, "store-mix-b", 5)
	registerStoreScenario(t, "store-mix-c", 6)
	spec := storeSpec(6)
	st := openTestStore(t)
	runner, models := deviceFor(t, platform.DefaultName)
	for _, c2 := range []float64{1, 2} {
		// Leakage is not read by the simulation; NaN only breaks hashing.
		m := *models
		m.Leakage.C1, m.Leakage.C2 = math.NaN(), c2
		eng := &Engine{Workers: 2, Runner: runner, Models: &m, BaseSeed: 11, Store: st}
		rep, err := eng.Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Failures) > 0 {
			t.Fatalf("fleet cells failed: %+v", rep.Failures)
		}
	}
	if s := st.Stats(); s.Hits != 0 || s.Writes != 0 {
		t.Errorf("stats %+v: unhashable models must neither write nor hit", s)
	}
}

// TestFleetStoreWriteErrors: a store that cannot be written degrades the
// run to compute-only — the report is byte-identical to a store-less run —
// and every failed write is counted instead of dropped.
func TestFleetStoreWriteErrors(t *testing.T) {
	registerStoreScenario(t, "store-mix-a", 4)
	registerStoreScenario(t, "store-mix-b", 5)
	registerStoreScenario(t, "store-mix-c", 6)
	spec := storeSpec(6)
	st := openTestStore(t)
	if err := st.BreakWritesForTest(); err != nil {
		t.Fatal(err)
	}
	_, gotJSON, gotCSV := runStoreFleet(t, st, spec)
	_, wantJSON, wantCSV := runStoreFleet(t, nil, spec)
	if !bytes.Equal(gotJSON, wantJSON) || !bytes.Equal(gotCSV, wantCSV) {
		t.Error("report through an unwritable store differs from a store-less run")
	}
	if s := st.Stats(); s.WriteErrors != uint64(spec.N) || s.Writes != 0 {
		t.Errorf("stats %+v, want %d write errors and no writes", s, spec.N)
	}
}

// TestCellKeyTemplateMatchesJSON pins the key templates to the bytes
// store.KeyBytes marshals for the same cellKey, over every registered
// platform, every library scenario and both cell kinds, with seeds and
// ambient shifts at the edges of strconv's and encoding/json's formats:
// a template digest is a store address only if the bytes agree exactly.
func TestCellKeyTemplateMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	seeds := []int64{0, 1, -1, 42, math.MinInt64, math.MaxInt64}
	shifts := []float64{0, math.Copysign(0, -1), 1e-7, -1e-7, 5e-324, 1e21, -1e21, 1e-6, 999999999999999999999.0, 0.1, -4.999999999999999}
	for i := 0; i < 8; i++ {
		seeds = append(seeds, int64(rng.Uint64()))
		shifts = append(shifts, (2*rng.Float64()-1)*5, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(60)-30)))
	}
	spec := Spec{N: 1, Policy: "without-fan", TMaxC: 58.123456789, ControlPeriodS: 0.25}.normalized()
	eng := &Engine{BaseSeed: -7}
	for _, kind := range []string{"fleet-cell", "fleet-trace"} {
		for _, pname := range platform.Names() {
			for _, sc := range scenario.Library() {
				tmpl, ok := eng.newKeyTemplate(spec, kind, pname, sc.Name)
				if !ok {
					t.Fatalf("%s %s/%s: no key template", kind, pname, sc.Name)
				}
				tag, _ := eng.cache().Tag(pname)
				for k := 0; k < 12; k++ {
					cfg := CellConfig{
						Platform:      pname,
						Scenario:      sc.Name,
						Seed:          seeds[rng.Intn(len(seeds))],
						ScenarioSeed:  seeds[rng.Intn(len(seeds))],
						AmbientShiftC: shifts[rng.Intn(len(shifts))],
					}
					want, err := store.KeyBytes(kind, cellKey{
						Platform: cfg.Platform, Scenario: cfg.Scenario, ScenarioSpec: sc,
						Seed: cfg.Seed, ScenarioSeed: cfg.ScenarioSeed, AmbientShiftC: cfg.AmbientShiftC,
						Policy: spec.Policy, TMaxC: spec.TMaxC, ControlPeriodS: spec.ControlPeriodS, Models: tag,
					})
					if err != nil {
						t.Fatal(err)
					}
					if got := tmpl.appendKey(nil, cfg); !bytes.Equal(got, want) {
						t.Fatalf("%s %+v:\n template %s\n json     %s", kind, cfg, got, want)
					}
					if tmpl.digest(cfg) != sha256.Sum256(want) {
						t.Fatalf("%s %+v: template digest differs from the key's", kind, cfg)
					}
				}
			}
		}
	}
}

// BenchmarkCellDigest times the content address of one warm cell through
// its run's key template: append the three per-cell values to the shared
// key bytes and hash. The cells are a library-mix population, so the
// templates cover every scenario.
func BenchmarkCellDigest(b *testing.B) {
	spec := Spec{N: 1024, AmbientJitterC: 5}.normalized()
	eng := &Engine{BaseSeed: 1}
	keys := eng.newCellKeys(spec, "fleet-cell")
	cells := make([]CellConfig, spec.N)
	for i := range cells {
		cells[i] = DeriveCell(spec, eng.BaseSeed, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := keys.digest(cells[i%len(cells)]); !ok {
			b.Fatal("cell not addressable")
		}
	}
}
