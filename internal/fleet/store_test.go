package fleet

import (
	"bytes"
	"context"
	"math"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/platform"
	"repro/internal/scenario"
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

// TestRunCellStoreMatchesFresh is the round-trip property test: for every
// cell of the mix, the store-served metrics equal a fresh no-store compute
// exactly (not approximately — the determinism contract is byte-exact).
func TestRunCellStoreMatchesFresh(t *testing.T) {
	registerStoreScenario(t, "store-mix-a", 4)
	registerStoreScenario(t, "store-mix-b", 5)
	registerStoreScenario(t, "store-mix-c", 6)
	st := openTestStore(t)
	spec := storeSpec(6)
	_, _, _ = runStoreFleet(t, st, spec)

	fresh := &Engine{Workers: 1, BaseSeed: 11}           // no store: always computes
	warm := &Engine{Workers: 1, BaseSeed: 11, Store: st} // always serves
	for i := 0; i < spec.N; i++ {
		want, _, err := fresh.RunCell(context.Background(), spec, i)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := warm.RunCell(context.Background(), spec, i)
		if err != nil {
			t.Fatal(err)
		}
		if *got != *want {
			t.Errorf("cell %d: store-served metrics %+v != fresh %+v", i, *got, *want)
		}
	}
	if s := warm.Store.Stats(); s.Hits != uint64(spec.N) {
		t.Errorf("warm RunCell probes hit %d times, want %d", s.Hits, spec.N)
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
