package campaign

import (
	"bytes"
	"context"
	"math"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/platform"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/store"
)

// TestCampaignStoreWarmRun: a warm re-run of an identical campaign grid is
// served entirely from the store and exports byte-identical JSON/CSV. The
// engines get nil Models, so the cold run characterizes the device and the
// warm one — a fresh engine whose cells are all stored — never does, which
// shows as an order of magnitude in wall-clock time (the fleet store test
// makes the same check).
func TestCampaignStoreWarmRun(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	grid := Grid{
		Policies:   []sim.Policy{sim.PolicyFan, sim.PolicyReactive, sim.PolicyDTPM},
		Benchmarks: []string{"dijkstra", "patricia"},
		Seeds:      []int64{1, 2},
	}
	run := func() ([]byte, []byte) {
		eng := &Engine{Workers: 4, BaseSeed: 1, Store: st}
		rep, err := eng.RunContext(context.Background(), grid)
		if err != nil {
			t.Fatal(err)
		}
		if fails := rep.Failures(); len(fails) > 0 {
			t.Fatalf("cells failed: %+v", fails)
		}
		var j, c bytes.Buffer
		if err := rep.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		if err := rep.WriteCSV(&c); err != nil {
			t.Fatal(err)
		}
		return j.Bytes(), c.Bytes()
	}
	t0 := time.Now()
	coldJSON, coldCSV := run()
	coldDur := time.Since(t0)
	cold := st.Stats()
	n := uint64(grid.Size())
	if cold.Hits != 0 || cold.Misses != n || cold.Writes != n {
		t.Fatalf("cold-run stats: %+v (grid size %d)", cold, n)
	}
	t0 = time.Now()
	warmJSON, warmCSV := run()
	warmDur := time.Since(t0)
	warm := st.Stats()
	if warm.Misses != cold.Misses || warm.Hits != n {
		t.Errorf("warm-run stats: %+v, want %d hits and no new misses", warm, n)
	}
	if !bytes.Equal(coldJSON, warmJSON) {
		t.Errorf("warm JSON report diverged:\ncold:\n%s\nwarm:\n%s", coldJSON, warmJSON)
	}
	if !bytes.Equal(coldCSV, warmCSV) {
		t.Errorf("warm CSV report diverged:\ncold:\n%s\nwarm:\n%s", coldCSV, warmCSV)
	}
	if coldDur > 100*time.Millisecond && warmDur*10 > coldDur {
		t.Errorf("warm run not >=10x faster: cold %v, warm %v", coldDur, warmDur)
	}
}

// TestCampaignCharseedKeyIsAnchorIndependent: a cell keyed charseed:<seed>
// holds the same bytes whether the registry built its device (a platform
// other than the engine's own) or the engine's own device characterized
// itself at that seed. So a nil-models anchor cell reuses — and can never
// contradict — an entry a non-anchor cell wrote under the same key.
func TestCampaignCharseedKeyIsAnchorIndependent(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	desc, err := platform.ByName("fanless-phone")
	if err != nil {
		t.Fatal(err)
	}
	grid := Grid{
		Policies:   []sim.Policy{sim.PolicyNoFan, sim.PolicyDTPM},
		Benchmarks: []string{"dijkstra"},
		Platforms:  []string{"fanless-phone"},
	}
	export := func(eng *Engine) []byte {
		t.Helper()
		rep, err := eng.RunContext(context.Background(), grid)
		if err != nil {
			t.Fatal(err)
		}
		if fails := rep.Failures(); len(fails) > 0 {
			t.Fatalf("cells failed: %+v", fails)
		}
		var j bytes.Buffer
		if err := rep.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		return j.Bytes()
	}
	viaRegistry := export(&Engine{Workers: 2, BaseSeed: 3, Store: st})
	viaAnchor := export(&Engine{Workers: 2, Runner: sim.NewRunnerFor(desc), BaseSeed: 3})
	if !bytes.Equal(viaRegistry, viaAnchor) {
		t.Fatal("a self-characterized anchor computes different bytes than the registry device")
	}
	before := st.Stats()
	if served := export(&Engine{Workers: 2, Runner: sim.NewRunnerFor(desc), BaseSeed: 3, Store: st}); !bytes.Equal(served, viaAnchor) {
		t.Fatal("store-served anchor cells differ from computed ones")
	}
	if s := st.Stats(); s.Hits-before.Hits != uint64(grid.Size()) || s.Misses != before.Misses {
		t.Errorf("anchor run over the registry's entries: %+v, want %d new hits and no misses", s, grid.Size())
	}
}

// TestCampaignStoreUnhashableModels: injected models encoding/json cannot
// hash make their cells unaddressable — computed and never stored — so two
// different unhashable characterizations can never be served each other's
// cells.
func TestCampaignStoreUnhashableModels(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	grid := Grid{
		Policies:   []sim.Policy{sim.PolicyNoFan, sim.PolicyDTPM},
		Benchmarks: []string{"dijkstra"},
	}
	for _, c2 := range []float64{1, 2} {
		// Leakage is not read by the simulation; NaN only breaks hashing.
		m := *testModels(t)
		m.Leakage.C1, m.Leakage.C2 = math.NaN(), c2
		rep, err := (&Engine{Workers: 2, Models: &m, BaseSeed: 1, Store: st}).RunContext(context.Background(), grid)
		if err != nil {
			t.Fatal(err)
		}
		if fails := rep.Failures(); len(fails) > 0 {
			t.Fatalf("cells failed: %+v", fails)
		}
	}
	if s := st.Stats(); s.Hits != 0 || s.Writes != 0 {
		t.Errorf("stats %+v: unhashable models must neither write nor hit", s)
	}
}

// TestCampaignStoreScenarioEdit: re-registering a changed scenario spec
// invalidates exactly its cells in a mixed scenario axis.
func TestCampaignStoreScenarioEdit(t *testing.T) {
	reg := func(name string, durS float64) {
		t.Helper()
		if err := scenario.Register(scenario.Spec{
			Name:   name,
			Seed:   9,
			Phases: []scenario.Phase{{Name: "p", DurationS: durS, Benchmark: "dijkstra"}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	reg("camp-store-a", 4)
	reg("camp-store-b", 5)
	st, err := store.Open(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	grid := Grid{
		Policies:  []sim.Policy{sim.PolicyFan},
		Scenarios: []string{"camp-store-a", "camp-store-b"},
		Seeds:     []int64{1, 2},
	}
	run := func() {
		t.Helper()
		eng := &Engine{Workers: 2, BaseSeed: 1, Store: st}
		rep, err := eng.RunContext(context.Background(), grid)
		if err != nil {
			t.Fatal(err)
		}
		if fails := rep.Failures(); len(fails) > 0 {
			t.Fatalf("cells failed: %+v", fails)
		}
	}
	run()
	cold := st.Stats()
	reg("camp-store-b", 6) // the edit: 2 of the 4 cells change content
	run()
	warm := st.Stats()
	if got := warm.Misses - cold.Misses; got != 2 {
		t.Errorf("edit recomputed %d cells, want the 2 cells of the edited scenario", got)
	}
	if got := warm.Hits - cold.Hits; got != 2 {
		t.Errorf("edit served %d cells warm, want 2", got)
	}
}

// TestCampaignStoreWriteErrors: an unwritable store leaves the report
// byte-identical to a store-less run and counts every failed write.
func TestCampaignStoreWriteErrors(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.BreakWritesForTest(); err != nil {
		t.Fatal(err)
	}
	grid := Grid{
		Policies:   []sim.Policy{sim.PolicyFan},
		Benchmarks: []string{"dijkstra"},
		Seeds:      []int64{1, 2},
	}
	export := func(s *store.Store) []byte {
		t.Helper()
		rep, err := (&Engine{Workers: 2, BaseSeed: 1, Store: s}).RunContext(context.Background(), grid)
		if err != nil {
			t.Fatal(err)
		}
		if fails := rep.Failures(); len(fails) > 0 {
			t.Fatalf("cells failed: %+v", fails)
		}
		var j bytes.Buffer
		if err := rep.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		return j.Bytes()
	}
	if !bytes.Equal(export(st), export(nil)) {
		t.Error("report through an unwritable store differs from a store-less run")
	}
	if s := st.Stats(); s.WriteErrors != uint64(grid.Size()) || s.Writes != 0 {
		t.Errorf("stats %+v, want %d write errors and no writes", s, grid.Size())
	}
}
