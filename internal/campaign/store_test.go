package campaign

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/store"
)

// TestCampaignStoreWarmRun: a warm re-run of an identical campaign grid is
// served entirely from the store and exports byte-identical JSON/CSV.
func TestCampaignStoreWarmRun(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	grid := Grid{
		Policies:   []sim.Policy{sim.PolicyFan, sim.PolicyReactive},
		Benchmarks: []string{"dijkstra", "patricia"},
		Seeds:      []int64{1, 2},
	}
	run := func() ([]byte, []byte) {
		eng := &Engine{Workers: 4, BaseSeed: 1, Store: st}
		rep, err := eng.Run(grid)
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
	coldJSON, coldCSV := run()
	cold := st.Stats()
	n := uint64(grid.Size())
	if cold.Hits != 0 || cold.Misses != n || cold.Writes != n {
		t.Fatalf("cold-run stats: %+v (grid size %d)", cold, n)
	}
	warmJSON, warmCSV := run()
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
		rep, err := eng.Run(grid)
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
		rep, err := (&Engine{Workers: 2, BaseSeed: 1, Store: s}).Run(grid)
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
