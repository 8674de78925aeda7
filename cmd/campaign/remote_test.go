package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/campaign"
	"repro/internal/server"
	"repro/internal/sim"
)

// TestRunRemote drives the -addr thin-client path of the command against an
// in-process daemon: the exported report must be byte-identical to an
// in-process engine run of the same grid (anchor models characterized up
// front at the same seed).
func TestRunRemote(t *testing.T) {
	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const seed = 17
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "grid.json")
	code, err := run([]string{
		"-addr", ts.URL,
		"-policies", "without-fan,dtpm", "-benches", "dijkstra", "-seeds", "1",
		"-seed", "17", "-workers", "2", "-quiet",
		"-json", jsonPath,
	})
	if err != nil || code != 0 {
		t.Fatalf("run -addr: exit %d, %v", code, err)
	}

	grid := campaign.Grid{
		Policies:   []sim.Policy{sim.PolicyNoFan, sim.PolicyDTPM},
		Benchmarks: []string{"dijkstra"},
		Seeds:      []int64{1},
	}
	ctx := context.Background()
	runner := sim.NewRunner()
	models, err := runner.Characterize(ctx, seed)
	if err != nil {
		t.Fatal(err)
	}
	eng := &campaign.Engine{BaseSeed: seed, Workers: 2, Runner: runner, Models: models}
	rep, err := eng.RunContext(ctx, grid)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := rep.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("remote export differs from in-process (%d vs %d bytes)", len(got), want.Len())
	}
}

func TestRunRemoteRejectsBadDaemon(t *testing.T) {
	if _, err := run([]string{"-addr", "127.0.0.1:1", "-benches", "dijkstra", "-quiet"}); err == nil {
		t.Error("unreachable daemon reported success")
	}
}
