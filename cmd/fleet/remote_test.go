package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fleet"
	"repro/internal/server"
	"repro/internal/store"
)

// TestRunRemote drives the -addr thin-client path against an in-process
// daemon and checks the acceptance contract: the exported files are
// byte-identical to an in-process engine run of the same spec.
func TestRunRemote(t *testing.T) {
	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := fleet.Spec{
		Name:           "remote-test",
		N:              6,
		ControlPeriodS: 0.5,
		Scenarios: []fleet.Weight{
			{Name: "cold-start", Weight: 2},
			{Name: "bursty-interactive", Weight: 1},
		},
	}
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "r.json")
	csvPath := filepath.Join(dir, "r.csv")
	if err := runRemote(context.Background(), ts.URL, "team-a", spec, 11, 2, jsonPath, csvPath, true); err != nil {
		t.Fatal(err)
	}

	eng := &fleet.Engine{BaseSeed: 11, Workers: 2}
	rep, err := eng.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var wantJSON, wantCSV bytes.Buffer
	if err := rep.WriteJSON(&wantJSON); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteCSV(&wantCSV); err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		path string
		want []byte
	}{{jsonPath, wantJSON.Bytes()}, {csvPath, wantCSV.Bytes()}} {
		got, err := os.ReadFile(f.path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, f.want) {
			t.Errorf("%s differs from in-process export (%d vs %d bytes)", f.path, len(got), len(f.want))
		}
	}
}

func TestRunRemoteRejectsBadDaemon(t *testing.T) {
	if err := runRemote(context.Background(), "127.0.0.1:1", "", fleet.Spec{N: 1}, 1, 0, "", "", true); err == nil {
		t.Error("unreachable daemon reported success")
	}
}

// TestHitRate pins the remote store line: rendering the daemon's per-run
// counters through store.Stats.Summary keeps the bytes the thin client
// printed before (daemon-smoke greps "0 misses (100% hit rate)").
func TestHitRate(t *testing.T) {
	for _, c := range []struct{ hits, misses uint64 }{{0, 0}, {3, 1}, {64, 0}, {1, 2}} {
		rate := 0.0
		if c.hits+c.misses > 0 {
			rate = float64(c.hits) / float64(c.hits+c.misses)
		}
		want := fmt.Sprintf("%d hits, %d misses (%.0f%% hit rate)", c.hits, c.misses, 100*rate)
		if got := (store.Stats{Hits: c.hits, Misses: c.misses}).Summary(); got != want {
			t.Errorf("store line for %d/%d = %q, want %q", c.hits, c.misses, got, want)
		}
	}
}
