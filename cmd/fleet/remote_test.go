package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fleet"
	"repro/internal/server"
)

// TestRunRemote drives `fleet run -addr` against an in-process daemon and
// checks the acceptance contract: the exported files are byte-identical to
// an in-process engine run of the same spec.
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
	specPath := filepath.Join(dir, "spec.json")
	jsonPath := filepath.Join(dir, "r.json")
	csvPath := filepath.Join(dir, "r.csv")
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(specPath, b, 0o644); err != nil {
		t.Fatal(err)
	}
	code, err := cmdRun(context.Background(), []string{
		"-addr", ts.URL, "-tenant", "team-a", "-spec", specPath,
		"-seed", "11", "-workers", "2", "-quiet",
		"-json", jsonPath, "-csv", csvPath,
	})
	if err != nil || code != 0 {
		t.Fatalf("fleet run -addr: exit %d, %v", code, err)
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
	if _, err := cmdRun(context.Background(), []string{"-addr", "127.0.0.1:1", "-n", "1", "-quiet"}); err == nil {
		t.Error("unreachable daemon reported success")
	}
}
