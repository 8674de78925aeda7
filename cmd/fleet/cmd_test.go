package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fleet"
)

// TestCmdRunInProcess exercises the full `fleet run` command path — spec
// flags, store flags, export files — the way main dispatches it.
func TestCmdRunInProcess(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "r.json")
	csvPath := filepath.Join(dir, "r.csv")
	code, err := cmdRun(context.Background(), []string{
		"-n", "3", "-seed", "9", "-workers", "2",
		"-scenarios", "cold-start", "-period", "0.5",
		"-no-cache", "-quiet",
		"-json", jsonPath, "-csv", csvPath,
	})
	if err != nil || code != 0 {
		t.Fatalf("cmdRun: exit %d, %v", code, err)
	}
	f, err := os.Open(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep, err := fleet.ReadReportJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 3 {
		t.Errorf("report completed %d, want 3", rep.Completed)
	}
	if b, err := os.ReadFile(csvPath); err != nil || len(b) == 0 {
		t.Errorf("csv export: %d bytes, %v", len(b), err)
	}

	// And `fleet report` renders the saved report.
	if err := cmdReport([]string{"-in", jsonPath}); err != nil {
		t.Errorf("cmdReport: %v", err)
	}
	if err := cmdReport([]string{}); err == nil {
		t.Error("cmdReport without -in accepted")
	}
}

func TestCmdRunAddrConflicts(t *testing.T) {
	// Profiling flags profile the in-process engine; they cannot combine
	// with -addr.
	_, err := cmdRun(context.Background(), []string{
		"-n", "1", "-addr", "127.0.0.1:1", "-cpuprofile", "cpu.out",
	})
	if err == nil {
		t.Error("-addr with -cpuprofile accepted")
	}
}

func TestCmdRunBadSpec(t *testing.T) {
	if _, err := cmdRun(context.Background(), []string{"-n", "0"}); err == nil {
		t.Error("n=0 accepted")
	}
}
