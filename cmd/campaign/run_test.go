package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/campaign"
)

// TestRunInProcess drives the full command body — flag parsing, grid build,
// engine run, exports — on a one-cell sweep that skips the default-device
// characterization (non-default platform axis) to stay fast.
func TestRunInProcess(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "sweep.json")
	csvPath := filepath.Join(dir, "sweep.csv")
	code, err := run([]string{
		"-policies", "without-fan", "-benches", "dijkstra",
		"-platforms", "fanless-phone", "-seeds", "1",
		"-no-cache", "-quiet",
		"-json", jsonPath, "-csv", csvPath,
	})
	if err != nil || code != 0 {
		t.Fatalf("run: exit %d, %v", code, err)
	}
	b, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep campaign.Report
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 1 || rep.Cells[0].Metrics == nil || !rep.Cells[0].Metrics.Completed {
		t.Errorf("report cells: %+v", rep.Cells)
	}
	if b, err := os.ReadFile(csvPath); err != nil || len(b) == 0 {
		t.Errorf("csv export: %d bytes, %v", len(b), err)
	}
}

func TestRunList(t *testing.T) {
	if code, err := run([]string{"-list"}); err != nil || code != 0 {
		t.Fatalf("run -list: exit %d, %v", code, err)
	}
}

func TestRunFlagErrors(t *testing.T) {
	cases := [][]string{
		{"-definitely-not-a-flag"},
		{"-policies", "warp-speed"},
		{"-platform", "exynos5410", "-platforms", "exynos5410"},
	}
	for _, args := range cases {
		if _, err := run(args); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}
