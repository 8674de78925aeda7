package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const benchOutput = `goos: linux
goarch: amd64
pkg: repro
BenchmarkSimCell-8     	       1	   4334007 ns/op	   41672 B/op	      59 allocs/op
BenchmarkSimCellDTPM-8 	       1	   1540076 ns/op	  131512 B/op	      52 allocs/op
BenchmarkCRC32-8       	       1	    100000 ns/op
BenchmarkFleetThroughput/scalar-8    	       3	  44629704 ns/op	      1434 devices/sec	 2858965 B/op	    5095 allocs/op
BenchmarkFleetThroughput/batched-8   	       3	  26790385 ns/op	      2389 devices/sec	 2901124 B/op	    6551 allocs/op
PASS
`

func TestParse(t *testing.T) {
	f, err := parse(strings.NewReader(benchOutput), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Benchmarks) != 5 {
		t.Fatalf("parsed %d benchmarks, want 5", len(f.Benchmarks))
	}
	// Sorted by name; the -8 GOMAXPROCS suffix is stripped without eating
	// digits that belong to the benchmark name.
	if f.Benchmarks[0].Name != "BenchmarkCRC32" {
		t.Errorf("first benchmark %q", f.Benchmarks[0].Name)
	}
	var cell Entry
	for _, e := range f.Benchmarks {
		if e.Name == "BenchmarkSimCell" {
			cell = e
		}
	}
	if cell.AllocsPerOp != 59 || cell.BytesPerOp != 41672 || cell.NsPerOp != 4334007 {
		t.Errorf("SimCell entry: %+v", cell)
	}
}

// TestParseCustomMetrics pins the b.ReportMetric handling: extra
// value/unit pairs land in Metrics under a JSON-safe key, and B/op /
// allocs/op still parse when a custom pair precedes them on the line.
func TestParseCustomMetrics(t *testing.T) {
	f, err := parse(strings.NewReader(benchOutput), []string{"FleetThroughput"})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(f.Benchmarks))
	}
	for _, e := range f.Benchmarks {
		if e.Metrics["devices_per_sec"] == 0 {
			t.Errorf("%s: devices_per_sec missing from %v", e.Name, e.Metrics)
		}
		if e.AllocsPerOp == 0 || e.BytesPerOp == 0 {
			t.Errorf("%s: B/op / allocs/op lost after the custom pair: %+v", e.Name, e)
		}
	}
}

func TestMetricKey(t *testing.T) {
	for unit, want := range map[string]string{
		"devices/sec": "devices_per_sec",
		"MB/s":        "MB_per_s",
		"cells sec":   "cells_sec",
	} {
		if got := metricKey(unit); got != want {
			t.Errorf("metricKey(%q) = %q, want %q", unit, got, want)
		}
	}
}

func TestParseOnlyFilter(t *testing.T) {
	f, err := parse(strings.NewReader(benchOutput), []string{"DTPM"})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Benchmarks) != 1 || f.Benchmarks[0].Name != "BenchmarkSimCellDTPM" {
		t.Fatalf("filtered: %+v", f.Benchmarks)
	}
}

func writeArtifact(t *testing.T, name string, entries []Entry) string {
	t.Helper()
	data, err := json.Marshal(File{Benchmarks: entries})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunCheck pins the allocation-regression gate: growth beyond the
// tolerance fails, growth within it (and improvements, renames, and new
// benchmarks) passes.
func TestRunCheck(t *testing.T) {
	base := writeArtifact(t, "base.json", []Entry{
		{Name: "BenchmarkSimCell", AllocsPerOp: 50},
		{Name: "BenchmarkGone", AllocsPerOp: 10},
	})
	okLatest := writeArtifact(t, "ok.json", []Entry{
		{Name: "BenchmarkSimCell", AllocsPerOp: 55}, // +10% < 20%
		{Name: "BenchmarkNew", AllocsPerOp: 99},     // no baseline: reported, never gated
	})
	if err := runCheck(base, okLatest, 0.20); err != nil {
		t.Fatalf("within-tolerance growth failed the gate: %v", err)
	}
	badLatest := writeArtifact(t, "bad.json", []Entry{
		{Name: "BenchmarkSimCell", AllocsPerOp: 61}, // +22% > 20%
	})
	if err := runCheck(base, badLatest, 0.20); err == nil {
		t.Fatal("regression beyond tolerance passed the gate")
	}
	if _, err := load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("load of a missing artifact succeeded")
	}
}

// TestRunSpeedup pins the same-run ratio gate: devices_per_sec is the
// preferred basis, ns/op the fallback, and a ratio below the floor fails.
func TestRunSpeedup(t *testing.T) {
	art := writeArtifact(t, "tp.json", []Entry{
		{Name: "Bench/scalar", NsPerOp: 44e6, Metrics: map[string]float64{"devices_per_sec": 1434}},
		{Name: "Bench/batched", NsPerOp: 27e6, Metrics: map[string]float64{"devices_per_sec": 2389}},
		{Name: "Bench/plain", NsPerOp: 88e6},
	})
	// 2389/1434 = 1.67x: clears a 1.4 floor, not a 2.0 floor.
	if err := runSpeedup(art, "Bench/batched,Bench/scalar,1.4"); err != nil {
		t.Fatalf("1.67x failed a 1.4x floor: %v", err)
	}
	if err := runSpeedup(art, "Bench/batched,Bench/scalar,2.0"); err == nil {
		t.Fatal("1.67x passed a 2.0x floor")
	}
	// ns/op fallback when either side lacks the metric: 88e6/44e6 = 2x.
	if err := runSpeedup(art, "Bench/scalar,Bench/plain,1.9"); err != nil {
		t.Fatalf("ns/op fallback failed: %v", err)
	}
	for _, bad := range []string{"one,two", "a,b,zero", "a,b,-1", "Bench/batched,Nope,1.1", "Nope,Bench/scalar,1.1"} {
		if err := runSpeedup(art, bad); err == nil {
			t.Errorf("spec %q did not fail", bad)
		}
	}
}

// TestRunSpeedupMedian: repeated measurements pair in order and the gate
// judges the median pair ratio, so one outlier repetition cannot fail (or
// pass) it; unpaired counts are an error.
func TestRunSpeedupMedian(t *testing.T) {
	dps := func(name string, v float64) Entry {
		return Entry{Name: name, NsPerOp: 1, Metrics: map[string]float64{"devices_per_sec": v}}
	}
	art := writeArtifact(t, "median.json", []Entry{
		dps("B/one", 1000), dps("B/wide", 1200), // 1.2x
		dps("B/one", 1000), dps("B/wide", 700), // 0.7x outlier
		dps("B/one", 900), dps("B/wide", 1170), // 1.3x
	})
	if err := runSpeedup(art, "B/wide,B/one,1.1"); err != nil {
		t.Fatalf("median 1.2x failed a 1.1x floor: %v", err)
	}
	if err := runSpeedup(art, "B/wide,B/one,1.25"); err == nil {
		t.Fatal("median 1.2x passed a 1.25x floor")
	}
	uneven := writeArtifact(t, "uneven.json", []Entry{dps("B/one", 1), dps("B/wide", 1), dps("B/wide", 1)})
	if err := runSpeedup(uneven, "B/wide,B/one,0.5"); err == nil {
		t.Fatal("unpaired measurement counts passed the gate")
	}
}

// TestRunMaxBytes pins the absolute B/op ceiling gate: at or under the
// ceiling passes, over it fails, and malformed specs or missing
// benchmarks are errors rather than silent passes.
func TestRunMaxBytes(t *testing.T) {
	art := writeArtifact(t, "bytes.json", []Entry{
		{Name: "Bench/batched", NsPerOp: 1, BytesPerOp: 239032},
		{Name: "Bench/scalar", NsPerOp: 1, BytesPerOp: 1.5e6},
	})
	if err := runMaxBytes(art, "Bench/batched,400000"); err != nil {
		t.Fatalf("239032 B/op failed a 400000 ceiling: %v", err)
	}
	if err := runMaxBytes(art, "Bench/batched, 239032"); err != nil {
		t.Fatalf("B/op exactly at the ceiling failed: %v", err)
	}
	if err := runMaxBytes(art, "Bench/scalar,400000"); err == nil {
		t.Fatal("1.5e6 B/op passed a 400000 ceiling")
	}
	for _, bad := range []string{"no-ceiling", "Bench/batched,zero", "Bench/batched,-5", "Nope,100"} {
		if err := runMaxBytes(art, bad); err == nil {
			t.Errorf("spec %q did not fail", bad)
		}
	}
}

// TestWriteRecord pins the archive mode: a sortable timestamped filename
// and host provenance on the artifact.
func TestWriteRecord(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	f := &File{Benchmarks: []Entry{{Name: "BenchmarkX", NsPerOp: 1}}}
	path, err := writeRecord(dir, f)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Dir(path) != dir || !strings.HasSuffix(path, "Z.json") {
		t.Fatalf("record path %q not a timestamped file under %q", path, dir)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got File
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.RecordedAt == "" || got.Host == nil || got.Host.GOOS == "" || got.Host.NumCPU < 1 || got.Host.GoVersion == "" {
		t.Fatalf("record missing provenance: %+v", got)
	}
	if len(got.Benchmarks) != 1 || got.Benchmarks[0].Name != "BenchmarkX" {
		t.Fatalf("record lost benchmarks: %+v", got.Benchmarks)
	}
}

func TestSplitListAndKeep(t *testing.T) {
	got := splitList(" a, ,b,")
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("splitList: %v", got)
	}
	if keep("BenchmarkX", []string{"Y"}) || !keep("BenchmarkX", nil) || !keep("BenchmarkXY", []string{"XY"}) {
		t.Fatal("keep filter misbehaves")
	}
}
