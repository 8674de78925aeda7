package main

import (
	"bytes"
	"context"
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// miniConfig shrinks every workload to a few devices and four ops per
// stream, so the whole harness runs in seconds. Four ops with a period of
// three exercise the repeated-input check.
func miniConfig() config {
	return config{
		coldN: 6, warmN: 12, interactiveN: 6, sweepN: 3, benches: 2,
		period: 3, sweepPinned: 4, setups: 1, maxOps: 4,
		probeCalls: 200, probeN: 4,
	}
}

var (
	miniPinOnce sync.Once
	miniPinned  map[string]map[string][]string
	miniPinErr  error
)

// pinnedMini returns the oracle digests of the miniature at seed 1.
func pinnedMini(t *testing.T) map[string]map[string][]string {
	t.Helper()
	miniPinOnce.Do(func() {
		dir, err := os.MkdirTemp("", "bench-pin-")
		if err != nil {
			miniPinErr = err
			return
		}
		defer os.RemoveAll(dir)
		miniPinned, miniPinErr = pinDigests(context.Background(), miniConfig(), 1, dir)
	})
	if miniPinErr != nil {
		t.Fatal(miniPinErr)
	}
	return miniPinned
}

func names(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.name)
	}
	return out
}

func TestWorkloadsMiniature(t *testing.T) {
	pinned := pinnedMini(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				res, err := run(context.Background(), runOptions{
					workload: w, seed: 1, window: time.Hour, cfg: miniConfig(),
					trace: traced, dir: t.TempDir(), expected: pinned[w.name],
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.correct() {
					t.Fatalf("traced=%v: %v", traced, res.problems)
				}
				if res.attempted == 0 || res.failed != 0 {
					t.Fatalf("traced=%v: attempted %d, failed %d", traced, res.attempted, res.failed)
				}
				out := outputOf(res)
				want := names(endToEnd)
				if traced {
					want = names(perLayer)
				}
				if got := slices.Sorted(maps.Keys(out.Metrics)); !slices.Equal(got, slices.Sorted(slices.Values(want))) {
					t.Fatalf("traced=%v: metrics %v, want %v", traced, got, want)
				}
				for name, m := range out.Metrics {
					if !traced && !(m.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
					}
				}
				if traced && w.name == "daemon-mixed" {
					checkSharedOpIDs(t, res.tracer)
				}
			}
		})
	}
}

// checkSharedOpIDs asserts that the daemon's server spans sit under the
// client spans that caused them, inside the same op.
func checkSharedOpIDs(t *testing.T, tr *tracer) {
	t.Helper()
	spans, roots, _ := tr.snapshot()
	ops := map[int64]bool{}
	for _, r := range roots {
		if r.Kind == "op" {
			ops[r.ID] = true
		}
	}
	server := 0
	for _, s := range spans {
		if !strings.HasPrefix(s.Name, "server.") {
			continue
		}
		server++
		parent := spans[s.Parent-1]
		if !ops[s.Op] || parent.Op != s.Op || !strings.HasPrefix(parent.Name, "client.") {
			t.Fatalf("server span %+v: parent %+v is not a client span of the same op", s, parent)
		}
	}
	if server == 0 {
		t.Fatal("no server spans recorded")
	}
}

func TestTamperedDigestFails(t *testing.T) {
	pinned := pinnedMini(t)
	w, _ := workloadByName("fleet-cold")
	tampered := map[string][]string{"main": slices.Clone(pinned[w.name]["main"])}
	tampered["main"][1] = strings.Repeat("0", 64)
	res, err := run(context.Background(), runOptions{
		workload: w, seed: 1, window: time.Hour, cfg: miniConfig(),
		dir: t.TempDir(), expected: tampered,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.correct() {
		t.Fatal("a tampered committed digest passed")
	}
	if !strings.Contains(strings.Join(res.problems, "\n"), "fleet-cold/main op 1:") {
		t.Fatalf("problems do not name the workload and op: %v", res.problems)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the harness in step, and every
// printed name within the allowed alphabet.
func TestBenchmarkJSON(t *testing.T) {
	bf, err := loadBenchmark(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, d := range append(slices.Clone(endToEnd), perLayer...) {
		if !valid.MatchString(d.name) {
			t.Errorf("metric name %q", d.name)
		}
	}
	for _, w := range workloads {
		if !valid.MatchString(w.name) {
			t.Errorf("workload name %q", w.name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) || len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d/%d/%d end-to-end/per-layer/workloads, harness %d/%d/%d",
			len(bf.EndToEnd), len(bf.PerLayer), len(bf.Workloads), len(endToEnd), len(perLayer), len(workloads))
	}
	for i, m := range bf.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end[%d] = %s %s %s, harness %s %s %s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
	}
	for i, m := range bf.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %s %s %s, harness %s %s %s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workloads[%d] = %q %q, harness %q %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Op: 1, Name: "op", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Op: 1, Name: "a", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 2, Op: 1, Name: "a.inner", Start: 15 * ms, End: 20 * ms},
		{ID: 4, Parent: 1, Op: 1, Name: "b", Start: 30 * ms, End: 60 * ms},  // overlaps a
		{ID: 5, Parent: 1, Op: 1, Name: "c", Start: 90 * ms, End: 120 * ms}, // runs past the root
		{ID: 6, Parent: 1, Op: 1, Name: "mark", Start: 50 * ms, End: 50 * ms},
		{ID: 7, Op: 7, Name: "op", Start: 200 * ms, End: 300 * ms},
		{ID: 8, Parent: 7, Op: 7, Name: "a", Start: 200 * ms, End: 250 * ms},
		{ID: 9, Parent: 7, Op: 7, Name: "open", Start: 260 * ms, End: -1},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 40 * ms, 2: 25 * ms, 3: 5 * ms, 4: 30 * ms, 5: 30 * ms, 6: 0, 7: 50 * ms, 8: 50 * ms}
	if !maps.Equal(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	rows := layerTable(spans, []int64{1, 7})
	if r := row(rows, "op"); r.CountPerOp != 1 || r.SelfPerOp != 45*ms || r.BusyPerOp != 100*ms {
		t.Errorf("op row %+v", r)
	}
	if r := row(rows, "a"); r.CountPerOp != 1 || r.BusyPerOp != 40*ms || r.SelfPerOp != 37500*time.Microsecond {
		t.Errorf("a row %+v", r)
	}
	if r := row(rows, "b"); r.CountPerOp != 0.5 || r.BusyPerOp != 15*ms {
		t.Errorf("b row %+v", r)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(v, n=4) for each input.
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
	} {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = x * f
		}
		return out
	}
	wide := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name         string
		base, change []float64
		higher       bool
		want         string
	}{
		{"identical", base, base, false, "same"},
		{"within bound", base, scale(base, 1.03), false, "same"},
		{"slower beyond bound", base, scale(base, 1.10), false, "worse"},
		{"faster, every pair", base, scale(base, 0.90), false, "better"},
		{"faster, too few pairs", base[:5], scale(base[:5], 0.90), false, "same"},
		{"throughput up", base, scale(base, 1.10), true, "better"},
		{"throughput down", base, scale(base, 0.90), true, "worse"},
		{"spread wider than bound", wide, base, false, "unresolved"},
		{"spread wide, every run better", scale(wide, 2), base, false, "better"},
		{"spread wide, median worse beyond bound", wide, scale(wide, 2), false, "worse"},
	} {
		if got := verdict(c.base, c.change, 0.05, c.higher); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareMain(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, f float64) string {
		var b bytes.Buffer
		for seed := int64(1); seed <= 10; seed++ {
			rec := taggedOutput{Workload: "fleet-cold", Seed: seed, output: output{
				Correct: true, Attempted: 1, Metrics: map[string]valueUnit{
					"op_p50_s": {f * (1 + float64(seed%3)/1000), "s"},
				}}}
			line, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			b.Write(append(line, '\n'))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, slow := write("base", 1), write("same", 1), write("slow", 1.5)
	cfg := filepath.Join("..", "BENCHMARK.json")
	var out bytes.Buffer
	if code := compareMain([]string{"-config", cfg, base, same}, &out); code != 0 || !strings.Contains(out.String(), "same") {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := compareMain([]string{"-config", cfg, base, slow}, &out); code != 1 || !strings.Contains(out.String(), "worse") {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
}
