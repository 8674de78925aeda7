// Package experiments regenerates every table and figure of the paper's
// evaluation (plus the Chapter 4 modeling figures and the Chapter 7
// extension) from the simulated platform. Each experiment is identified by
// the paper's artifact number ("fig6.9", "tab6.4", ...) and produces a
// Report with the same rows/series the paper plots.
//
// Shape, not absolute value, is the reproduction target: the substrate is a
// calibrated simulator rather than the authors' Odroid-XU+E, so who wins,
// by roughly what factor, and where the crossovers fall is what each report
// is judged on (see EXPERIMENTS.md for the recorded outcomes).
package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Table is a printable result table.
type Table struct {
	Name    string
	Columns []string
	Rows    [][]string
}

// String renders the table with aligned columns.
func (t Table) String() string {
	width := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		width[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(width) && len(cell) > width[i] {
				width[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Name != "" {
		fmt.Fprintf(&b, "%s\n", t.Name)
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// Report is the output of one experiment.
type Report struct {
	ID     string
	Title  string
	Notes  []string
	Tables []Table
	Charts []string
}

// String renders the whole report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	for _, t := range r.Tables {
		b.WriteByte('\n')
		b.WriteString(t.String())
	}
	for _, c := range r.Charts {
		b.WriteByte('\n')
		b.WriteString(c)
	}
	return b.String()
}

// Experiment is one regenerable paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(*Context) (*Report, error)
}

// Context carries the simulated device, the §4 characterization, and a
// result cache shared by the experiments (several figures reuse the same
// benchmark runs). Experiments read their {benchmark × policy} grids
// through runs, which simulates the uncached cells concurrently on a
// sched worker pool. Because sim.Run isolates all mutable state per run,
// the results are identical to sequential ones.
type Context struct {
	Runner *sim.Runner
	Char   *sim.Characterization
	Seed   int64

	ctx     context.Context
	workers int // run pool size; <= 0 means GOMAXPROCS

	mu    sync.Mutex
	cache map[string]*sim.Result
}

// NewContext builds the device and runs the full Chapter 4 characterization
// once (furnace + per-resource PRBS identification). The context cancels
// both the characterization and every simulation run through the returned
// Context — experiment regeneration is minutes of work, so CLIs pass a
// signal-bound context for SIGINT-clean shutdown.
func NewContext(ctx context.Context, seed int64) (*Context, error) {
	r := sim.NewRunner()
	ch, err := r.Characterize(ctx, seed)
	if err != nil {
		return nil, fmt.Errorf("experiments: characterization failed: %w", err)
	}
	return &Context{
		Runner: r, Char: ch, Seed: seed, ctx: ctx,
		cache: map[string]*sim.Result{},
	}, nil
}

// SetWorkers bounds the worker pool that simulates benchmark runs (<= 0
// means GOMAXPROCS).
func (c *Context) SetWorkers(n int) { c.workers = n }

func runKey(bench string, pol sim.Policy) string {
	return fmt.Sprintf("%s/%v", bench, pol)
}

// options builds the canonical cached-run options for one cell.
func (c *Context) options(bench workload.Benchmark, pol sim.Policy) sim.Options {
	return sim.Options{
		Policy: pol, Bench: bench, Seed: c.Seed + 5,
		Model: c.Char.Thermal, PowerModel: c.Char.Power,
		Record: true,
	}
}

// runs returns the cached run of every (benchmark, policy) pair, indexed
// [bench][policy], after simulating the uncached pairs concurrently on
// the worker pool. Every run records its full trace.
func (c *Context) runs(benches []workload.Benchmark, pols ...sim.Policy) ([][]*sim.Result, error) {
	type cell struct {
		key  string
		opts sim.Options
	}
	var missing []cell
	c.mu.Lock()
	for _, b := range benches {
		for _, pol := range pols {
			key := runKey(b.Name, pol)
			if _, ok := c.cache[key]; !ok {
				missing = append(missing, cell{key, c.options(b, pol)})
			}
		}
	}
	c.mu.Unlock()
	results := make([]*sim.Result, len(missing))
	errs := make([]error, len(missing))
	sched.Pool{Workers: c.workers}.ForEach(len(missing), func(i int) {
		results[i], errs[i] = sched.RunSafely(func() (*sim.Result, error) { return c.Runner.Run(c.ctx, missing[i].opts) })
	})
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, m := range missing {
		if errs[i] != nil {
			return nil, fmt.Errorf("experiments: %s: %w", m.key, errs[i])
		}
		c.cache[m.key] = results[i]
	}
	out := make([][]*sim.Result, len(benches))
	for i, b := range benches {
		out[i] = make([]*sim.Result, len(pols))
		for j, pol := range pols {
			out[i][j] = c.cache[runKey(b.Name, pol)]
		}
	}
	return out, nil
}

// benchmarks looks benchmarks up in the workload table by name.
func benchmarks(names ...string) ([]workload.Benchmark, error) {
	out := make([]workload.Benchmark, len(names))
	for i, name := range names {
		b, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// chart renders series as a compact ASCII figure.
func chart(title string, rows, width int, series ...*trace.Series) string {
	return trace.AsciiChart(title, series, rows, width)
}

// f1, f2, pct format numeric cells.
func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v) }

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "fig1.1", Title: "Maximum core temperature with and without the fan", Run: runFig1_1},
		{ID: "tab6.1", Title: "Frequency table for the big CPU cluster", Run: runTab6_1},
		{ID: "tab6.2", Title: "Frequency table for the little CPU cluster", Run: runTab6_2},
		{ID: "tab6.3", Title: "Frequency table for the GPU", Run: runTab6_3},
		{ID: "fig4.2", Title: "Total CPU power measurement data from the furnace", Run: runFig4_2},
		{ID: "fig4.3", Title: "Leakage power variation with temperature", Run: runFig4_3},
		{ID: "fig4.5", Title: "Leakage and dynamic power variation with temperature", Run: runFig4_5},
		{ID: "fig4.6", Title: "Leakage and dynamic power variation with frequency", Run: runFig4_6},
		{ID: "fig4.7", Title: "Power model validation", Run: runFig4_7},
		{ID: "fig4.8", Title: "PRBS test signal for the big cluster", Run: runFig4_8},
		{ID: "fig4.9", Title: "Thermal model validation for Blowfish (1 s horizon)", Run: runFig4_9},
		{ID: "fig4.10", Title: "Average temperature prediction error vs horizon (Templerun)", Run: runFig4_10},
		{ID: "tab6.4", Title: "Benchmarks used in the experiments", Run: runTab6_4},
		{ID: "fig6.2", Title: "Temperature prediction error for all benchmarks", Run: runFig6_2},
		{ID: "fig6.3", Title: "Temperature control for Templerun", Run: runFig6_3},
		{ID: "fig6.4", Title: "Temperature control for Basicmath", Run: runFig6_4},
		{ID: "fig6.5", Title: "Thermal stability comparison (Templerun, Basicmath)", Run: runFig6_5},
		{ID: "fig6.6", Title: "Frequency and temperature for Dijkstra (default vs DTPM)", Run: runFig6_6},
		{ID: "fig6.7", Title: "Frequency and temperature for Patricia (default vs DTPM)", Run: runFig6_7},
		{ID: "fig6.8", Title: "Frequency and temperature for Matrix Multiplication (default vs DTPM)", Run: runFig6_8},
		{ID: "fig6.9", Title: "Power savings and performance loss summary", Run: runFig6_9},
		{ID: "fig6.10", Title: "Power savings and performance loss, multi-threaded (FFT, LU)", Run: runFig6_10},
		{ID: "fig7.1", Title: "Power budget distribution across heterogeneous components", Run: runFig7_1},
	}
}

// IDs returns all experiment IDs in order.
func IDs() []string {
	all := All()
	out := make([]string, len(all))
	for i, e := range all {
		out[i] = e.ID
	}
	return out
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown id %q (known: %s)", id, strings.Join(IDs(), ", "))
}
