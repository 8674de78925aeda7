package campaign

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/store"
)

// streamGrid is a small multi-cell grid cheap enough to sweep at three
// worker counts under -race.
func streamGrid() Grid {
	return Grid{
		Policies:   []sim.Policy{sim.PolicyNoFan, sim.PolicyReactive},
		Benchmarks: []string{"dijkstra"},
		Seeds:      []int64{1, 2},
	}
}

// progressLog collects OnCellDone calls: the results by cell index and the
// done counts in call order. The engine promises serial calls; the mutex
// only keeps the race detector honest about that promise.
type progressLog struct {
	mu    sync.Mutex
	cells map[int]CellResult
	dones []int
	total int
	dup   []int
}

func (l *progressLog) hook() func(done, total int, r CellResult) {
	l.cells = make(map[int]CellResult)
	return func(done, total int, r CellResult) {
		l.mu.Lock()
		defer l.mu.Unlock()
		if _, ok := l.cells[r.Cell.Index]; ok {
			l.dup = append(l.dup, r.Cell.Index)
		}
		l.cells[r.Cell.Index] = r
		l.dones = append(l.dones, done)
		l.total = total
	}
}

// checkEveryCell asserts the log saw every cell of rep exactly once, in
// the order 1..total, each callback result equal to its report cell.
func (l *progressLog) checkEveryCell(t *testing.T, what string, rep *Report) {
	t.Helper()
	if len(l.dup) > 0 {
		t.Errorf("%s: cells %v reported twice", what, l.dup)
	}
	if len(l.dones) != len(rep.Cells) || l.total != len(rep.Cells) {
		t.Fatalf("%s: OnCellDone ran %d times with total %d, want %d", what, len(l.dones), l.total, len(rep.Cells))
	}
	for i, d := range l.dones {
		if d != i+1 {
			t.Fatalf("%s: done sequence %v, want 1..%d", what, l.dones, len(rep.Cells))
		}
	}
	for i, want := range rep.Cells {
		if got, ok := l.cells[i]; !ok || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: cell %d: callback %+v, report %+v", what, i, got, want)
		}
	}
}

// TestProgressCoversFailedCells: OnCellDone fires for every cell, cells
// that fail before they simulate included — unknown benchmark, governor
// and platform, and a cell naming both a benchmark and a scenario — cold
// and then warm on one store, and the callback agrees with the report
// cell for cell.
func TestProgressCoversFailedCells(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	grid := Grid{
		Policies:   []sim.Policy{sim.PolicyNoFan},
		Benchmarks: []string{"dijkstra", "no-such-bench"},
		Scenarios:  []string{"", "cold-start"},
		Platforms:  []string{"", "no-such-soc"},
		Governors:  []string{"", "no-such-governor"},
	}
	for _, pass := range []string{"cold", "warm"} {
		var log progressLog
		eng := &Engine{Workers: 4, BaseSeed: 1, Models: testModels(t), Store: st, OnCellDone: log.hook()}
		rep, err := eng.RunContext(context.Background(), grid)
		if err != nil {
			t.Fatal(err)
		}
		if ok := len(rep.Cells) - len(rep.Failures()); ok != 1 {
			t.Fatalf("%s: %d cells ran clean, want 1:\n%s", pass, ok, rep.Summary())
		}
		log.checkEveryCell(t, pass, rep)
	}
	if s := st.Stats(); s.Hits != 1 || s.Writes != 1 {
		t.Errorf("store stats %+v, want the one clean cell written cold and served warm", s)
	}
}

// TestStreamDeterministicAcrossWorkers pins the progress contract under
// the race detector: at 1, 4, and 8 workers the results OnCellDone sees,
// ordered by cell index, equal the 1-worker report bit for bit,
// regardless of the completion order they arrived in.
func TestStreamDeterministicAcrossWorkers(t *testing.T) {
	grid := streamGrid()
	baseline, err := (&Engine{Workers: 1, BaseSeed: 7}).RunContext(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 8} {
		var log progressLog
		eng := &Engine{Workers: workers, BaseSeed: 7, OnCellDone: log.hook()}
		if _, err := eng.RunContext(context.Background(), grid); err != nil {
			t.Fatal(err)
		}
		log.checkEveryCell(t, fmt.Sprintf("workers=%d", workers), baseline)
	}
}

// TestStreamCancellationDrainsPool cancels a campaign inside its first
// OnCellDone: only the few cells already handed to a worker may start
// (each reports through OnCellDone), every other cell is marked
// "cancelled before start", and RunContext returns the partial report
// with an ErrCancelled-wrapped error.
func TestStreamCancellationDrainsPool(t *testing.T) {
	const workers = 2
	grid := streamGrid()
	grid.Seeds = []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := 0
	eng := &Engine{Workers: workers, BaseSeed: 7, Models: testModels(t), OnCellDone: func(done, total int, r CellResult) {
		started++
		cancel()
	}}
	rep, err := eng.RunContext(ctx, grid)
	if !errors.Is(err, sim.ErrCancelled) {
		t.Fatalf("RunContext cancelled mid-run returned %v, want ErrCancelled", err)
	}
	if rep == nil || len(rep.Cells) != grid.Size() {
		t.Fatalf("partial report: %+v", rep)
	}
	if started == 0 || started > 4*workers {
		t.Errorf("%d cells started after cancelling at the first result, want 1..%d", started, 4*workers)
	}
	notStarted := 0
	for _, c := range rep.Cells {
		switch {
		case c.Err == "campaign: cancelled before start":
			notStarted++
		case c.Err == "" && c.Metrics == nil:
			t.Errorf("cell %d neither completed nor marked cancelled", c.Cell.Index)
		}
	}
	if started+notStarted != grid.Size() {
		t.Errorf("%d cells started and %d marked cancelled before start, want %d in all", started, notStarted, grid.Size())
	}

	// A context cancelled up front starts nothing.
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	rep, err = (&Engine{Workers: workers, BaseSeed: 7}).RunContext(ctx2, grid)
	if !errors.Is(err, sim.ErrCancelled) {
		t.Fatalf("RunContext on cancelled ctx returned %v, want ErrCancelled", err)
	}
	for _, c := range rep.Cells {
		if c.Err != "campaign: cancelled before start" {
			t.Errorf("cell %d of a pre-cancelled run: %+v", c.Cell.Index, c)
		}
	}
}

// TestStreamEarlyBreak abandons a run inside its first OnCellDone, the way
// a consumer breaking out of a progress stream does, on an engine that
// characterizes its own device: the same engine then sweeps the grid
// cleanly, so nothing the abandoned run touched stays poisoned.
func TestStreamEarlyBreak(t *testing.T) {
	grid := streamGrid()
	eng := &Engine{Workers: 4, BaseSeed: 7}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	eng.OnCellDone = func(int, int, CellResult) { cancel() }
	if _, err := eng.RunContext(ctx, grid); !errors.Is(err, sim.ErrCancelled) {
		t.Fatalf("abandoned run returned %v, want ErrCancelled", err)
	}
	eng.OnCellDone = nil
	rep, err := eng.RunContext(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures()) != 0 {
		t.Fatalf("sweep after an abandoned run failed: %+v", rep.Failures())
	}
}
