package fleet

import (
	"context"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/store"
)

// registerTinyScenario registers a one-second idle scenario: the cheapest
// possible cell, so population-size scaling tests are dominated by the
// engine's own bookkeeping rather than simulation work.
func registerTinyScenario(t *testing.T, name string, seed int64) {
	t.Helper()
	if err := scenario.Register(scenario.Spec{
		Name:   name,
		Seed:   seed,
		Phases: []scenario.Phase{{Name: "idle", DurationS: 1}},
	}); err != nil {
		t.Fatal(err)
	}
}

func tinySpec(n int) Spec {
	return Spec{
		Name:           "mem-bound",
		N:              n,
		Policy:         "without-fan",
		ControlPeriodS: 0.5,
		Scenarios: []Weight{
			{Name: "mem-tiny-a", Weight: 2},
			{Name: "mem-tiny-b", Weight: 1},
		},
		AmbientJitterC: 3,
	}
}

// fleetPeakHeap runs an n-cell fleet and returns the peak retained heap
// growth observed over the run (forced-GC HeapAlloc samples every few
// thousand cells, relative to the pre-run baseline) plus the engine, whose
// lastMaxPending / lastMaxBuffered telemetry the caller asserts on.
func fleetPeakHeap(t *testing.T, n int) (int64, *Engine) {
	t.Helper()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	base := int64(ms.HeapAlloc)
	peak := base

	eng := &Engine{Workers: 4, BaseSeed: 7}
	count := 0
	eng.OnCellDone = func(Progress) {
		count++
		if count%5000 != 0 {
			return
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		if h := int64(ms.HeapAlloc); h > peak {
			peak = h
		}
	}
	rep, err := eng.Run(context.Background(), tinySpec(n))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != n {
		t.Fatalf("completed %d of %d cells", rep.Completed, n)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	if h := int64(ms.HeapAlloc); h > peak {
		peak = h
	}
	return peak - base, eng
}

// TestFleetBoundedMemory is the bounded-memory acceptance test: retained
// heap during a fleet run must be O(workers × batch), not O(N). A 5×
// population increase (20k → 100k cells) may only grow the peak retained
// heap by the report's inherent per-cell tail (the per-group scalar
// distributions, ~48 bytes per cell — kept for the exact percentiles the
// report promises), never by per-cell engine state. The structural
// telemetry pins the same contract exactly: the collector's pending window
// and the planner's buffered cells stay bounded by the flush window at any
// population size.
func TestFleetBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second population run")
	}
	registerTinyScenario(t, "mem-tiny-a", 9001)
	registerTinyScenario(t, "mem-tiny-b", 9002)

	const small, large = 20_000, 100_000
	deltaSmall, engSmall := fleetPeakHeap(t, small)
	deltaLarge, engLarge := fleetPeakHeap(t, large)

	// The tail arithmetic: (large-small) × 48 B ≈ 3.9 MB. The old
	// materialize-everything engine retained >100 B per cell (outcome +
	// metrics + config strings) and blows well past this ceiling.
	const ceiling = 8 << 20
	if growth := deltaLarge - deltaSmall; growth > ceiling {
		t.Errorf("peak retained heap grew %d bytes from %d to %d cells (ceiling %d): fleet memory is scaling with N",
			growth, small, large, int(ceiling))
	}

	// Structural bound: the collector gates unit hand-out at a window of
	// (flushWindowUnits + workers) batches, and each of the workers may
	// already hold one in-flight unit when the window fills — so the
	// pending high-water can overshoot by at most one unit per worker.
	// Independent of N by construction; assert it for both runs.
	const workers = 4
	bound := (flushWindowUnits + 2*workers) * DefaultBatchSize
	for _, eng := range []*Engine{engSmall, engLarge} {
		if eng.lastMaxPending > bound {
			t.Errorf("collector pending high-water %d exceeds bound %d", eng.lastMaxPending, bound)
		}
		if eng.lastMaxBuffered > bound {
			t.Errorf("planner buffered high-water %d exceeds bound %d", eng.lastMaxBuffered, bound)
		}
	}
}

// TestFleetPendingWindowMemory: a completed cell waiting in the
// collector's pending window for the merge frontier costs its compact
// sums, not a dense 720-bin aggregator (~5.9 KB). Cell 0 draws a rare
// scenario, so its unit is emitted only when the planner's flush window
// forces it out; on one worker every cell before that is computed first
// and waits behind cell 0. The heap the run retains at that stall, over
// the heap of the same engine before the run (its characterization and
// caches already made by a small warm-up fleet), divided by the pending
// cells must stay under 1 KB. The count includes everything the run
// holds — the sums the engine stocks for the whole window, the pending
// ring, the planner — so it is an upper bound on the per-cell cost.
func TestFleetPendingWindowMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ~600 cells")
	}
	registerTinyScenario(t, "mem-frontier", 9003)
	spec := Spec{
		Name:           "mem-pending",
		N:              flushWindowUnits*DefaultBatchSize + 64,
		Policy:         "dtpm",
		ControlPeriodS: 0.5,
		Scenarios: []Weight{
			{Name: "cold-start", Weight: 1000},
			{Name: "mem-frontier", Weight: 1},
		},
		AmbientJitterC: 3,
	}
	base := int64(0)
	for DeriveCell(spec, base, 0).Scenario != "mem-frontier" {
		base++
	}
	eng := &Engine{Workers: 1, BaseSeed: base}
	warmup := spec
	warmup.N = DefaultBatchSize
	if _, err := eng.Run(context.Background(), warmup); err != nil {
		t.Fatal(err)
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := int64(ms.HeapAlloc)

	// The sample falls before the frontier unit is emitted, so every
	// cell reported so far is pending.
	const pending = flushWindowUnits*DefaultBatchSize - 32
	var stalled int64
	eng.OnCellDone = func(p Progress) {
		if p.Cell.Index == 0 && p.Done <= pending {
			t.Errorf("cell 0 merged after %d cells, before the sample", p.Done)
		}
		if p.Done == pending {
			runtime.GC()
			runtime.ReadMemStats(&ms)
			stalled = int64(ms.HeapAlloc)
		}
	}
	rep, err := eng.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != spec.N {
		t.Fatalf("completed %d of %d cells", rep.Completed, spec.N)
	}
	perCell := float64(stalled-before) / pending
	t.Logf("retained heap %.0f B per pending cell at %d pending cells", perCell, pending)
	if perCell >= 1024 {
		t.Errorf("the run retains %.0f B of heap per pending cell, want under 1 KB", perCell)
	}
}

// TestFleetCancellationDrainsCleanly cancels a 10k-device store-backed
// fleet mid-run and verifies the shutdown contract end to end: no leaked
// goroutines (workers and the async store writer all exit), every store
// write accepted before the cancel is drained to disk, and the partial
// report is well-formed — completed plus collected-as-failed cells account
// for the whole population.
func TestFleetCancellationDrainsCleanly(t *testing.T) {
	registerTinyScenario(t, "mem-tiny-a", 9001)
	registerTinyScenario(t, "mem-tiny-b", 9002)
	st, err := store.Open(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	eng := &Engine{Workers: 4, BaseSeed: 7, Store: st}
	done := 0
	eng.OnCellDone = func(Progress) {
		done++
		if done == 4000 {
			cancel()
		}
	}
	spec := tinySpec(10_000)
	rep, err := eng.Run(ctx, spec)
	if err == nil {
		t.Fatal("cancelled fleet returned no error")
	}
	if !strings.Contains(err.Error(), sim.ErrCancelled.Error()) {
		t.Fatalf("error %v does not wrap the cancellation sentinel", err)
	}

	// Partial report: well-formed and complete over the population.
	if rep == nil {
		t.Fatal("cancelled fleet returned no partial report")
	}
	if rep.Cells != spec.N {
		t.Errorf("partial report covers %d cells, want %d", rep.Cells, spec.N)
	}
	if rep.Completed == 0 || rep.Completed == spec.N {
		t.Errorf("partial report completed %d of %d", rep.Completed, spec.N)
	}
	if rep.Completed+len(rep.Failures) != spec.N {
		t.Errorf("completed %d + failures %d does not cover %d cells",
			rep.Completed, len(rep.Failures), spec.N)
	}

	// Writer drain: Run must not return before the async writer persisted
	// every accepted outcome. A warm re-run of the same spec must serve at
	// least the completed cells from the store without recomputing them.
	warm := &Engine{Workers: 4, BaseSeed: 7, Store: st}
	hits := 0
	warm.OnCellDone = func(p Progress) {
		if p.Cached {
			hits++
		}
	}
	if _, err := warm.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if hits < rep.Completed {
		t.Errorf("warm run served %d cells from the store, want at least the %d completed before cancel",
			hits, rep.Completed)
	}

	// Goroutine hygiene: workers, writer, and stream plumbing all exited.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked after cancelled fleet: %d > %d\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
