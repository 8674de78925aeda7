package campaign

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/sim"
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

// TestStreamDeterministicAcrossWorkers pins the streaming contract under
// the race detector: at 1, 4, and 8 workers the collected stream equals
// the batch report bit for bit once ordered by cell index, regardless of
// the completion order the cells were yielded in.
func TestStreamDeterministicAcrossWorkers(t *testing.T) {
	grid := streamGrid()
	baseline, err := (&Engine{Workers: 1, BaseSeed: 7}).RunContext(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 8} {
		eng := &Engine{Workers: workers, BaseSeed: 7}
		seq, err := eng.Stream(context.Background(), grid)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]CellResult, len(baseline.Cells))
		n := 0
		for r := range seq {
			if got[r.Cell.Index].Metrics != nil || got[r.Cell.Index].Err != "" {
				t.Fatalf("workers=%d: cell %d yielded twice", workers, r.Cell.Index)
			}
			got[r.Cell.Index] = r
			n++
		}
		if n != len(baseline.Cells) {
			t.Fatalf("workers=%d: stream yielded %d cells, want %d", workers, n, len(baseline.Cells))
		}
		if !reflect.DeepEqual(got, baseline.Cells) {
			t.Errorf("workers=%d: streamed report differs from the 1-worker batch report", workers)
		}
	}
}

// TestStreamCancellationDrainsPool cancels a streamed campaign after the
// first yielded cell: the iterator must terminate (draining, not hanging),
// in-flight cells must be collected as cancelled failures, and RunContext
// must mark never-started cells while returning an ErrCancelled-wrapped
// error with the partial report.
func TestStreamCancellationDrainsPool(t *testing.T) {
	grid := streamGrid()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	eng := &Engine{Workers: 2, BaseSeed: 7}
	seq, err := eng.Stream(ctx, grid)
	if err != nil {
		t.Fatal(err)
	}
	yielded := 0
	for range seq {
		yielded++
		cancel()
	}
	if yielded == 0 || yielded > grid.Size() {
		t.Fatalf("cancelled stream yielded %d cells", yielded)
	}

	// RunContext: partial report + sentinel error.
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	rep, err := (&Engine{Workers: 2, BaseSeed: 7}).RunContext(ctx2, grid)
	if !errors.Is(err, sim.ErrCancelled) {
		t.Fatalf("RunContext on cancelled ctx returned %v, want ErrCancelled", err)
	}
	if rep == nil || len(rep.Cells) != grid.Size() {
		t.Fatalf("partial report: %+v", rep)
	}
	for _, c := range rep.Cells {
		if c.Err == "" && c.Metrics == nil {
			t.Errorf("cell %d neither completed nor marked cancelled", c.Cell.Index)
		}
	}
}

// TestStreamEarlyBreak abandons the stream after one cell: the iterator
// must return promptly and leave no worker blocked (the -race run would
// catch a leaked goroutine touching test state; the explicit follow-up
// sweep proves the engine is reusable).
func TestStreamEarlyBreak(t *testing.T) {
	grid := streamGrid()
	eng := &Engine{Workers: 4, BaseSeed: 7}
	seq, err := eng.Stream(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	for range seq {
		break
	}
	// The engine stays usable after an abandoned stream.
	rep, err := eng.RunContext(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures()) != 0 {
		t.Fatalf("post-break sweep failed: %+v", rep.Failures())
	}
}
