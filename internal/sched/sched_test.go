package sched

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/platform"
	"repro/internal/sim"
)

func coverage(t *testing.T, hits []int, want int) {
	t.Helper()
	for i, h := range hits {
		if h != want {
			t.Fatalf("index %d ran %d times, want %d", i, h, want)
		}
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 100} {
		const n = 53
		hits := make([]int, n)
		var mu sync.Mutex
		Pool{Workers: workers}.ForEach(n, func(i int) {
			mu.Lock()
			hits[i]++
			mu.Unlock()
		})
		coverage(t, hits, 1)
	}
}

func TestForEachZeroItems(t *testing.T) {
	ran := false
	Pool{Workers: 4}.ForEach(0, func(int) { ran = true })
	if ran {
		t.Fatal("fn ran for an empty index space")
	}
}

func TestSizeCapsAtWorkAndDefaultsToGOMAXPROCS(t *testing.T) {
	if got := (Pool{Workers: 8}).Size(3); got != 3 {
		t.Fatalf("Size(3) with 8 workers = %d, want 3", got)
	}
	if got := (Pool{}).Size(1 << 20); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("default Size = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
}

func TestDrainExhaustsStatefulPlanner(t *testing.T) {
	for _, workers := range []int{1, 4} {
		const n = 200
		next := 0 // planner state: Drain promises next runs under its lock
		hits := make([]int, n)
		var mu sync.Mutex
		Drain(Pool{Workers: workers}, func() (int, bool) {
			if next >= n {
				return 0, false
			}
			i := next
			next++
			return i, true
		}, func(i int) {
			mu.Lock()
			hits[i]++
			mu.Unlock()
		})
		coverage(t, hits, 1)
	}
}

func TestStreamDeliversEveryResult(t *testing.T) {
	for _, workers := range []int{1, 4} {
		const n = 40
		var got []int
		for r := range Stream(context.Background(), Pool{Workers: workers}, n, func(_ context.Context, i int) int {
			return i
		}) {
			got = append(got, r)
		}
		sort.Ints(got)
		if len(got) != n {
			t.Fatalf("streamed %d results, want %d", len(got), n)
		}
		for i, r := range got {
			if r != i {
				t.Fatalf("missing result %d (got %d)", i, r)
			}
		}
	}
}

// Breaking out of the stream must abandon cleanly: no worker goroutine may
// outlive the iterator.
func TestStreamEarlyBreakLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for r := range Stream(context.Background(), Pool{Workers: 4}, 100, func(_ context.Context, i int) int {
		time.Sleep(time.Millisecond)
		return i
	}) {
		_ = r
		break
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after early break: %d > %d", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Cancelling the context stops workers from starting new items but still
// delivers in-flight results and closes the stream.
func TestStreamCancellationDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	const n = 1000
	seen := 0
	for range Stream(ctx, Pool{Workers: 4}, n, func(_ context.Context, i int) int { return i }) {
		seen++
		if seen == 5 {
			cancel()
		}
	}
	cancel()
	if seen == 0 || seen > n {
		t.Fatalf("streamed %d results after cancellation, want 1..%d", seen, n)
	}
}

func TestRunSafelyConvertsPanics(t *testing.T) {
	// A nil runner panics inside Run; RunSafely must convert that into an
	// error instead of unwinding the worker.
	var r *sim.Runner
	res, err := RunSafely(func() (*sim.Result, error) { return r.Run(context.Background(), sim.Options{}) })
	if err == nil || res != nil {
		t.Fatalf("RunSafely(nil runner) = %v, %v; want nil result and panic error", res, err)
	}
}

// panicScript is a BatchScript whose every method panics (its embedded
// interface is nil), so a batch over it panics inside the kernel.
type panicScript struct{ sim.BatchScript }

// TestRunSafelyContainsBatchPanics: a panicking batch call becomes an
// error with no partial results, not a crash.
func TestRunSafelyContainsBatchPanics(t *testing.T) {
	opts := []sim.Options{{Script: panicScript{}}, {Script: panicScript{}}}
	res, err := RunSafely(func() ([]*sim.Result, error) {
		return sim.NewRunner().RunBatch(context.Background(), opts)
	})
	if err == nil || res != nil {
		t.Fatalf("RunSafely(panicking batch) = %v, %v; want nil results and panic error", res, err)
	}
}

func TestCacheCharacterizesOnce(t *testing.T) {
	var c Cache
	r1, m1, err := c.Device(context.Background(), platform.DefaultName, 1)
	if err != nil {
		t.Fatal(err)
	}
	r2, m2, err := c.Device(context.Background(), platform.DefaultName, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 || m1 != m2 {
		t.Fatal("second Device call rebuilt the platform instead of serving the cache")
	}
}

func TestCacheCachesUnknownPlatformError(t *testing.T) {
	var c Cache
	_, _, err1 := c.Device(context.Background(), "no-such-board", 1)
	_, _, err2 := c.Device(context.Background(), "no-such-board", 1)
	if !errors.Is(err1, platform.ErrUnknown) || !errors.Is(err2, platform.ErrUnknown) {
		t.Fatalf("want %v twice, got %v / %v", platform.ErrUnknown, err1, err2)
	}
}

// A characterization aborted by context cancellation must not poison the
// cache: the next call with a live context retries and succeeds.
func TestCacheDoesNotCacheContextCancellation(t *testing.T) {
	var c Cache
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.Device(cancelled, platform.DefaultName, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled characterization returned %v, want context.Canceled", err)
	}
	if _, _, err := c.Device(context.Background(), platform.DefaultName, 1); err != nil {
		t.Fatalf("retry after cancellation failed: %v", err)
	}
}
