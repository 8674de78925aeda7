package sched

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

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

// The three TestStream* tests below once covered a completion-order
// iterator in this package. The facade's StreamCampaign and StreamFleet now
// build that iterator on the engines' serial OnCellDone callbacks, so these
// pin the pool shape such a callback rests on (campaign.Engine.RunContext):
// each worker writes its own slot, one mutex-guarded counter reports every
// finished item, and a cancelled context starts no new work while the pool
// still joins.

func TestStreamDeliversEveryResult(t *testing.T) {
	for _, workers := range []int{1, 4} {
		const n = 40
		results := make([]int, n)
		var (
			mu       sync.Mutex
			done     int
			reported []int
		)
		Pool{Workers: workers}.ForEach(n, func(i int) {
			results[i] = i * i
			mu.Lock()
			done++
			if done != len(reported)+1 {
				t.Errorf("workers=%d: report %d arrived as done=%d", workers, len(reported)+1, done)
			}
			reported = append(reported, i)
			mu.Unlock()
		})
		if len(reported) != n {
			t.Fatalf("workers=%d: reported %d results, want %d", workers, len(reported), n)
		}
		hits := make([]int, n)
		for _, i := range reported {
			hits[i]++
		}
		coverage(t, hits, 1)
		for i, r := range results {
			if r != i*i {
				t.Fatalf("workers=%d: results[%d] = %d, want %d", workers, i, r, i*i)
			}
		}
	}
}

// Cancelling the context inside a report stops workers from running new
// items, which are marked instead, yet every index is still handed out and
// the pool joins.
func TestStreamCancellationDrains(t *testing.T) {
	const n, workers, cancelAt = 1000, 4, 5
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const unset, cancelled = -2, -1
	results := make([]int, n)
	for i := range results {
		results[i] = unset
	}
	var (
		mu   sync.Mutex
		done int
	)
	Pool{Workers: workers}.ForEach(n, func(i int) {
		if ctx.Err() != nil {
			results[i] = cancelled
			return
		}
		results[i] = i
		mu.Lock()
		done++
		if done == cancelAt {
			cancel()
		}
		mu.Unlock()
	})
	ran := 0
	for i, r := range results {
		switch r {
		case i:
			ran++
		case cancelled:
		default:
			t.Fatalf("results[%d] = %d: the pool returned before handing out every index", i, r)
		}
	}
	if ran != done {
		t.Fatalf("%d items ran but %d were reported", ran, done)
	}
	// Only the items already past their context check when the cancel
	// landed may still run: at most one per other worker.
	if done < cancelAt || done > cancelAt+workers-1 {
		t.Fatalf("%d items ran after cancelling at report %d, want %d..%d", done, cancelAt, cancelAt, cancelAt+workers-1)
	}
}

// A planner gated on the context starts no new item once the first
// completion cancels it: before any item finishes each worker can hold at
// most one, so no more than workers items ever start.
func TestStreamStopsStartingItems(t *testing.T) {
	const n = 1000
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		next := counter(n)
		var (
			started atomic.Int64
			mu      sync.Mutex
			done    int
		)
		Drain(Pool{Workers: workers}, func() (int, bool) {
			if ctx.Err() != nil {
				return 0, false
			}
			return next()
		}, func(int) {
			started.Add(1)
			mu.Lock()
			done++
			if done == 1 {
				cancel()
			}
			mu.Unlock()
		})
		cancel()
		if got := started.Load(); got < 1 || got > int64(workers) {
			t.Errorf("workers=%d: %d items started after cancelling at the first completion, want 1..%d", workers, got, workers)
		}
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

// panicScript is a Script whose every method panics (its embedded
// interface is nil), so a batch over it panics inside the kernel.
type panicScript struct{ sim.Script }

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
	c := NewCache(nil, nil, 1)
	r1, m1, err := c.Device(context.Background(), platform.DefaultName)
	if err != nil {
		t.Fatal(err)
	}
	// The empty coordinate is the anchor: the same entry, not a rebuild.
	r2, m2, err := c.Device(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 || m1 != m2 {
		t.Fatal("second Device call rebuilt the platform instead of serving the cache")
	}
}

func TestCacheCachesUnknownPlatformError(t *testing.T) {
	c := NewCache(nil, nil, 1)
	_, _, err1 := c.Device(context.Background(), "no-such-board")
	_, _, err2 := c.Device(context.Background(), "no-such-board")
	if !errors.Is(err1, platform.ErrUnknown) || !errors.Is(err2, platform.ErrUnknown) {
		t.Fatalf("want %v twice, got %v / %v", platform.ErrUnknown, err1, err2)
	}
	if _, ok := c.Platform("no-such-board"); ok {
		t.Error("Platform resolved an unknown name")
	}
}

// A characterization aborted by context cancellation must not poison the
// cache: the next call with a live context retries and succeeds. The
// anchor entry, pre-seeded with its runner, follows the same rule.
func TestCacheDoesNotCacheContextCancellation(t *testing.T) {
	runner := sim.NewRunner()
	c := NewCache(runner, nil, 1)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.Device(cancelled, ""); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled characterization returned %v, want context.Canceled", err)
	}
	got, models, err := c.Device(context.Background(), "")
	if err != nil {
		t.Fatalf("retry after cancellation failed: %v", err)
	}
	if got != runner || models == nil {
		t.Fatalf("retry served runner %p models %p, want the anchor %p with models", got, models, runner)
	}
}

// midFlowCancel is a context whose Err reports nothing for its first n
// calls and context.Canceled after: a cancellation that lands while the
// characterization's simulations are already running.
type midFlowCancel struct {
	context.Context
	left atomic.Int64
}

func (c *midFlowCancel) Err() error {
	if c.left.Add(-1) >= 0 {
		return nil
	}
	return context.Canceled
}

// TestCacheDoesNotCacheMidFlowCancellation cancels a lazy
// characterization after its first simulations have started: the error
// must reach the caller and the retry must characterize afresh.
func TestCacheDoesNotCacheMidFlowCancellation(t *testing.T) {
	c := NewCache(nil, nil, 1)
	ctx := &midFlowCancel{Context: context.Background()}
	ctx.left.Store(4)
	if _, _, err := c.Device(ctx, "fanless-phone"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled characterization returned %v, want context.Canceled", err)
	}
	_, models, err := c.Device(context.Background(), "fanless-phone")
	if err != nil || models == nil {
		t.Fatalf("retry after cancellation returned models %v, error %v", models, err)
	}
}

// TestCacheConcurrentResolvers hammers one cache from several goroutines
// (run under -race): the lazily characterized anchor is built once and
// every caller shares it, while error entries, platform names and tags are
// served alongside.
func TestCacheConcurrentResolvers(t *testing.T) {
	c := NewCache(nil, nil, 1)
	const callers = 8
	models := make([]*sim.Characterization, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := ""
			if i%2 == 1 {
				name = platform.DefaultName
			}
			_, m, err := c.Device(context.Background(), name)
			if err != nil {
				t.Error(err)
				return
			}
			models[i] = m
			if _, _, err := c.Device(context.Background(), "no-such-board"); !errors.Is(err, platform.ErrUnknown) {
				t.Errorf("unknown platform: %v", err)
			}
			if tag, ok := c.Tag(name); !ok || tag != "charseed:1" {
				t.Errorf("Tag(%q) = %q, %v", name, tag, ok)
			}
			if p, ok := c.Platform(name); !ok || p != platform.DefaultName {
				t.Errorf("Platform(%q) = %q, %v", name, p, ok)
			}
		}()
	}
	wg.Wait()
	for i, m := range models {
		if m == nil || m != models[0] {
			t.Fatalf("caller %d got models %p, caller 0 got %p: the anchor was characterized more than once", i, m, models[0])
		}
	}
}

// Injected models are served as-is: the anchor never characterizes, so a
// cancelled context cannot fail it.
func TestCacheInjectedModelsNeverCharacterize(t *testing.T) {
	runner, injected := sim.NewRunner(), &sim.Characterization{}
	c := NewCache(runner, injected, 1)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range []string{"", platform.DefaultName} {
		got, models, err := c.Device(cancelled, name)
		if err != nil || got != runner || models != injected {
			t.Fatalf("Device(%q) = %p, %p, %v; want the anchor and its injected models", name, got, models, err)
		}
	}
}

// TestCacheTags pins the provenance rule: a digest of injected models for
// the anchor, the characterization seed for everything the cache
// characterizes itself.
func TestCacheTags(t *testing.T) {
	self := NewCache(nil, nil, 7)
	for _, name := range []string{"", platform.DefaultName, "fanless-phone"} {
		if tag, ok := self.Tag(name); !ok || tag != "charseed:7" {
			t.Errorf("self-characterized Tag(%q) = %q, %v; want charseed:7", name, tag, ok)
		}
	}
	injected := NewCache(nil, &sim.Characterization{}, 7)
	tag, ok := injected.Tag("")
	if !ok || !strings.HasPrefix(tag, "models:") {
		t.Errorf("injected anchor Tag = %q, %v; want a models digest", tag, ok)
	}
	if other, ok := injected.Tag("fanless-phone"); !ok || other != "charseed:7" {
		t.Errorf("non-anchor platform of an injected cache: Tag = %q, %v; want charseed:7", other, ok)
	}
}

// The digest of injected models costs a full marshal, so it is computed
// once: later calls serve the first result even if the models change.
func TestCacheTagDigestComputedOnce(t *testing.T) {
	models := &sim.Characterization{}
	c := NewCache(nil, models, 1)
	first, _ := c.Tag("")
	models.Leakage.C1 = 5
	if again, _ := c.Tag(""); again != first {
		t.Fatalf("Tag recomputed the digest: %q then %q", first, again)
	}
	if fresh, _ := NewCache(nil, models, 1).Tag(""); fresh == first {
		t.Fatal("changing the models did not change a fresh digest; the once-check is vacuous")
	}
}

// Injected models encoding/json cannot hash make their cells
// unaddressable rather than sharing one tag.
func TestCacheTagUnhashableModels(t *testing.T) {
	models := &sim.Characterization{}
	models.Leakage.C1 = math.NaN()
	c := NewCache(nil, models, 1)
	if tag, ok := c.Tag(""); ok {
		t.Fatalf("unhashable models got tag %q", tag)
	}
	if _, ok := c.Tag("fanless-phone"); !ok {
		t.Fatal("a self-characterized platform must stay addressable")
	}
}
