// Package sched is the shared execution substrate under the campaign and
// fleet engines: a deterministic worker pool (ForEach for a known-length
// index space, Drain for lazily planned work), completion-order streaming
// with clean abandonment (Stream), and panic containment for individual
// work items (RunSafely). The per-platform characterization cache the
// engines share lives here too (Cache).
//
// The pool deliberately carries no result plumbing of its own: work is
// handed out in index order from a shared counter, the closure owns any
// synchronization of shared state, and nothing here depends on worker
// count — which is what lets both engines promise byte-identical reports
// at any parallelism level while sharing one scheduler.
package sched

import (
	"context"
	"fmt"
	"iter"
	"runtime"
	"sync"
)

// Pool is a fixed-width worker pool. The zero value is ready to use and
// sizes itself to GOMAXPROCS.
type Pool struct {
	// Workers is the pool width; <= 0 means GOMAXPROCS.
	Workers int
}

// Size resolves the effective worker count for n work items: Workers
// (GOMAXPROCS when unset) capped at n. Callers size bounded queues and
// reorder windows off it.
func (p Pool) Size(n int) int {
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	return workers
}

// ForEach runs fn(0..n-1) on the pool and blocks until all are done. Work
// is handed out in index order from a shared counter, fn runs concurrently
// on up to Workers goroutines, and fn itself owns any synchronization of
// shared state it touches. A pool of one worker runs inline — no goroutine
// is spawned for sequential work.
func (p Pool) ForEach(n int, fn func(i int)) {
	Drain(Pool{Workers: max(p.Size(n), 1)}, counter(n), fn)
}

// counter hands out 0..n-1 in order as a Drain work source.
func counter(n int) func() (int, bool) {
	next := 0
	return func() (int, bool) {
		if next >= n {
			return 0, false
		}
		next++
		return next - 1, true
	}
}

// Drain feeds fn from a lazily planned work source until next reports
// exhaustion — the unbounded-length counterpart of ForEach. next is always
// called under the pool's own lock (never concurrently), so a stateful
// planner needs no synchronization; fn runs concurrently on up to Workers
// goroutines and owns any shared state it touches. One worker runs inline.
func Drain[T any](p Pool, next func() (T, bool), fn func(T)) {
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers <= 1 {
		for {
			t, ok := next()
			if !ok {
				return
			}
			fn(t)
		}
	}
	var (
		wg sync.WaitGroup
		mu sync.Mutex
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				t, ok := next()
				mu.Unlock()
				if !ok {
					return
				}
				fn(t)
			}
		}()
	}
	wg.Wait()
}

// Stream runs run(ctx, 0..n-1) on the pool and returns an iterator that
// yields every result as its worker finishes — completion order, not index
// order, which is what makes live progress reporting possible while long
// items are still running. Collect into index order to recover a
// deterministic sequence.
//
// Cancelling the context stops workers from starting new items; in-flight
// items still deliver their (presumably cancelled) results, and the pool
// always drains cleanly — no goroutine outlives the iterator. Breaking out
// of the iteration early behaves like cancellation.
func Stream[T any](ctx context.Context, p Pool, n int, run func(ctx context.Context, i int) T) iter.Seq[T] {
	pool := Pool{Workers: max(p.Size(n), 1)}
	return func(yield func(T) bool) {
		ictx, cancel := context.WithCancel(ctx)
		defer cancel()
		out := make(chan T)
		// abandoned is closed only when the consumer breaks out of the
		// iteration — the one case where nobody will ever receive again.
		// Context cancellation deliberately does NOT unblock the send:
		// the consumer keeps draining until close(out), and an item that
		// finished around the cancellation instant must still be
		// delivered (dropping it would mislabel a completed item as
		// never-started in a collected report).
		abandoned := make(chan struct{})
		next := counter(n)
		go func() {
			Drain(pool, func() (int, bool) {
				if ictx.Err() != nil {
					return 0, false
				}
				return next()
			}, func(i int) {
				select {
				case out <- run(ictx, i):
				case <-abandoned:
				}
			})
			close(out)
		}()
		for r := range out {
			if !yield(r) {
				cancel()
				close(abandoned)
				for range out { // drain until the pool exits
				}
				return
			}
		}
	}
}

// RunSafely calls run and converts a panic into an error, so a
// pathological cell — or a batch of cells — cannot take a whole sweep
// down. Both engines route every simulation call through it.
func RunSafely[T any](run func() (T, error)) (res T, err error) {
	defer func() {
		if p := recover(); p != nil {
			var zero T
			res, err = zero, fmt.Errorf("sched: run panicked: %v", p)
		}
	}()
	return run()
}
