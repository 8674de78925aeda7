// Package sched is the shared execution substrate under the campaign and
// fleet engines: a deterministic worker pool (ForEach for a known-length
// index space, Drain for lazily planned work) and panic containment for
// individual work items (RunSafely). The per-platform characterization
// cache the engines share lives here too (Cache).
//
// The pool deliberately carries no result plumbing of its own: work is
// handed out in index order from a shared counter, the closure owns any
// synchronization of shared state, and nothing here depends on worker
// count — which is what lets both engines promise byte-identical reports
// at any parallelism level while sharing one scheduler.
package sched

import (
	"fmt"
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
