package fleet

import "repro/internal/store"

// storeWriter moves result-store writes off the simulation hot path:
// workers address and encode each freshly computed cell and enqueue the
// bytes, and a single writer goroutine Puts them. The queue is bounded — a
// full queue blocks the enqueueing worker, so store throughput
// backpressures the fleet instead of buffering unbounded entries — and
// close() drains it completely before returning, including on
// cancellation: every entry accepted into the queue is persisted before
// Run returns. The writer never sees an aggregator, so the collector
// recycles every merged one.
type storeWriter struct {
	ch   chan storeWrite
	done chan struct{}
}

// storeWrite is one encoded entry waiting for its Put.
type storeWrite struct {
	key     store.Digest
	payload []byte
}

// startWriter spawns the writer goroutine for one run. queue is the
// bounded depth; <= 0 panics (callers size it off the worker count).
func (e *Engine) startWriter(queue int) *storeWriter {
	w := &storeWriter{
		ch:   make(chan storeWrite, queue),
		done: make(chan struct{}),
	}
	go func() {
		defer close(w.done)
		for wr := range w.ch {
			// Failures are counted in the store's WriteErrors: the run
			// still has the result, the next run just recomputes.
			_ = e.Store.Put(wr.key, wr.payload)
		}
	}()
	return w
}

// enqueue hands one encoded entry to the writer, blocking when the queue
// is full (backpressure, never loss).
func (w *storeWriter) enqueue(key store.Digest, payload []byte) {
	w.ch <- storeWrite{key, payload}
}

// close stops accepting entries and blocks until every queued write has
// been performed — the clean-drain guarantee Run relies on, cancelled or
// not.
func (w *storeWriter) close() {
	if w == nil {
		return
	}
	close(w.ch)
	<-w.done
}
