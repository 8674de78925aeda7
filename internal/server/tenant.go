package server

import (
	"context"
	"fmt"

	"repro/internal/controlapi"
)

// tenantQueue is one tenant's FIFO of admitted-but-not-yet-running runs.
// Fairness is round-robin across tenants (see nextQueuedLocked), FIFO
// within one: a tenant that floods its queue delays only itself.
type tenantQueue struct {
	name  string
	queue []*run
}

// admit enqueues a parsed run, or refuses it with the typed backpressure /
// drain errors. The returned run is already dispatched when an admission
// slot was free.
func (s *Server) admit(r *run) (*run, *controlapi.Error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, apiError(controlapi.CodeDraining, "server is draining, not admitting runs")
	}
	q, ok := s.tenants[r.tenant]
	if !ok {
		q = &tenantQueue{name: r.tenant}
		s.tenants[r.tenant] = q
		s.rr = append(s.rr, r.tenant)
	}
	if len(q.queue) >= s.queueDepth() {
		e := apiError(controlapi.CodeQueueFull,
			fmt.Sprintf("tenant %q queue is full (%d queued)", r.tenant, len(q.queue)))
		e.RetryAfterS = s.retryAfter()
		return nil, e
	}
	s.evictLocked(s.clock())
	s.nextID++
	r.id = fmt.Sprintf("r%d", s.nextID)
	s.runs[r.id] = r
	s.order = append(s.order, r.id)
	q.queue = append(q.queue, r)
	s.dispatchLocked()
	return r, nil
}

// dispatchLocked starts queued runs while admission slots are free,
// visiting tenants round-robin. Called under s.mu whenever a slot frees or
// a run is enqueued — there is no background scheduler goroutine to race
// with or leak.
func (s *Server) dispatchLocked() {
	for s.active < s.maxActive() {
		r := s.nextQueuedLocked()
		if r == nil {
			return
		}
		r.setState(controlapi.StateRunning)
		s.active++
		s.wg.Add(1)
		go s.execute(r)
	}
}

// nextQueuedLocked pops the next run in round-robin tenant order. The
// cursor advances past the tenant it serves, so a busy tenant cannot
// starve the others.
func (s *Server) nextQueuedLocked() *run {
	n := len(s.rr)
	for i := 0; i < n; i++ {
		q := s.tenants[s.rr[s.rrNext%n]]
		s.rrNext = (s.rrNext + 1) % n
		if len(q.queue) > 0 {
			r := q.queue[0]
			q.queue = q.queue[1:]
			return r
		}
	}
	return nil
}

// cancelRun cancels a run by ID: a queued run is unqueued and finalized
// immediately (it never ran, so it has no report), a running run has its
// context cancelled — the engine stops between control intervals and the
// run finalizes with its partial report, exactly the in-process Ctrl-C
// path. Terminal runs are left as they are; cancellation is idempotent.
func (s *Server) cancelRun(r *run) {
	s.mu.Lock()
	if r.stateNow() == controlapi.StateQueued {
		s.unqueueLocked(r)
		s.mu.Unlock()
		r.cancel()
		r.finalize(controlapi.StateCancelled, "run cancelled before start", Outcome{}, "")
		s.noteTerminal(r)
		return
	}
	s.mu.Unlock()
	r.cancel()
}

// unqueueLocked removes a still-queued run from its tenant's FIFO.
func (s *Server) unqueueLocked(r *run) {
	q := s.tenants[r.tenant]
	if q == nil {
		return
	}
	for i, qr := range q.queue {
		if qr == r {
			q.queue = append(q.queue[:i], q.queue[i+1:]...)
			return
		}
	}
}

// Drain gracefully shuts the scheduler down: stop admitting (submits get
// the typed draining error), finalize every queued run as cancelled,
// cancel every running run's context — the engines stop between control
// intervals, flush their async store writers, and finalize with partial
// reports — then wait for the active runs to reach their terminal states.
// Streams attached to those runs receive the final done event before their
// handlers return, so Drain followed by http.Server.Shutdown ends every
// connection cleanly. The context bounds the wait.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	var queued []*run
	for _, q := range s.tenants {
		queued = append(queued, q.queue...)
		q.queue = nil
	}
	var running []*run
	for _, id := range s.order {
		if r := s.runs[id]; r.stateNow() == controlapi.StateRunning {
			running = append(running, r)
		}
	}
	s.mu.Unlock()
	for _, r := range queued {
		r.cancel()
		r.finalize(controlapi.StateCancelled, "run cancelled: server draining", Outcome{}, "")
		s.noteTerminal(r)
	}
	for _, r := range running {
		r.cancel()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain interrupted: %w", context.Cause(ctx))
	}
}

// schedCounts snapshots the scheduler for /v1/healthz (after a retention
// sweep, so retained/evicted reflect the TTL at read time).
type schedCounts struct {
	active, queued, tenants, retained int
	evicted                           uint64
}

func (s *Server) counts() schedCounts {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.evictLocked(s.clock())
	c := schedCounts{active: s.active, tenants: len(s.tenants), retained: len(s.history), evicted: s.evicted}
	for _, q := range s.tenants {
		c.queued += len(q.queue)
	}
	return c
}
