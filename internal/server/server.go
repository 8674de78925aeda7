// Package server is the fleet-simulation daemon behind cmd/reprod: a
// long-running process that exposes the versioned control API of
// internal/controlapi over HTTP+JSON, multiplexes many tenants onto the
// shared simulation engines, and keeps everything that makes re-running a
// spec expensive — characterization caches, per-platform device caches, the
// content-addressed result store — warm across runs.
//
// Scheduling is deliberately simple and fully synchronous: each tenant has
// a FIFO queue with a depth cap (an over-full tenant gets a typed 429 with
// Retry-After and delays only itself), a global admission limit bounds how
// many runs execute at once, and dispatch happens inline under the server
// lock whenever a run is enqueued or a slot frees — there is no scheduler
// goroutine to leak or race. Runs of one base seed share a resident engine
// (serialized on its slot), which is what makes warm resubmission free;
// runs of different seeds execute concurrently up to the admission limit.
//
// Every run is a named resource with an append-only event log. Progress
// streams as NDJSON from GET /v1/runs/{id}/stream; a disconnected client
// reattaches with ?cursor=K and receives exactly the events it has not
// seen. Reports are rendered once, at the run's terminal transition, by
// ExecuteFleet/ExecuteCampaign — the same functions the CLIs run in-process
// through, so byte identity between the two paths is by construction, not
// by convention.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/controlapi"
	"repro/internal/fleet"
	"repro/internal/store"
	"repro/internal/version"
)

// Defaults for the zero Config.
const (
	// DefaultMaxActive is the global admission limit: how many runs may
	// execute concurrently. Each run already spreads across the worker
	// pool, so the default keeps the machine dedicated to one run at a
	// time and uses the queues for everything else.
	DefaultMaxActive = 1
	// DefaultQueueDepth is the per-tenant FIFO cap.
	DefaultQueueDepth = 8
	// DefaultRetryAfterS is the Retry-After hint on a full-queue 429.
	DefaultRetryAfterS = 2
)

// MaxSpecBytes bounds a submit request body. The largest legitimate spec
// (a campaign grid naming every axis value) is a few KB; the bound keeps a
// misdirected upload from ballooning daemon memory.
const MaxSpecBytes = 1 << 20

// Config parameterizes a Server. The zero value is runnable: GOMAXPROCS
// workers, no store, one active run, queue depth DefaultQueueDepth.
type Config struct {
	// Workers is the default per-run pool size (0 = GOMAXPROCS); a
	// SubmitRequest.Workers overrides it per run.
	Workers int
	// Store is the shared content-addressed result store (nil = compute
	// everything). All tenants share it: determinism is byte-exact, so a
	// cell computed for one tenant is correct for every other.
	Store *store.Store
	// MaxActive caps concurrently executing runs (0 = DefaultMaxActive).
	MaxActive int
	// QueueDepth caps each tenant's FIFO (0 = DefaultQueueDepth).
	QueueDepth int
	// RetryAfterS is the Retry-After seconds hint on 429 responses
	// (0 = DefaultRetryAfterS).
	RetryAfterS int
	// HistoryLimit caps how many terminal runs are retained — their event
	// logs and rendered reports are what a resident daemon would otherwise
	// leak forever. 0 = DefaultHistoryLimit, negative = unlimited.
	// Evicted runs answer the typed not_found on every route.
	HistoryLimit int
	// HistoryTTL bounds how long a terminal run is retained.
	// 0 = DefaultHistoryTTL, negative = no age-based eviction.
	HistoryTTL time.Duration
}

// Server implements the control API. Create with New, serve Handler().
type Server struct {
	cfg Config

	mu       sync.Mutex
	runs     map[string]*run
	order    []string // run IDs in admission order (the /v1/runs order)
	tenants  map[string]*tenantQueue
	rr       []string // tenant names in first-seen order, for round-robin
	rrNext   int
	active   int
	nextID   int64
	draining bool
	// history holds terminal runs in finalize order — the bounded
	// retention window (see retention.go); evicted counts runs dropped
	// from it since boot.
	history []*run
	evicted uint64

	slots map[int64]*engineSlot

	// wg tracks execute goroutines; Drain waits on it.
	wg sync.WaitGroup

	// testRunStart, when set by tests, runs at the top of every execute
	// goroutine — the hook that holds a run "running" deterministically.
	testRunStart func(ctx context.Context, id string)
	// testNow, when set by tests, replaces the retention clock.
	testNow func() time.Time
}

// New returns a server over the config.
func New(cfg Config) *Server {
	return &Server{
		cfg:     cfg,
		runs:    map[string]*run{},
		tenants: map[string]*tenantQueue{},
		slots:   map[int64]*engineSlot{},
	}
}

func (s *Server) maxActive() int {
	if s.cfg.MaxActive > 0 {
		return s.cfg.MaxActive
	}
	return DefaultMaxActive
}

func (s *Server) queueDepth() int {
	if s.cfg.QueueDepth > 0 {
		return s.cfg.QueueDepth
	}
	return DefaultQueueDepth
}

func (s *Server) retryAfter() int {
	if s.cfg.RetryAfterS > 0 {
		return s.cfg.RetryAfterS
	}
	return DefaultRetryAfterS
}

// Handler returns the API surface: the v1 routes wrapped in the
// engine-version handshake. Every response carries the engine version in
// the X-Repro-Engine header; every request that declares one must match or
// is rejected with the typed version_mismatch error (409). /v1/healthz is
// exempt so a mismatched client can still discover what the server runs.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	mux.HandleFunc("POST /v1/fleets", s.handleSubmit(controlapi.KindFleet, parseFleet))
	mux.HandleFunc("POST /v1/campaigns", s.handleSubmit(controlapi.KindCampaign, parseCampaign))
	mux.HandleFunc("GET /v1/runs", s.handleRuns)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleRun)
	mux.HandleFunc("DELETE /v1/runs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/runs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /v1/runs/{id}/report", s.handleReport)
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set(controlapi.EngineHeader, version.Engine)
		if got := req.Header.Get(controlapi.EngineHeader); got != "" && got != version.Engine && req.URL.Path != "/v1/healthz" {
			writeError(w, http.StatusConflict, apiError(controlapi.CodeVersionMismatch,
				fmt.Sprintf("client engine %q, server engine %q", got, version.Engine)))
			return
		}
		mux.ServeHTTP(w, req)
	})
}

func (s *Server) handleHealth(w http.ResponseWriter, req *http.Request) {
	c := s.counts()
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	state := "ok"
	if draining {
		state = "draining"
	}
	h := controlapi.Health{
		OK:       !draining,
		State:    state,
		Engine:   version.Engine,
		API:      controlapi.APIVersion,
		Active:   c.active,
		Queued:   c.queued,
		Tenants:  c.tenants,
		Retained: c.retained,
		Evicted:  c.evicted,
	}
	if s.cfg.Store != nil {
		st := s.cfg.Store.Stats()
		h.Store = &controlapi.StoreHealth{
			Hits:        st.Hits,
			Misses:      st.Misses,
			Writes:      st.Writes,
			Invalid:     st.Invalid,
			WriteErrors: st.WriteErrors,
		}
	}
	writeJSON(w, http.StatusOK, h)
}

// decodeSubmit reads and strictly decodes a submit request body.
func decodeSubmit(req *http.Request) (controlapi.SubmitRequest, error) {
	body, err := io.ReadAll(io.LimitReader(req.Body, MaxSpecBytes+1))
	if err != nil {
		return controlapi.SubmitRequest{}, err
	}
	if len(body) > MaxSpecBytes {
		return controlapi.SubmitRequest{}, fmt.Errorf("request body exceeds %d bytes", MaxSpecBytes)
	}
	var sr controlapi.SubmitRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sr); err != nil {
		return controlapi.SubmitRequest{}, err
	}
	return sr, nil
}

// handleSubmit serves one submit route: parse reads the kind's spec into
// the run (the wire spec is exactly the CLI's spec bytes: the same parser,
// the same unknown-field and bounds errors), then the run is admitted.
func (s *Server) handleSubmit(kind string, parse func(r *run, spec []byte) error) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		sr, err := decodeSubmit(req)
		if err != nil {
			writeError(w, http.StatusBadRequest, apiError(controlapi.CodeBadRequest, err.Error()))
			return
		}
		r := newRun(kind, tenantOf(req), sr)
		if err := parse(r, sr.Spec); err != nil {
			r.cancel()
			writeError(w, http.StatusBadRequest, apiError(controlapi.CodeInvalidSpec, err.Error()))
			return
		}
		s.submit(w, r)
	}
}

// parseFleet reads a strict-JSON fleet spec (the -spec file format).
func parseFleet(r *run, data []byte) error {
	spec, err := fleet.ParseJSON(data)
	if err != nil {
		return err
	}
	r.fleetSpec, r.cells = spec, spec.N
	return nil
}

// parseCampaign reads a campaign grid in its JSON form.
func parseCampaign(r *run, data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var grid campaign.Grid
	if err := dec.Decode(&grid); err != nil {
		return fmt.Errorf("campaign: %v", err)
	}
	r.grid, r.cells = grid, grid.Size()
	return nil
}

// submit admits the parsed run through the tenant scheduler and answers
// with its RunInfo (202: the run is a resource now, executing or queued).
func (s *Server) submit(w http.ResponseWriter, r *run) {
	admitted, apiErr := s.admit(r)
	if apiErr != nil {
		status := http.StatusServiceUnavailable
		if apiErr.Code == controlapi.CodeQueueFull {
			status = http.StatusTooManyRequests
		}
		writeError(w, status, apiErr)
		return
	}
	writeJSON(w, http.StatusAccepted, admitted.info())
}

func (s *Server) handleRuns(w http.ResponseWriter, req *http.Request) {
	s.mu.Lock()
	s.evictLocked(s.clock())
	ids := append([]string(nil), s.order...)
	runs := make([]*run, len(ids))
	for i, id := range ids {
		runs[i] = s.runs[id]
	}
	s.mu.Unlock()
	list := controlapi.RunList{Engine: version.Engine, Runs: make([]controlapi.RunInfo, len(runs))}
	for i, r := range runs {
		list.Runs[i] = r.info()
	}
	writeJSON(w, http.StatusOK, list)
}

// runByID resolves {id} or writes the typed 404 — for runs that never
// existed and for runs the retention sweep has evicted alike; the sweep
// runs first so an expired run 404s deterministically rather than racing
// the next mutation.
func (s *Server) runByID(w http.ResponseWriter, req *http.Request) *run {
	id := req.PathValue("id")
	s.mu.Lock()
	s.evictLocked(s.clock())
	r := s.runs[id]
	s.mu.Unlock()
	if r == nil {
		writeError(w, http.StatusNotFound, apiError(controlapi.CodeNotFound, fmt.Sprintf("no run %q (unknown or evicted)", id)))
	}
	return r
}

func (s *Server) handleRun(w http.ResponseWriter, req *http.Request) {
	if r := s.runByID(w, req); r != nil {
		writeJSON(w, http.StatusOK, r.info())
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, req *http.Request) {
	r := s.runByID(w, req)
	if r == nil {
		return
	}
	s.cancelRun(r)
	writeJSON(w, http.StatusOK, r.info())
}

func (s *Server) handleReport(w http.ResponseWriter, req *http.Request) {
	r := s.runByID(w, req)
	if r == nil {
		return
	}
	format := req.URL.Query().Get("format")
	if format == "" {
		format = "json"
	}
	if format != "json" && format != "csv" {
		writeError(w, http.StatusBadRequest, apiError(controlapi.CodeBadRequest,
			fmt.Sprintf("unknown report format %q (json, csv)", format)))
		return
	}
	b, ok := r.report(format)
	if !ok {
		writeError(w, http.StatusNotFound, apiError(controlapi.CodeNotFound,
			fmt.Sprintf("run %q has no %s report (state %s)", r.id, format, r.stateNow())))
		return
	}
	ct := "application/json"
	if format == "csv" {
		ct = "text/csv"
	}
	w.Header().Set("Content-Type", ct)
	w.WriteHeader(http.StatusOK)
	w.Write(b)
}

// handleStream serves the run's event log as NDJSON from ?cursor= (0 = from
// the beginning), then follows it live: new events are flushed as they are
// appended, and the stream ends after the terminal done event. A client
// that reconnects with the last Seq it saw resumes without loss or
// duplication — the log is append-only and Seq is dense.
func (s *Server) handleStream(w http.ResponseWriter, req *http.Request) {
	r := s.runByID(w, req)
	if r == nil {
		return
	}
	cursor := int64(0)
	if q := req.URL.Query().Get("cursor"); q != "" {
		v, err := strconv.ParseInt(q, 10, 64)
		if err != nil || v < 0 {
			writeError(w, http.StatusBadRequest, apiError(controlapi.CodeBadRequest,
				fmt.Sprintf("bad cursor %q", q)))
			return
		}
		cursor = v
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		events, pulse, terminal := r.snapshot()
		for cursor < int64(len(events)) {
			if err := enc.Encode(events[cursor]); err != nil {
				return // client gone; it will reattach with its cursor
			}
			cursor++
		}
		if flusher != nil {
			flusher.Flush()
		}
		if terminal {
			return
		}
		select {
		case <-pulse:
		case <-req.Context().Done():
			return
		}
	}
}

func tenantOf(req *http.Request) string {
	if t := req.Header.Get(controlapi.TenantHeader); t != "" {
		return t
	}
	return controlapi.DefaultTenant
}

func apiError(code, msg string) *controlapi.Error {
	return &controlapi.Error{Code: code, Message: msg, Engine: version.Engine}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, e *controlapi.Error) {
	w.Header().Set("Content-Type", "application/json")
	if e.RetryAfterS > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.RetryAfterS))
	}
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(controlapi.ErrorEnvelope{Error: e})
}
