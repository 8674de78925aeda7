// Package controlapi is the wire contract of the fleet-simulation daemon
// (cmd/reprod): the versioned HTTP+JSON control surface that internal/server
// implements and internal/client consumes. It holds only protocol shapes —
// request/response envelopes, the NDJSON stream record, the typed error
// codes, and the engine-version handshake — so the two sides can never
// disagree about bytes without disagreeing about this package.
//
// The API is versioned two ways. The path version (APIVersion, "v1") names
// the protocol shape and only changes when these structs change
// incompatibly. The engine version (version.Engine, e.g. "repro-engine/7")
// names the simulation generation: every response carries it in the
// EngineHeader, and the server rejects any client whose EngineHeader
// differs — a daemon and a CLI built from different engine generations
// would otherwise mix byte-incompatible results in one store and one
// report, silently.
package controlapi

import (
	"errors"
	"fmt"

	"repro/internal/version"
)

// APIVersion is the protocol version in every endpoint path (/v1/...).
const APIVersion = "v1"

// EngineHeader carries the engine version both ways: clients send it on
// every request (the handshake the server verifies), the server returns it
// on every response (the envelope stamp clients verify).
const EngineHeader = "X-Repro-Engine"

// TenantHeader names the tenant a request runs under. Absent means the
// DefaultTenant: single-user setups never need to think about tenancy.
const TenantHeader = "X-Repro-Tenant"

// DefaultTenant is the tenant of requests that do not name one.
const DefaultTenant = "default"

// Error codes. The code, not the HTTP status, is the programmatic contract:
// clients match on it (via the sentinel errors below and errors.Is), the
// status only routes intermediaries.
const (
	// CodeVersionMismatch: the client's engine version differs from the
	// server's. HTTP 409.
	CodeVersionMismatch = "version_mismatch"
	// CodeQueueFull: the tenant's FIFO queue is at capacity; retry after
	// Error.RetryAfterS seconds. HTTP 429.
	CodeQueueFull = "queue_full"
	// CodeDraining: the server is shutting down and admits no new runs.
	// HTTP 503.
	CodeDraining = "draining"
	// CodeNotFound: no such run — never submitted, or a terminal run the
	// bounded run-history retention has evicted (the server keeps at most
	// its configured count of finished runs, none older than its TTL). A
	// client that held a valid run ID and now sees not_found must treat
	// the run as gone for good and resubmit; reattaching a stream to an
	// evicted run yields this same typed error, not a hung stream.
	// HTTP 404.
	CodeNotFound = "not_found"
	// CodeInvalidSpec: the submitted spec failed strict parsing or
	// validation. HTTP 400.
	CodeInvalidSpec = "invalid_spec"
	// CodeBadRequest: anything else wrong with the request shape. HTTP 400.
	CodeBadRequest = "bad_request"
)

// Sentinel errors, one per code: Error.Is maps a decoded wire error onto
// these so callers write errors.Is(err, controlapi.ErrQueueFull) instead of
// string-matching codes.
var (
	ErrVersionMismatch = errors.New("controlapi: engine version mismatch")
	ErrQueueFull       = errors.New("controlapi: tenant queue full")
	ErrDraining        = errors.New("controlapi: server draining")
	ErrNotFound        = errors.New("controlapi: run not found")
	ErrInvalidSpec     = errors.New("controlapi: invalid spec")
)

// Error is the typed wire error: every non-2xx response body is
// {"error": {...}} carrying one of these.
type Error struct {
	// Code is one of the Code* constants.
	Code string `json:"code"`
	// Message is the human-readable detail.
	Message string `json:"message"`
	// Engine is the server's engine version (always set, so a mismatched
	// client learns what the server runs from the rejection itself).
	Engine string `json:"engine"`
	// RetryAfterS suggests a retry delay in seconds (queue_full only).
	RetryAfterS int `json:"retry_after_s,omitempty"`
}

func (e *Error) Error() string {
	return fmt.Sprintf("controlapi: %s: %s", e.Code, e.Message)
}

// Is maps the wire code onto the package sentinels for errors.Is.
func (e *Error) Is(target error) bool {
	switch target {
	case ErrVersionMismatch:
		return e.Code == CodeVersionMismatch
	case ErrQueueFull:
		return e.Code == CodeQueueFull
	case ErrDraining:
		return e.Code == CodeDraining
	case ErrNotFound:
		return e.Code == CodeNotFound
	case ErrInvalidSpec:
		return e.Code == CodeInvalidSpec
	}
	return false
}

// ErrorEnvelope is the body of every non-2xx response.
type ErrorEnvelope struct {
	Error *Error `json:"error"`
}

// Run kinds.
const (
	KindFleet    = "fleet"
	KindCampaign = "campaign"
)

// Run states. Lifecycle: queued -> running -> one of the terminal three.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateSucceeded = "succeeded"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// TerminalState reports whether a run state is final.
func TerminalState(s string) bool {
	return s == StateSucceeded || s == StateFailed || s == StateCancelled
}

// SubmitRequest submits one run. Spec carries the existing strict-JSON
// spec of the kind: a fleet spec (fleet.ParseJSON's format) for
// POST /v1/fleets, a campaign grid (campaign.Grid's JSON form) for
// POST /v1/campaigns — the daemon accepts exactly the bytes the CLIs and
// spec files already use, no daemon-specific spec dialect.
type SubmitRequest struct {
	// Name labels the run (optional, reported back in RunInfo).
	Name string `json:"name,omitempty"`
	// Spec is the strict-JSON spec of the run's kind.
	Spec jsonRaw `json:"spec"`
	// Seed is the base seed (population draw / cell derivation +
	// characterization).
	Seed int64 `json:"seed"`
	// Workers caps the run's worker pool (0 = the server's default).
	Workers int `json:"workers,omitempty"`
	// BatchSize tunes the fleet SoA kernel (fleet runs only; 0 = engine
	// default, 1 = scalar). Byte output is identical at any value.
	BatchSize int `json:"batch_size,omitempty"`
}

// jsonRaw aliases json.RawMessage without importing encoding/json into
// every consumer's godoc.
type jsonRaw = []byte

// RunInfo is the server-side state of one run resource.
type RunInfo struct {
	// ID is the server-assigned run name (stable across reattach).
	ID string `json:"id"`
	// Kind is KindFleet or KindCampaign.
	Kind string `json:"kind"`
	// Name is the submitted label, if any.
	Name string `json:"name,omitempty"`
	// Tenant is the queue the run was admitted through.
	Tenant string `json:"tenant"`
	// State is the lifecycle state (see the State* constants).
	State string `json:"state"`
	// Engine is the server's engine version (the envelope stamp).
	Engine string `json:"engine"`
	// Cells is the total work size (population size / grid size).
	Cells int `json:"cells"`
	// Done counts completed cells so far.
	Done int `json:"done"`
	// Error is the run-level failure, terminal states only ("" otherwise).
	Error string `json:"error,omitempty"`
	// NextSeq is the reattach cursor: the Seq of the newest event at
	// snapshot time (0 before any event). Streaming with cursor=NextSeq
	// yields exactly the events this snapshot has not seen.
	NextSeq int64 `json:"next_seq"`
}

// Event is one NDJSON stream record of GET /v1/runs/{id}/stream. Seq is the
// 1-based position in the run's event log; a client that reattaches with
// ?cursor=K receives exactly the events with Seq > K — no loss, no
// duplication, in order.
type Event struct {
	// Seq is the cursor position of this event (1-based, dense).
	Seq int64 `json:"seq"`
	// Type is EventProgress or EventDone.
	Type string `json:"type"`

	// Progress fields (Type == EventProgress): one per-device/per-cell
	// completion record — the wire form of fleet.Progress / a campaign
	// cell result, rendered with the same strings the in-process CLIs
	// print so thin clients reproduce their output bytes.
	Done   int    `json:"done,omitempty"`
	Total  int    `json:"total,omitempty"`
	Cell   string `json:"cell,omitempty"`
	Err    string `json:"err,omitempty"`
	Cached bool   `json:"cached,omitempty"`

	// Done fields (Type == EventDone): the run's terminal record.
	State     string `json:"state,omitempty"`
	RunErr    string `json:"run_err,omitempty"`
	Summary   string `json:"summary,omitempty"`
	Failures  int    `json:"failures,omitempty"`
	Completed int    `json:"completed,omitempty"`
	// Store telemetry for this run (hits = cells served from the store):
	// present only when the server runs with a store attached.
	StoreDir string `json:"store_dir,omitempty"`
	Hits     uint64 `json:"hits,omitempty"`
	Misses   uint64 `json:"misses,omitempty"`
}

// Event types.
const (
	EventProgress = "progress"
	EventDone     = "done"
)

// Health is the GET /v1/healthz payload.
type Health struct {
	// OK is false while draining.
	OK bool `json:"ok"`
	// State is "ok" or "draining".
	State string `json:"state"`
	// Engine is the server's engine version.
	Engine string `json:"engine"`
	// API is the protocol version ("v1").
	API string `json:"api"`
	// Active / Queued count runs currently executing / waiting.
	Active int `json:"active"`
	Queued int `json:"queued"`
	// Tenants counts tenants with live queues.
	Tenants int `json:"tenants"`
	// Retained counts terminal runs currently held in the bounded
	// run history; Evicted counts terminal runs retention has dropped
	// since the daemon started. Retained+Active+Queued is the daemon's
	// whole run table — nothing else is kept.
	Retained int    `json:"retained"`
	Evicted  uint64 `json:"evicted"`
	// Store holds the shared result store's counters since the daemon
	// started; omitted when the daemon runs without a store.
	Store *StoreHealth `json:"store,omitempty"`
}

// StoreHealth is the healthz view of the result store's counters: Get
// hits and misses, completed and failed writes, and entries that failed
// verification. A growing WriteErrors means warm runs are silently
// turning cold (a full disk, an unwritable directory).
type StoreHealth struct {
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Writes      uint64 `json:"writes"`
	Invalid     uint64 `json:"invalid"`
	WriteErrors uint64 `json:"write_errors"`
}

// RunList is the GET /v1/runs payload.
type RunList struct {
	Engine string    `json:"engine"`
	Runs   []RunInfo `json:"runs"`
}

// Engine returns the engine version this build speaks.
func Engine() string { return version.Engine }
