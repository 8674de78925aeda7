package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/controlapi"
	"repro/internal/fleet"
	"repro/internal/sim"
	"repro/internal/version"
)

// run is one named server-side resource: a submitted fleet or campaign, its
// lifecycle state, and its append-only event log. The log is the reattach
// contract — event k has Seq k+... (1-based, dense), a client holding
// cursor K receives exactly the events with Seq > K — and it is the ONLY
// channel progress leaves the run through, so a stream that replays the log
// can never disagree with one that watched it live.
type run struct {
	id      string
	kind    string // controlapi.KindFleet or KindCampaign
	name    string
	tenant  string
	seed    int64
	workers int
	batch   int
	cells   int

	// Exactly one of these carries the parsed spec, per kind.
	fleetSpec fleet.Spec
	grid      campaign.Grid

	// ctx governs the run's execution; cancel is the one cancellation path
	// (DELETE /v1/runs/{id} and server drain both use it), feeding the same
	// context machinery the in-process CLIs cancel through.
	ctx    context.Context
	cancel context.CancelFunc

	mu    sync.Mutex
	state string
	// doneAt is the retention clock: when the run reached its terminal
	// state (stamped by Server.noteTerminal, zero until then).
	doneAt time.Time
	// events is the append-only log; pulse is closed and replaced on every
	// append, waking blocked streamers.
	events []controlapi.Event
	pulse  chan struct{}
	// done / cached count progress events (and store-served cells among
	// them) — the per-run store telemetry the done event reports. The
	// shared store's own counters accumulate across every run of the
	// daemon, so per-run numbers must come from the run's events.
	done   int
	cached int
	runErr string
	// Rendered report exports, terminal states only. Byte-identical to the
	// in-process WriteJSON/WriteCSV output: they ARE that output, captured.
	reportJSON []byte
	reportCSV  []byte
}

// newRun builds an unadmitted run (admit assigns the ID).
func newRun(kind, tenant string, req controlapi.SubmitRequest) *run {
	r := &run{
		kind:    kind,
		name:    req.Name,
		tenant:  tenant,
		seed:    req.Seed,
		workers: req.Workers,
		batch:   req.BatchSize,
		state:   controlapi.StateQueued,
		pulse:   make(chan struct{}),
	}
	r.ctx, r.cancel = context.WithCancel(context.Background())
	return r
}

// info snapshots the run as its wire representation.
func (r *run) info() controlapi.RunInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	return controlapi.RunInfo{
		ID:      r.id,
		Kind:    r.kind,
		Name:    r.name,
		Tenant:  r.tenant,
		State:   r.state,
		Engine:  version.Engine,
		Cells:   r.cells,
		Done:    r.done,
		Error:   r.runErr,
		NextSeq: int64(len(r.events)),
	}
}

func (r *run) stateNow() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

func (r *run) setState(s string) {
	r.mu.Lock()
	r.state = s
	r.mu.Unlock()
}

// appendProgress logs one per-cell completion event.
func (r *run) appendProgress(ev controlapi.Event) {
	ev.Type = controlapi.EventProgress
	r.mu.Lock()
	ev.Seq = int64(len(r.events)) + 1
	r.events = append(r.events, ev)
	r.done++
	if ev.Cached {
		r.cached++
	}
	r.wakeLocked()
	r.mu.Unlock()
}

// wakeLocked releases every streamer blocked on the pulse channel.
func (r *run) wakeLocked() {
	close(r.pulse)
	r.pulse = make(chan struct{})
}

// snapshot returns the current log, the pulse to wait on for more, and
// whether the run is terminal — everything a streamer needs, atomically:
// because the done event and the terminal state are written under the same
// lock, a terminal snapshot always contains the done event.
func (r *run) snapshot() (events []controlapi.Event, pulse chan struct{}, terminal bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.events, r.pulse, controlapi.TerminalState(r.state)
}

// report returns the rendered export bytes, or ok=false while the run has
// not produced them (still running, or cancelled before any work).
func (r *run) report(format string) ([]byte, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	b := r.reportJSON
	if format == "csv" {
		b = r.reportCSV
	}
	return b, b != nil
}

// finalize appends the terminal done event and flips the state, atomically.
// summary/reportJSON/reportCSV are nil-able: a run cancelled before it
// started has no report, only a terminal state.
func (r *run) finalize(state, runErr string, rep reportExports, storeDir string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.state = state
	r.runErr = runErr
	r.reportJSON = rep.json
	r.reportCSV = rep.csv
	ev := controlapi.Event{
		Seq:       int64(len(r.events)) + 1,
		Type:      controlapi.EventDone,
		State:     state,
		RunErr:    runErr,
		Summary:   rep.summary,
		Failures:  rep.failures,
		Completed: rep.completed,
	}
	if storeDir != "" {
		ev.StoreDir = storeDir
		ev.Hits = uint64(r.cached)
		ev.Misses = uint64(r.done - r.cached)
	}
	r.events = append(r.events, ev)
	r.wakeLocked()
}

// reportExports is a terminal run's rendered artifacts.
type reportExports struct {
	json, csv []byte
	summary   string
	failures  int
	completed int
}

// engineSlot holds the resident engines of one base seed. Engines are what
// make the daemon worth running: a fleet.Engine keeps its anchor
// characterization and per-platform device cache warm across runs, so a
// resubmitted spec pays for neither. The slot mutex serializes runs of the
// same seed — they share mutable engine state (OnCellDone, Workers) — while
// runs of different seeds proceed concurrently under the global admission
// limit.
type engineSlot struct {
	mu    sync.Mutex
	fleet *fleet.Engine
	camp  *campaign.Engine
}

// slot returns (creating on first use) the engine slot for a base seed.
func (s *Server) slot(seed int64) *engineSlot {
	s.mu.Lock()
	defer s.mu.Unlock()
	sl, ok := s.slots[seed]
	if !ok {
		sl = &engineSlot{}
		s.slots[seed] = sl
	}
	return sl
}

// execute runs one dispatched run to its terminal state and then releases
// its admission slot. It is the only writer of terminal states for runs
// that reached dispatch.
func (s *Server) execute(r *run) {
	defer s.wg.Done()
	if s.testRunStart != nil {
		// Test hook: lets tests hold a run in the running state (to fill
		// queues or detach mid-run) or observe the dispatch order.
		s.testRunStart(r.ctx, r.id)
	}
	slot := s.slot(r.seed)
	slot.mu.Lock()
	var (
		rep reportExports
		err error
	)
	if r.kind == controlapi.KindFleet {
		rep, err = s.executeFleet(slot, r)
	} else {
		rep, err = s.executeCampaign(slot, r)
	}
	slot.mu.Unlock()
	state := controlapi.StateSucceeded
	runErr := ""
	if err != nil {
		runErr = err.Error()
		if errors.Is(err, sim.ErrCancelled) || errors.Is(err, context.Canceled) {
			state = controlapi.StateCancelled
		} else {
			state = controlapi.StateFailed
		}
	}
	storeDir := ""
	if s.cfg.Store != nil {
		storeDir = s.cfg.Store.Dir()
	}
	r.finalize(state, runErr, rep, storeDir)
	s.mu.Lock()
	s.active--
	s.noteTerminalLocked(r)
	s.dispatchLocked()
	s.mu.Unlock()
}

// runWorkers resolves a run's pool size: its own request, else the server
// default (0 = GOMAXPROCS, the engines' own convention).
func (s *Server) runWorkers(r *run) int {
	if r.workers > 0 {
		return r.workers
	}
	return s.cfg.Workers
}

// executeFleet runs one fleet on the slot's resident engine. The engine is
// per-seed and long-lived: its lazy anchor characterization, per-platform
// device cache, and store stay warm, so resubmitting a spec to a live
// daemon costs only the store lookups.
func (s *Server) executeFleet(slot *engineSlot, r *run) (reportExports, error) {
	if slot.fleet == nil {
		slot.fleet = &fleet.Engine{BaseSeed: r.seed, Store: s.cfg.Store}
	}
	eng := slot.fleet
	eng.Workers = s.runWorkers(r)
	eng.BatchSize = r.batch
	eng.OnCellDone = func(p fleet.Progress) {
		r.appendProgress(controlapi.Event{
			Done:   p.Done,
			Total:  p.Total,
			Cell:   p.Cell.String(),
			Err:    p.Err,
			Cached: p.Cached,
		})
	}
	rep, err := eng.Run(r.ctx, r.fleetSpec)
	eng.OnCellDone = nil
	if rep == nil {
		return reportExports{}, err
	}
	out, rerr := renderFleet(rep)
	if err == nil {
		err = rerr
	}
	return out, err
}

// executeCampaign runs one campaign on the slot's resident engine. Like
// the fleet engine it characterizes each device lazily, on the first
// computed cell that needs it, and keeps the result: later runs of the
// same seed reuse it, and a fully warm run never characterizes.
func (s *Server) executeCampaign(slot *engineSlot, r *run) (reportExports, error) {
	if slot.camp == nil {
		slot.camp = &campaign.Engine{BaseSeed: r.seed, Store: s.cfg.Store}
	}
	eng := slot.camp
	eng.Workers = s.runWorkers(r)
	eng.OnCellDone = func(done, total int, res campaign.CellResult) {
		r.appendProgress(controlapi.Event{
			Done:   done,
			Total:  total,
			Cell:   res.Cell.String(),
			Err:    res.Err,
			Cached: res.Cached,
		})
	}
	rep, err := eng.RunContext(r.ctx, r.grid)
	eng.OnCellDone = nil
	if rep == nil {
		return reportExports{}, err
	}
	out, rerr := renderCampaign(rep)
	if err == nil {
		err = rerr
	}
	return out, err
}

// renderFleet captures the report's exports — the same WriteJSON/WriteCSV
// bytes the in-process CLI writes, so GET /v1/runs/{id}/report is
// byte-identical to a local -json/-csv file.
func renderFleet(rep *fleet.Report) (reportExports, error) {
	var j, c bytes.Buffer
	if err := rep.WriteJSON(&j); err != nil {
		return reportExports{}, fmt.Errorf("server: rendering fleet report: %w", err)
	}
	if err := rep.WriteCSV(&c); err != nil {
		return reportExports{}, fmt.Errorf("server: rendering fleet report: %w", err)
	}
	return reportExports{
		json:      j.Bytes(),
		csv:       c.Bytes(),
		summary:   rep.Summary(),
		failures:  len(rep.Failures),
		completed: rep.Completed,
	}, nil
}

func renderCampaign(rep *campaign.Report) (reportExports, error) {
	var j, c bytes.Buffer
	if err := rep.WriteJSON(&j); err != nil {
		return reportExports{}, fmt.Errorf("server: rendering campaign report: %w", err)
	}
	if err := rep.WriteCSV(&c); err != nil {
		return reportExports{}, fmt.Errorf("server: rendering campaign report: %w", err)
	}
	fails := len(rep.Failures())
	return reportExports{
		json:      j.Bytes(),
		csv:       c.Bytes(),
		summary:   rep.Summary(),
		failures:  fails,
		completed: len(rep.Cells) - fails,
	}, nil
}
