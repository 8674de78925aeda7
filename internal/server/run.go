package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
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
	// events is the append-only log, at most 66 events long (see
	// checkpoints); pulse is closed and replaced on every append, waking
	// blocked streamers.
	events []controlapi.Event
	pulse  chan struct{}
	// done / cached are the run's cumulative finished and store-served
	// cells — the latest checkpoint's counts while it runs, the producer's
	// final counts once terminal — and the per-run store telemetry the
	// done event reports. The shared store's own counters accumulate
	// across every run of the daemon, so per-run numbers must come from
	// the run's own producer.
	done   int
	cached int
	runErr string
	// Rendered report exports, terminal states only: the Outcome bytes the
	// in-process CLIs write, rendered by the same Execute* function.
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

// appendProgress logs one progress checkpoint and takes the run's counts
// from it.
func (r *run) appendProgress(ev controlapi.Event) {
	r.mu.Lock()
	ev.Seq = int64(len(r.events)) + 1
	r.events = append(r.events, ev)
	r.done, r.cached = ev.Done, ev.DoneCached
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
// The Outcome may be zero: a run cancelled before it started has no report,
// only a terminal state. The run's counts come from the Outcome, not the
// last checkpoint, so they cover a cancelled run's last cells too.
func (r *run) finalize(state, runErr string, out Outcome, storeDir string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.state = state
	r.done, r.cached = out.Finished, out.Cached
	r.runErr = runErr
	r.reportJSON = out.JSON
	r.reportCSV = out.CSV
	ev := controlapi.Event{
		Seq:       int64(len(r.events)) + 1,
		Type:      controlapi.EventDone,
		State:     state,
		RunErr:    runErr,
		Summary:   out.Summary,
		Failures:  out.Failures,
		Completed: out.Completed,
	}
	if storeDir != "" {
		ev.StoreDir = storeDir
		ev.Hits = uint64(r.cached)
		ev.Misses = uint64(r.done - r.cached)
	}
	r.events = append(r.events, ev)
	r.wakeLocked()
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
// that reached dispatch. The engines are the slot's resident ones: their
// device caches and store stay warm, so resubmitting a spec to a live
// daemon costs only the store lookups.
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
		out Outcome
		err error
	)
	if r.kind == controlapi.KindFleet {
		if slot.fleet == nil {
			slot.fleet = &fleet.Engine{BaseSeed: r.seed, Store: s.cfg.Store}
		}
		slot.fleet.Workers = s.runWorkers(r)
		out, err = ExecuteFleet(r.ctx, slot.fleet, r.fleetSpec, r.appendProgress)
	} else {
		if slot.camp == nil {
			slot.camp = &campaign.Engine{BaseSeed: r.seed, Store: s.cfg.Store}
		}
		slot.camp.Workers = s.runWorkers(r)
		out, err = ExecuteCampaign(r.ctx, slot.camp, r.grid, r.appendProgress)
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
	// Finalize under the server lock, so a reader that resolves runs
	// under it never sees this run terminal before retention has noted it
	// (and evicted what it displaces).
	s.mu.Lock()
	r.finalize(state, runErr, out, storeDir)
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

// Outcome is a finished run's rendered artifacts: the JSON and CSV exports
// (the report's own WriteJSON/WriteCSV bytes), the text summary, and the
// failed and completed cell counts. A run that produced no report has an
// empty Summary and no exports.
type Outcome struct {
	JSON, CSV []byte
	Summary   string
	Failures  int
	Completed int
	// Finished and Cached are the progress producer's final counts: the
	// cells that ran (failures included) and those the store served. They
	// are exact whether or not the last cell was a checkpoint, and zero
	// when the run was given no progress sink.
	Finished, Cached int
}

// progressEvents is the checkpoint budget of one run: a run of up to this
// many cells reports every cell, a larger one every ceil(total/64)th.
const progressEvents = 64

// checkpoints is the one coalescing producer of a run's progress events,
// behind both Execute functions — so behind the daemon's event log and
// the in-process CLIs' progress lines alike. It counts every finished
// cell, but only the cell that brings the count to a checkpoint becomes
// an event: the first, the last, and every ceil(total/64)th. So a run
// logs at most 65 progress events however large it is, and one of up to
// 64 cells logs one per cell. A skipped cell builds no event and renders
// no cell string; the cumulative counts every event carries account
// for it.
type checkpoints struct {
	total                int
	done, cached, failed int
}

// note counts one finished cell, the done-th of total, and reports
// whether it is a checkpoint.
func (c *checkpoints) note(done, total int, failed, cached bool) bool {
	c.total, c.done = total, done
	if cached {
		c.cached++
	}
	if failed {
		c.failed++
	}
	every := (total + progressEvents - 1) / progressEvents
	return done == 1 || done == total || done%every == 0
}

// event is the progress event of the cell just noted.
func (c *checkpoints) event(cell, err string, cached bool) controlapi.Event {
	return controlapi.Event{
		Type:       controlapi.EventProgress,
		Done:       c.done,
		Total:      c.total,
		Cell:       cell,
		Err:        err,
		Cached:     cached,
		DoneCached: c.cached,
		DoneFailed: c.failed,
	}
}

// ExecuteFleet runs spec on eng and renders the report. progress, when
// non-nil, receives the run's coalesced progress events (see
// checkpoints), serially. A cancelled run comes back with its partial
// Outcome and an error wrapping sim.ErrCancelled. The daemon and the
// in-process CLIs both run fleets through here, which is what makes their
// exports byte-identical.
func ExecuteFleet(ctx context.Context, eng *fleet.Engine, spec fleet.Spec, progress func(controlapi.Event)) (Outcome, error) {
	var cp checkpoints
	if progress != nil {
		eng.OnCellDone = func(p fleet.Progress) {
			if cp.note(p.Done, p.Total, p.Err != "", p.Cached) {
				progress(cp.event(p.Cell.String(), p.Err, p.Cached))
			}
		}
		defer func() { eng.OnCellDone = nil }()
	}
	rep, err := eng.Run(ctx, spec)
	var out Outcome
	if rep != nil {
		out, err = render("fleet", rep, len(rep.Failures), rep.Completed, err)
	}
	out.Finished, out.Cached = cp.done, cp.cached
	return out, err
}

// ExecuteCampaign is ExecuteFleet for a campaign grid: coalesced progress
// events over the grid's cells, then the rendered report.
func ExecuteCampaign(ctx context.Context, eng *campaign.Engine, grid campaign.Grid, progress func(controlapi.Event)) (Outcome, error) {
	var cp checkpoints
	if progress != nil {
		eng.OnCellDone = func(done, total int, res campaign.CellResult) {
			if cp.note(done, total, res.Err != "", res.Cached) {
				progress(cp.event(res.Cell.String(), res.Err, res.Cached))
			}
		}
		defer func() { eng.OnCellDone = nil }()
	}
	rep, err := eng.RunContext(ctx, grid)
	var out Outcome
	if rep != nil {
		fails := len(rep.Failures())
		out, err = render("campaign", rep, fails, len(rep.Cells)-fails, err)
	}
	out.Finished, out.Cached = cp.done, cp.cached
	return out, err
}

// exporter is the export surface both engines' reports share.
type exporter interface {
	WriteJSON(io.Writer) error
	WriteCSV(io.Writer) error
	Summary() string
}

// render captures a report's exports. A run error (cancellation) takes
// precedence over a render error; a failed render leaves no Outcome.
func render(kind string, rep exporter, failures, completed int, runErr error) (Outcome, error) {
	var j, c bytes.Buffer
	err := rep.WriteJSON(&j)
	if err == nil {
		err = rep.WriteCSV(&c)
	}
	if err != nil {
		if runErr == nil {
			runErr = fmt.Errorf("server: rendering %s report: %w", kind, err)
		}
		return Outcome{}, runErr
	}
	return Outcome{
		JSON:      j.Bytes(),
		CSV:       c.Bytes(),
		Summary:   rep.Summary(),
		Failures:  failures,
		Completed: completed,
	}, runErr
}
