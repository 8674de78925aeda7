package soak

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro"
	"repro/internal/client"
	"repro/internal/controlapi"
	"repro/internal/fleet"
	"repro/internal/platform"
	"repro/internal/scenario"
	"repro/internal/server"
)

// rng is a splitmix64 stream — the same deterministic derivation idiom the
// fleet cells use, so an op sequence is a pure function of
// (seed, window, tenant) and any failure replays from its logged seed.
type rng struct{ s uint64 }

func newRNG(seed int64, window, tenant int) *rng {
	return &rng{s: uint64(seed) ^ uint64(window)*0x9e3779b97f4a7c15 ^ uint64(tenant)*0xbf58476d1ce4e5b9}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// harness holds the soak's shared state: the live daemon address and
// pooled transport, the resident in-process device, and the cross-tenant
// counters and recently-seen run IDs the query op probes eviction with.
type harness struct {
	cfg       Config
	addr      string
	transport *http.Transport
	dev       *repro.Device

	mu         sync.Mutex
	oldRuns    []string // recently terminal run IDs — eviction probe targets
	ops        int      // completed ops, total
	runs       int      // daemon runs driven terminal, total
	winOps     int      // same, current window
	winRuns    int
	cancelled  int
	reattached int
	notFound   int
	storeHits  uint64
}

// seedPool returns the base seeds daemon submissions draw from. The pool is
// small on purpose: runs keep landing on the same engine slots, so the
// resident caches and the store stay warm and the steady state the leak
// baselines assume actually exists.
func (h *harness) seedPool() []int64 {
	return []int64{h.cfg.Seed + 1, h.cfg.Seed + 2}
}

// fleetSpec is the generated fleet shape: a small mixed population over two
// platforms and two scenarios — the same mix the daemon tests use, sized by
// cfg.FleetN.
func (h *harness) fleetSpec(name string, n int) fleet.Spec {
	return fleet.Spec{
		Name:           name,
		N:              n,
		Policy:         "dtpm",
		ControlPeriodS: 0.5,
		Platforms: []fleet.Weight{
			{Name: platform.DefaultName, Weight: 3},
			{Name: "fanless-phone", Weight: 1},
		},
		Scenarios: []fleet.Weight{
			{Name: "cold-start", Weight: 2},
			{Name: "bursty-interactive", Weight: 1},
		},
		AmbientJitterC: 8,
	}
}

func (h *harness) specJSON(spec fleet.Spec) ([]byte, error) {
	return json.Marshal(spec)
}

// bigFleetN sizes the fleets of the stream fault ops: above the daemon's
// 64-event progress budget, so their streams are coalesced checkpoints.
const bigFleetN = 100

// registerIdle registers the one-second idle scenario the big fleets run,
// so a 100-device fleet stays cheap under the race detector.
var registerIdle = sync.OnceValue(func() error {
	return scenario.Register(scenario.Spec{
		Name:   "soak-idle",
		Seed:   9101,
		Phases: []scenario.Phase{{Name: "idle", DurationS: 1}},
	})
})

// bigFleetSpec is the generated shape of the stream fault ops: bigFleetN
// idle devices on the default platform.
func (h *harness) bigFleetSpec(name string) fleet.Spec {
	return fleet.Spec{
		Name:           name,
		N:              bigFleetN,
		Policy:         "dtpm",
		ControlPeriodS: 0.5,
		Scenarios:      []fleet.Weight{{Name: "soak-idle", Weight: 1}},
		AmbientJitterC: 8,
	}
}

const campaignGrid = `{"policies":["without-fan","dtpm"],"benchmarks":["dijkstra"],"seeds":[1]}`

// prewarm builds the resident state the baselines are measured against:
// the in-process device, and one fleet plus one campaign per pool seed so
// every engine slot, characterization cache, and store path exists before
// window 0 ends.
func (h *harness) prewarm(ctx context.Context) error {
	h.dev = repro.NewDevice()
	cl := h.client("warmup")
	for _, seed := range h.seedPool() {
		for _, spec := range []fleet.Spec{h.fleetSpec("soak-warmup", 1), h.bigFleetSpec("soak-warmup-big")} {
			raw, err := h.specJSON(spec)
			if err != nil {
				return err
			}
			if _, err := h.followFleet(ctx, cl, raw, seed); err != nil {
				return err
			}
		}
		info, err := cl.SubmitCampaign(ctx, controlapi.SubmitRequest{Spec: []byte(campaignGrid), Seed: seed})
		if err != nil {
			return err
		}
		if _, err := h.followDone(ctx, cl, info.ID); err != nil {
			return err
		}
	}
	return nil
}

// probe runs the pinned determinism probe against the daemon and returns
// its concatenated JSON and CSV exports — the bytes that must not drift
// between the first and last windows.
func (h *harness) probe(ctx context.Context) ([]byte, error) {
	cl := h.client("probe")
	spec, err := h.specJSON(h.fleetSpec("soak-probe", 4))
	if err != nil {
		return nil, err
	}
	info, err := cl.SubmitFleet(ctx, controlapi.SubmitRequest{Spec: spec, Seed: probeSeed, Name: "soak-probe"})
	if err != nil {
		return nil, err
	}
	done, err := h.followDone(ctx, cl, info.ID)
	if err != nil {
		return nil, err
	}
	if done.State != controlapi.StateSucceeded {
		return nil, fmt.Errorf("probe run ended %s: %s", done.State, done.RunErr)
	}
	js, err := cl.Report(ctx, info.ID, "json")
	if err != nil {
		return nil, err
	}
	csv, err := cl.Report(ctx, info.ID, "csv")
	if err != nil {
		return nil, err
	}
	return append(js, csv...), nil
}

// probeMatchesInProcess checks transport-level byte identity: the daemon's
// probe exports must equal what an in-process run of the same spec and seed
// renders — through server.ExecuteFleet, the function the daemon renders
// with, so the check compares two runs of the same code.
func (h *harness) probeMatchesInProcess(ctx context.Context, daemonBytes []byte) error {
	out, err := server.ExecuteFleet(ctx, &fleet.Engine{BaseSeed: probeSeed}, h.fleetSpec("soak-probe", 4), nil)
	if err != nil {
		return fmt.Errorf("soak: in-process probe: %w", err)
	}
	want := append(out.JSON, out.CSV...)
	if !bytes.Equal(daemonBytes, want) {
		return fmt.Errorf("soak: determinism drift: daemon probe exports differ from in-process engine (%d vs %d bytes)",
			len(daemonBytes), len(want))
	}
	return nil
}

// window runs one traffic window: cfg.Tenants concurrent tenants, each
// performing cfg.OpsPerTenant randomized ops.
func (h *harness) window(ctx context.Context, w int) error {
	h.mu.Lock()
	h.winOps, h.winRuns = 0, 0
	h.mu.Unlock()
	errs := make(chan error, h.cfg.Tenants)
	for i := 0; i < h.cfg.Tenants; i++ {
		go func(tenant int) {
			errs <- h.tenant(ctx, w, tenant)
		}(i)
	}
	var firstErr error
	for i := 0; i < h.cfg.Tenants; i++ {
		if err := <-errs; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// tenant is one tenant's deterministic op sequence for a window.
func (h *harness) tenant(ctx context.Context, w, idx int) error {
	r := newRNG(h.cfg.Seed, w, idx)
	cl := h.client(fmt.Sprintf("tenant-%d", idx))
	for op := 0; op < h.cfg.OpsPerTenant; op++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		k := r.intn(10)
		if idx == 0 && op == 0 {
			// Every window streams at least one coalesced run.
			k = 8 + w%2
		}
		var err error
		switch k {
		case 0, 1:
			err = h.opFleet(ctx, cl, r)
		case 2:
			err = h.opCampaign(ctx, cl, r)
		case 3:
			err = h.opDetachReattach(ctx, cl, r)
		case 4:
			err = h.opCancel(ctx, cl, r)
		case 5:
			err = h.opQuery(ctx, cl, r)
		case 6:
			err = h.opSession(r)
		case 7:
			err = h.opReplay(r)
		case 8:
			err = h.opSlowConsumer(ctx, cl, r)
		case 9:
			err = h.opDropStream(ctx, cl, r)
		}
		if err != nil {
			return fmt.Errorf("tenant %d op %d: %w", idx, op, err)
		}
		h.mu.Lock()
		h.ops++
		h.winOps++
		h.mu.Unlock()
	}
	return nil
}

// followFleet submits a fleet spec and follows it to its done event.
func (h *harness) followFleet(ctx context.Context, cl *client.Client, spec []byte, seed int64) (controlapi.Event, error) {
	info, err := cl.SubmitFleet(ctx, controlapi.SubmitRequest{Spec: spec, Seed: seed})
	if err != nil {
		return controlapi.Event{}, err
	}
	return h.followDone(ctx, cl, info.ID)
}

// followDone follows a run to its terminal event and records it in the
// shared counters and the eviction-probe pool.
func (h *harness) followDone(ctx context.Context, cl *client.Client, id string) (controlapi.Event, error) {
	done, err := cl.Follow(ctx, id, 0, nil)
	if err != nil {
		return controlapi.Event{}, fmt.Errorf("run %s: %w", id, err)
	}
	h.noteRun(id, done)
	return done, nil
}

func (h *harness) noteRun(id string, done controlapi.Event) {
	h.mu.Lock()
	h.runs++
	h.winRuns++
	h.storeHits += done.Hits
	if done.State == controlapi.StateCancelled {
		h.cancelled++
	}
	h.oldRuns = append(h.oldRuns, id)
	if len(h.oldRuns) > 4*h.cfg.HistoryLimit {
		h.oldRuns = append(h.oldRuns[:0], h.oldRuns[len(h.oldRuns)-2*h.cfg.HistoryLimit:]...)
	}
	h.mu.Unlock()
}

// opFleet: submit a fleet, follow it to completion, sometimes re-fetch its
// report. Seeds come from the shared pool, so repeats are warm resubmits
// served from the store.
func (h *harness) opFleet(ctx context.Context, cl *client.Client, r *rng) error {
	pool := h.seedPool()
	spec, err := h.specJSON(h.fleetSpec("soak-fleet", h.cfg.FleetN))
	if err != nil {
		return err
	}
	info, err := cl.SubmitFleet(ctx, controlapi.SubmitRequest{Spec: spec, Seed: pool[r.intn(len(pool))]})
	if err != nil {
		return err
	}
	done, err := h.followDone(ctx, cl, info.ID)
	if err != nil {
		return err
	}
	if done.State != controlapi.StateSucceeded {
		return fmt.Errorf("fleet run %s ended %s: %s", info.ID, done.State, done.RunErr)
	}
	if r.intn(2) == 0 {
		format := "json"
		if r.intn(2) == 0 {
			format = "csv"
		}
		b, err := cl.Report(ctx, info.ID, format)
		if err != nil {
			// The run can already be evicted by concurrent tenants' terminal
			// runs under the small soak retention cap; the typed not_found
			// is the documented answer, anything else is a bug.
			if errors.Is(err, controlapi.ErrNotFound) {
				h.mu.Lock()
				h.notFound++
				h.mu.Unlock()
				return nil
			}
			return err
		}
		if len(b) == 0 {
			return fmt.Errorf("run %s: empty %s report", info.ID, format)
		}
	}
	return nil
}

// opCampaign: submit the fixed campaign grid and follow it to completion.
func (h *harness) opCampaign(ctx context.Context, cl *client.Client, r *rng) error {
	pool := h.seedPool()
	info, err := cl.SubmitCampaign(ctx, controlapi.SubmitRequest{Spec: []byte(campaignGrid), Seed: pool[r.intn(len(pool))]})
	if err != nil {
		return err
	}
	done, err := h.followDone(ctx, cl, info.ID)
	if err != nil {
		return err
	}
	if done.State != controlapi.StateSucceeded {
		return fmt.Errorf("campaign run %s ended %s: %s", info.ID, done.State, done.RunErr)
	}
	return nil
}

// errDetach simulates a client dropping its stream mid-run.
var errDetach = errors.New("soak: simulated detach")

// opDetachReattach: stream a run, detach after a few events, reattach from
// the cursor, and verify the stream still reaches the done event with a
// dense, gapless sequence.
func (h *harness) opDetachReattach(ctx context.Context, cl *client.Client, r *rng) error {
	pool := h.seedPool()
	spec, err := h.specJSON(h.fleetSpec("soak-reattach", h.cfg.FleetN))
	if err != nil {
		return err
	}
	info, err := cl.SubmitFleet(ctx, controlapi.SubmitRequest{Spec: spec, Seed: pool[r.intn(len(pool))]})
	if err != nil {
		return err
	}
	after := 1 + r.intn(h.cfg.FleetN)
	seen := 0
	var lastSeq int64
	check := func(ev controlapi.Event) error {
		if ev.Seq != lastSeq+1 {
			return fmt.Errorf("run %s: event seq %d after %d: lost or duplicated", info.ID, ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		return nil
	}
	cursor, done, err := cl.Stream(ctx, info.ID, 0, func(ev controlapi.Event) error {
		if err := check(ev); err != nil {
			return err
		}
		if seen++; seen >= after {
			return errDetach
		}
		return nil
	})
	if err != nil && !errors.Is(err, errDetach) {
		return fmt.Errorf("run %s: detached stream: %w", info.ID, err)
	}
	if done == nil {
		// Reattach from the cursor; the remaining events must continue the
		// dense sequence exactly where the detached stream left off.
		fdone, err := cl.Follow(ctx, info.ID, cursor, check)
		if err != nil {
			return fmt.Errorf("run %s: reattach: %w", info.ID, err)
		}
		done = &fdone
		h.mu.Lock()
		h.reattached++
		h.mu.Unlock()
	}
	h.noteRun(info.ID, *done)
	if done.State != controlapi.StateSucceeded {
		return fmt.Errorf("run %s ended %s: %s", info.ID, done.State, done.RunErr)
	}
	return nil
}

// submitBig submits a big fleet at a pool seed.
func (h *harness) submitBig(ctx context.Context, cl *client.Client, r *rng, name string) (*controlapi.RunInfo, error) {
	spec, err := h.specJSON(h.bigFleetSpec(name))
	if err != nil {
		return nil, err
	}
	pool := h.seedPool()
	return cl.SubmitFleet(ctx, controlapi.SubmitRequest{Spec: spec, Seed: pool[r.intn(len(pool))]})
}

// opSlowConsumer: follow a big fleet with a consumer that sleeps between
// events. The stream must still be a dense sequence of at most 65
// coalesced checkpoints whose cumulative counts reach the whole fleet,
// and the done event's store counters must add up to it.
func (h *harness) opSlowConsumer(ctx context.Context, cl *client.Client, r *rng) error {
	info, err := h.submitBig(ctx, cl, r, "soak-slow")
	if err != nil {
		return err
	}
	pause := time.Duration(1+r.intn(3)) * time.Millisecond
	var lastSeq int64
	progress, cells := 0, 0
	done, err := cl.Follow(ctx, info.ID, 0, func(ev controlapi.Event) error {
		if ev.Seq != lastSeq+1 {
			return fmt.Errorf("run %s: event seq %d after %d: lost or duplicated", info.ID, ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		if ev.Type == controlapi.EventProgress {
			progress, cells = progress+1, ev.Done
		}
		time.Sleep(pause)
		return nil
	})
	if err != nil {
		return fmt.Errorf("run %s: slow follow: %w", info.ID, err)
	}
	h.noteRun(info.ID, done)
	if done.State != controlapi.StateSucceeded {
		return fmt.Errorf("run %s ended %s: %s", info.ID, done.State, done.RunErr)
	}
	if progress > 65 || cells != bigFleetN || done.Hits+done.Misses != bigFleetN {
		return fmt.Errorf("run %s: %d progress events to %d cells, %d hits + %d misses; want at most 65 and %d cells",
			info.ID, progress, cells, done.Hits, done.Misses, bigFleetN)
	}
	return nil
}

// opDropStream: read a few events of a big fleet's stream, drop it and
// never reattach. The daemon must release the stream and finish the run
// regardless; the op polls the run, not its stream, to its terminal state,
// whose count must cover the whole fleet.
func (h *harness) opDropStream(ctx context.Context, cl *client.Client, r *rng) error {
	info, err := h.submitBig(ctx, cl, r, "soak-drop")
	if err != nil {
		return err
	}
	after := 1 + r.intn(4)
	seen := 0
	if _, _, err := cl.Stream(ctx, info.ID, 0, func(controlapi.Event) error {
		if seen++; seen >= after {
			return errDetach
		}
		return nil
	}); !errors.Is(err, errDetach) {
		return fmt.Errorf("run %s: dropped stream: %v", info.ID, err)
	}
	for !controlapi.TerminalState(info.State) {
		time.Sleep(10 * time.Millisecond)
		if info, err = cl.Run(ctx, info.ID); errors.Is(err, controlapi.ErrNotFound) {
			// Evicted by concurrent tenants' runs: terminal, unread.
			h.mu.Lock()
			h.notFound++
			h.mu.Unlock()
			return nil
		} else if err != nil {
			return err
		}
	}
	// The done event goes unread, so the run counts without its store hits.
	h.noteRun(info.ID, controlapi.Event{State: info.State})
	if info.State != controlapi.StateSucceeded || info.Done != bigFleetN {
		return fmt.Errorf("run %s ended %s with %d of %d cells done", info.ID, info.State, info.Done, bigFleetN)
	}
	return nil
}

// opCancel: submit and immediately cancel; either outcome (cancelled, or
// succeeded when the run won the race) is legal, anything else is not.
func (h *harness) opCancel(ctx context.Context, cl *client.Client, r *rng) error {
	pool := h.seedPool()
	spec, err := h.specJSON(h.fleetSpec("soak-cancel", h.cfg.FleetN))
	if err != nil {
		return err
	}
	info, err := cl.SubmitFleet(ctx, controlapi.SubmitRequest{Spec: spec, Seed: pool[r.intn(len(pool))]})
	if err != nil {
		return err
	}
	if err := cl.Cancel(ctx, info.ID); err != nil {
		return fmt.Errorf("cancel %s: %w", info.ID, err)
	}
	done, err := h.followDone(ctx, cl, info.ID)
	if err != nil {
		return err
	}
	if done.State != controlapi.StateCancelled && done.State != controlapi.StateSucceeded {
		return fmt.Errorf("cancelled run %s ended %s: %s", info.ID, done.State, done.RunErr)
	}
	return nil
}

// opQuery: read-side traffic — health, the run list, and a lookup of an
// old run ID, which under the small soak retention cap is the eviction
// probe: the answer must be the run or the typed not_found, never anything
// else (and never a hang).
func (h *harness) opQuery(ctx context.Context, cl *client.Client, r *rng) error {
	hh, err := cl.Health(ctx)
	if err != nil {
		return err
	}
	if !hh.OK || hh.Engine != controlapi.Engine() {
		return fmt.Errorf("health = %+v, want ok with engine %s", hh, controlapi.Engine())
	}
	if _, err := cl.Runs(ctx); err != nil {
		return err
	}
	h.mu.Lock()
	var id string
	if len(h.oldRuns) > 0 {
		id = h.oldRuns[r.intn(len(h.oldRuns))]
	}
	h.mu.Unlock()
	if id == "" {
		return nil
	}
	if _, err := cl.Run(ctx, id); err != nil {
		if !errors.Is(err, controlapi.ErrNotFound) {
			return fmt.Errorf("old run %s: %w", id, err)
		}
		h.mu.Lock()
		h.notFound++
		h.mu.Unlock()
	}
	return nil
}

// opSession drives the in-process streaming facade: start a session,
// consume a few live samples, detach mid-stream, and collect the result —
// the abandon-prone path whose goroutine the leak baseline would catch.
func (h *harness) opSession(r *rng) error {
	session, err := h.dev.Start(context.Background(), repro.NewSpec(
		repro.WithBenchmark("dijkstra"),
		repro.WithPolicy(repro.WithoutFan),
		repro.WithSeed(int64(r.intn(3))),
	))
	if err != nil {
		return err
	}
	take := 1 + r.intn(4)
	seen := 0
	for range session.Samples() {
		if seen++; seen >= take {
			break // detach: the run must finish at full speed, not park
		}
	}
	res, err := session.Result()
	if err != nil {
		return fmt.Errorf("session: %w", err)
	}
	if res == nil || res.ExecTime <= 0 {
		return fmt.Errorf("session result = %+v", res)
	}
	return nil
}

// opReplay drives the record/replay loop in-process: run a scenario with
// recording on, replay the trace, and require a drift-free diff — the
// library-level determinism check alongside the daemon probe.
func (h *harness) opReplay(r *rng) error {
	ctx := context.Background()
	opts := []repro.Option{
		repro.WithScenario("cold-start"),
		repro.WithPolicy(repro.Reactive),
		repro.WithSeed(int64(r.intn(3))),
		repro.WithRecord(true),
	}
	session, err := h.dev.Start(ctx, repro.NewSpec(opts...))
	if err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	res, err := session.Result()
	if err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	_, diff, err := h.dev.ReplayTrace(ctx, res.Rec, opts...)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if diff.Count != 0 {
		return fmt.Errorf("replay drift: %d mismatching samples:\n%s", diff.Count, diff)
	}
	return nil
}

// windowCounts returns the current window's op and run counts.
func (h *harness) windowCounts() (ops, runs int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.winOps, h.winRuns
}

// totals returns the whole-run counters.
func (h *harness) totals() (ops, runs, cancelled, reattached, notFound int, storeHits uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.ops, h.runs, h.cancelled, h.reattached, h.notFound, h.storeHits
}
