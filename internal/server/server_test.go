package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/client"
	"repro/internal/controlapi"
	"repro/internal/fleet"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/version"
)

// testSpec is the small mixed fleet the daemon tests submit: short
// scenarios and a coarse control period keep each cell cheap, the mixed
// axes keep the population non-trivial.
func testSpec(n int) fleet.Spec {
	return fleet.Spec{
		Name:           "daemon-test",
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

func specJSON(t *testing.T, spec fleet.Spec) []byte {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// newTestDaemon serves a Server over httptest and returns it with a client
// pointed at it.
func newTestDaemon(t *testing.T, cfg Config) (*Server, *httptest.Server, *client.Client) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, client.New(ts.URL)
}

// waitTerminal blocks until the run is terminal by following its event
// stream to the done event — the deterministic signal finalize appends
// under the run lock — then returns the final RunInfo. The stream blocks
// on the run's pulse channel, so there is no poll interval and no sleep
// to mis-size.
func waitTerminal(t *testing.T, cl *client.Client, id string) *controlapi.RunInfo {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := cl.Follow(ctx, id, 0, nil); err != nil {
		t.Fatalf("run %s: waiting for done event: %v", id, err)
	}
	info, err := cl.Run(ctx, id)
	if err != nil {
		t.Fatalf("run %s: %v", id, err)
	}
	if !controlapi.TerminalState(info.State) {
		t.Fatalf("run %s: saw its done event but state is %s", id, info.State)
	}
	return info
}

// errEnoughProgress unblocks waitProgress's stream once it has seen what
// it came for.
var errEnoughProgress = errors.New("enough progress")

// waitProgress blocks until the run has logged at least n progress
// events, by consuming its event stream (the server wakes the stream on
// every append — deterministic, no polling).
func waitProgress(t *testing.T, cl *client.Client, id string, n int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	seen := 0
	_, done, err := cl.Stream(ctx, id, 0, func(ev controlapi.Event) error {
		if ev.Type == controlapi.EventProgress {
			if seen++; seen >= n {
				return errEnoughProgress
			}
		}
		return nil
	})
	if errors.Is(err, errEnoughProgress) || (done != nil && seen >= n) {
		return
	}
	t.Fatalf("run %s: stream ended after %d/%d progress events (done=%v, err=%v)", id, seen, n, done, err)
}

// TestVersionHandshake: mismatched clients are rejected with the typed 409
// on every route except healthz, and the client surfaces a server of a
// different generation as ErrVersionMismatch.
func TestVersionHandshake(t *testing.T) {
	_, ts, cl := newTestDaemon(t, Config{})

	get := func(path, engine string) *http.Response {
		req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if engine != "" {
			req.Header.Set(controlapi.EngineHeader, engine)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := get("/v1/runs", "repro-engine/0")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("mismatched engine got %d, want 409", resp.StatusCode)
	}
	if got := resp.Header.Get(controlapi.EngineHeader); got != version.Engine {
		t.Errorf("rejection carries engine %q, want %q", got, version.Engine)
	}
	var env controlapi.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error == nil {
		t.Fatalf("rejection body undecodable: %v", err)
	}
	if env.Error.Code != controlapi.CodeVersionMismatch || !errors.Is(env.Error, controlapi.ErrVersionMismatch) {
		t.Errorf("rejection code %q, want %q", env.Error.Code, controlapi.CodeVersionMismatch)
	}

	// Healthz is exempt: a mismatched client can still discover the server.
	hz := get("/v1/healthz", "repro-engine/0")
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Errorf("healthz with mismatched engine got %d, want 200", hz.StatusCode)
	}
	if _, err := cl.Health(context.Background()); err != nil {
		t.Errorf("Health: %v", err)
	}

	// Client side: a server stamping a different engine version is itself a
	// version mismatch, even if it accepted the request.
	alien := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set(controlapi.EngineHeader, "repro-engine/999")
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, `{"engine":"repro-engine/999","runs":[]}`)
	}))
	defer alien.Close()
	if _, err := client.New(alien.URL).Runs(context.Background()); !errors.Is(err, controlapi.ErrVersionMismatch) {
		t.Errorf("alien server error = %v, want ErrVersionMismatch", err)
	}
}

// TestSubmitValidation: bad envelopes and bad specs come back as typed
// errors, and unknown runs are typed 404s.
func TestSubmitValidation(t *testing.T) {
	_, ts, cl := newTestDaemon(t, Config{})
	ctx := context.Background()

	_, err := cl.SubmitFleet(ctx, controlapi.SubmitRequest{Spec: []byte(`{"n":2,"bogus":true}`), Seed: 1})
	if !errors.Is(err, controlapi.ErrInvalidSpec) {
		t.Errorf("unknown fleet spec field: %v, want ErrInvalidSpec", err)
	}
	_, err = cl.SubmitFleet(ctx, controlapi.SubmitRequest{Spec: []byte(`{"n":0}`), Seed: 1})
	if !errors.Is(err, controlapi.ErrInvalidSpec) {
		t.Errorf("out-of-range fleet spec: %v, want ErrInvalidSpec", err)
	}
	_, err = cl.SubmitCampaign(ctx, controlapi.SubmitRequest{Spec: []byte(`{"policies":["warp-speed"]}`), Seed: 1})
	if !errors.Is(err, controlapi.ErrInvalidSpec) {
		t.Errorf("unknown campaign policy: %v, want ErrInvalidSpec", err)
	}

	resp, err := ts.Client().Post(ts.URL+"/v1/fleets", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("undecodable envelope got %d, want 400", resp.StatusCode)
	}

	// The batch width is not part of the wire contract: the strict
	// envelope decoder rejects a body that still carries it.
	body, err := json.Marshal(map[string]any{"spec": specJSON(t, testSpec(1)), "seed": 1, "batch_size": 4})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = ts.Client().Post(ts.URL+"/v1/fleets", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var env controlapi.ErrorEnvelope
	decErr := json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || decErr != nil || env.Error == nil ||
		env.Error.Code != controlapi.CodeBadRequest || !strings.Contains(env.Error.Message, "batch_size") {
		t.Errorf("batch_size submit got %d %+v (decode %v), want 400 %s naming the field",
			resp.StatusCode, env.Error, decErr, controlapi.CodeBadRequest)
	}

	if _, err := cl.Run(ctx, "r999"); !errors.Is(err, controlapi.ErrNotFound) {
		t.Errorf("unknown run: %v, want ErrNotFound", err)
	}
	if _, err := cl.Report(ctx, "r999", "json"); !errors.Is(err, controlapi.ErrNotFound) {
		t.Errorf("unknown run report: %v, want ErrNotFound", err)
	}
}

// TestBackpressureAndFairness: with one admission slot held open, a tenant
// that fills its queue gets the typed 429 with Retry-After while another
// tenant is still admitted, and dispatch round-robins across tenants.
func TestBackpressureAndFairness(t *testing.T) {
	s := New(Config{MaxActive: 1, QueueDepth: 2, RetryAfterS: 7})
	release := make(chan struct{})
	var mu sync.Mutex
	var order []string
	s.testRunStart = func(ctx context.Context, id string) {
		mu.Lock()
		order = append(order, id)
		mu.Unlock()
		select {
		case <-release:
		case <-ctx.Done():
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := client.New(ts.URL)
	ctx := context.Background()
	spec := specJSON(t, testSpec(1))

	submit := func(c *client.Client, seed int64) *controlapi.RunInfo {
		t.Helper()
		info, err := c.SubmitFleet(ctx, controlapi.SubmitRequest{Spec: spec, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return info
	}

	a1 := submit(cl, 1)
	if a1.State != controlapi.StateRunning {
		t.Fatalf("first submit state %q, want running (inline dispatch)", a1.State)
	}
	a2, a3 := submit(cl, 2), submit(cl, 3)
	if a2.State != controlapi.StateQueued || a3.State != controlapi.StateQueued {
		t.Fatalf("overflow submits states %q/%q, want queued", a2.State, a3.State)
	}

	// The tenant's queue is full now: the typed 429.
	_, err := cl.SubmitFleet(ctx, controlapi.SubmitRequest{Spec: spec, Seed: 4})
	if !errors.Is(err, controlapi.ErrQueueFull) {
		t.Fatalf("full queue: %v, want ErrQueueFull", err)
	}
	var apiErr *controlapi.Error
	if !errors.As(err, &apiErr) || apiErr.RetryAfterS != 7 {
		t.Errorf("full queue RetryAfterS = %+v, want 7", apiErr)
	}
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/fleets", bytes.NewReader(mustJSON(t, controlapi.SubmitRequest{Spec: spec, Seed: 4})))
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") != "7" {
		t.Errorf("full queue got status %d Retry-After %q, want 429 and 7", resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	// A full queue delays only its own tenant.
	other := client.New(ts.URL)
	other.Tenant = "team-b"
	b1 := submit(other, 5)
	if b1.State != controlapi.StateQueued {
		t.Fatalf("other tenant state %q, want queued", b1.State)
	}
	if b1.Tenant != "team-b" {
		t.Errorf("other tenant recorded as %q", b1.Tenant)
	}

	h, err := cl.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Active != 1 || h.Queued != 3 || h.Tenants != 2 {
		t.Errorf("health active/queued/tenants = %d/%d/%d, want 1/3/2", h.Active, h.Queued, h.Tenants)
	}

	close(release)
	for _, id := range []string{a1.ID, a2.ID, a3.ID, b1.ID} {
		if info := waitTerminal(t, cl, id); info.State != controlapi.StateSucceeded {
			t.Errorf("run %s ended %s (%s), want succeeded", id, info.State, info.Error)
		}
	}
	// Round-robin: after the default tenant's first two runs, team-b gets a
	// turn before the default tenant's third.
	mu.Lock()
	got := strings.Join(order, " ")
	mu.Unlock()
	want := strings.Join([]string{a1.ID, a2.ID, b1.ID, a3.ID}, " ")
	if got != want {
		t.Errorf("dispatch order %q, want round-robin %q", got, want)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestStreamReattach: a client that detaches mid-stream and reattaches with
// its cursor sees every event exactly once, in order.
func TestStreamReattach(t *testing.T) {
	_, _, cl := newTestDaemon(t, Config{})
	ctx := context.Background()
	const n = 6

	info, err := cl.SubmitFleet(ctx, controlapi.SubmitRequest{Spec: specJSON(t, testSpec(n)), Seed: 99})
	if err != nil {
		t.Fatal(err)
	}

	var got []controlapi.Event
	errDetach := errors.New("simulated detach")
	cursor, _, err := cl.Stream(ctx, info.ID, 0, func(ev controlapi.Event) error {
		got = append(got, ev)
		if len(got) == 3 {
			return errDetach
		}
		return nil
	})
	if !errors.Is(err, errDetach) {
		t.Fatalf("detached stream: %v, want errDetach", err)
	}
	if cursor != 3 {
		t.Fatalf("detach cursor %d, want 3", cursor)
	}

	// Reattach from the cursor: the remaining events, then done.
	_, done, err := cl.Stream(ctx, info.ID, cursor, func(ev controlapi.Event) error {
		got = append(got, ev)
		return nil
	})
	if err != nil || done == nil {
		t.Fatalf("reattached stream: done=%v err=%v", done, err)
	}

	if len(got) != n+1 {
		t.Fatalf("saw %d events, want %d progress + 1 done", len(got), n)
	}
	cells := map[string]bool{}
	for i, ev := range got {
		if ev.Seq != int64(i)+1 {
			t.Fatalf("event %d has Seq %d: lost or duplicated events", i, ev.Seq)
		}
		if i < n {
			if ev.Type != controlapi.EventProgress || ev.Total != n {
				t.Errorf("event %d = %+v, want progress with total %d", i, ev, n)
			}
			cells[ev.Cell] = true
		}
	}
	if len(cells) != n {
		t.Errorf("saw %d distinct cells, want %d", len(cells), n)
	}
	last := got[n]
	if last.Type != controlapi.EventDone || last.State != controlapi.StateSucceeded || last.Completed != n {
		t.Errorf("done event = %+v, want succeeded with %d completed", last, n)
	}
	if last.Summary == "" {
		t.Error("done event has no summary")
	}

	// A late Follow replays the whole log from the cursor and still returns
	// the done record.
	var replay int
	fdone, err := cl.Follow(ctx, info.ID, 0, func(ev controlapi.Event) error {
		replay++
		return nil
	})
	if err != nil || fdone.State != controlapi.StateSucceeded {
		t.Fatalf("follow after completion: %+v, %v", fdone, err)
	}
	if replay != n+1 {
		t.Errorf("follow replayed %d events, want %d", replay, n+1)
	}
}

// TestCancel: a queued run finalizes immediately with no report; a running
// run stops through its context, the in-process Ctrl-C path.
func TestCancel(t *testing.T) {
	s := New(Config{MaxActive: 1})
	release := make(chan struct{})
	s.testRunStart = func(ctx context.Context, id string) {
		select {
		case <-release:
		case <-ctx.Done():
		}
	}
	defer close(release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := client.New(ts.URL)
	ctx := context.Background()
	spec := specJSON(t, testSpec(1))

	r1, err := cl.SubmitFleet(ctx, controlapi.SubmitRequest{Spec: spec, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := cl.SubmitFleet(ctx, controlapi.SubmitRequest{Spec: spec, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}

	if err := cl.Cancel(ctx, r2.ID); err != nil {
		t.Fatal(err)
	}
	info := waitTerminal(t, cl, r2.ID)
	if info.State != controlapi.StateCancelled {
		t.Errorf("queued run cancelled to %q", info.State)
	}
	if _, err := cl.Report(ctx, r2.ID, "json"); !errors.Is(err, controlapi.ErrNotFound) {
		t.Errorf("never-started run report: %v, want ErrNotFound", err)
	}

	if err := cl.Cancel(ctx, r1.ID); err != nil {
		t.Fatal(err)
	}
	if info := waitTerminal(t, cl, r1.ID); info.State != controlapi.StateCancelled {
		t.Errorf("running run cancelled to %q (%s)", info.State, info.Error)
	}
	// Idempotent on terminal runs.
	if err := cl.Cancel(ctx, r1.ID); err != nil {
		t.Errorf("re-cancel: %v", err)
	}
}

// TestDrainPartialReport: draining cancels queued runs outright, stops the
// in-flight run between control intervals, and its partial report is still
// served — the contract that makes SIGTERM lose no completed work.
func TestDrainPartialReport(t *testing.T) {
	s, ts, cl := newTestDaemon(t, Config{MaxActive: 1})
	_ = ts
	ctx := context.Background()
	const n = 60

	r1, err := cl.SubmitFleet(ctx, controlapi.SubmitRequest{Spec: specJSON(t, testSpec(n)), Seed: 7, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := cl.SubmitFleet(ctx, controlapi.SubmitRequest{Spec: specJSON(t, testSpec(1)), Seed: 8})
	if err != nil {
		t.Fatal(err)
	}

	waitProgress(t, cl, r1.ID, 3)

	drainCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := s.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	info, err := cl.Run(ctx, r1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != controlapi.StateCancelled {
		t.Fatalf("drained run state %q, want cancelled", info.State)
	}
	raw, err := cl.Report(ctx, r1.ID, "json")
	if err != nil {
		t.Fatalf("partial report: %v", err)
	}
	rep, err := fleet.ReadReportJSON(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("partial report unparseable: %v", err)
	}
	if rep.Completed < 3 || rep.Completed >= n {
		t.Errorf("partial report completed %d, want in [3, %d)", rep.Completed, n)
	}
	if csv, err := cl.Report(ctx, r1.ID, "csv"); err != nil || len(csv) == 0 {
		t.Errorf("partial CSV: %d bytes, %v", len(csv), err)
	}

	qinfo, err := cl.Run(ctx, r2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if qinfo.State != controlapi.StateCancelled || !strings.Contains(qinfo.Error, "draining") {
		t.Errorf("queued run after drain: %q (%q)", qinfo.State, qinfo.Error)
	}

	if _, err := cl.SubmitFleet(ctx, controlapi.SubmitRequest{Spec: specJSON(t, testSpec(1)), Seed: 9}); !errors.Is(err, controlapi.ErrDraining) {
		t.Errorf("submit while draining: %v, want ErrDraining", err)
	}
	h, err := cl.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.OK || h.State != "draining" {
		t.Errorf("health while draining: %+v", h)
	}
}

// TestByteIdentityAndWarmResubmit is the acceptance gate: the report served
// by the daemon is byte-identical to the in-process engine's exports, and
// resubmitting the same spec to a live daemon is served entirely from the
// store.
func TestByteIdentityAndWarmResubmit(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, _, cl := newTestDaemon(t, Config{Store: st})
	ctx := context.Background()
	const n, seed = 8, 42
	spec := testSpec(n)

	run := func() (controlapi.Event, []controlapi.Event) {
		t.Helper()
		info, err := cl.SubmitFleet(ctx, controlapi.SubmitRequest{Spec: specJSON(t, spec), Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		var progress []controlapi.Event
		done, err := cl.Follow(ctx, info.ID, 0, func(ev controlapi.Event) error {
			if ev.Type == controlapi.EventProgress {
				progress = append(progress, ev)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if done.State != controlapi.StateSucceeded {
			t.Fatalf("run ended %s: %s", done.State, done.RunErr)
		}
		done.Seq = 0 // position in the log is per-run; compare the payload
		return done, progress
	}
	report := func(id, format string) []byte {
		t.Helper()
		b, err := cl.Report(ctx, id, format)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	cold, _ := run()
	if cold.StoreDir != st.Dir() || cold.Hits != 0 || cold.Misses != n {
		t.Errorf("cold run telemetry %s %d/%d, want %s 0/%d", cold.StoreDir, cold.Hits, cold.Misses, st.Dir(), n)
	}

	// In-process reference: the same engine code, no store, no daemon.
	eng := &fleet.Engine{BaseSeed: seed}
	rep, err := eng.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	var wantJSON, wantCSV bytes.Buffer
	if err := rep.WriteJSON(&wantJSON); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteCSV(&wantCSV); err != nil {
		t.Fatal(err)
	}
	list, err := cl.Runs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	coldID := list.Runs[0].ID
	if got := report(coldID, "json"); !bytes.Equal(got, wantJSON.Bytes()) {
		t.Errorf("daemon JSON export differs from in-process (%d vs %d bytes)", len(got), wantJSON.Len())
	}
	if got := report(coldID, "csv"); !bytes.Equal(got, wantCSV.Bytes()) {
		t.Errorf("daemon CSV export differs from in-process (%d vs %d bytes)", len(got), wantCSV.Len())
	}
	if cold.Summary != rep.Summary() {
		t.Errorf("daemon summary %q, in-process %q", cold.Summary, rep.Summary())
	}

	// Warm resubmission: 100% store hits, byte-identical exports again.
	warm, progress := run()
	if warm.Hits != n || warm.Misses != 0 {
		t.Errorf("warm run telemetry %d hits / %d misses, want %d/0", warm.Hits, warm.Misses, n)
	}
	for _, ev := range progress {
		if !ev.Cached {
			t.Errorf("warm cell %q not served from store", ev.Cell)
		}
	}
	warm.Hits, warm.Misses = cold.Hits, cold.Misses
	if warm != cold {
		t.Errorf("warm done event differs beyond telemetry:\n cold %+v\n warm %+v", cold, warm)
	}
	list2, err := cl.Runs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := report(list2.Runs[len(list2.Runs)-1].ID, "json"); !bytes.Equal(got, wantJSON.Bytes()) {
		t.Errorf("warm JSON export differs from in-process")
	}
}

// TestHealthStoreCounters: healthz carries the shared store's counters —
// absent without a store — and a store that cannot be written still lets a
// run return its correct report while healthz shows the failed writes.
func TestHealthStoreCounters(t *testing.T) {
	ctx := context.Background()
	_, _, bare := newTestDaemon(t, Config{})
	h, err := bare.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Store != nil {
		t.Errorf("storeless daemon reports store counters %+v", h.Store)
	}

	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.BreakWritesForTest(); err != nil {
		t.Fatal(err)
	}
	_, _, cl := newTestDaemon(t, Config{Store: st})
	const n, seed = 4, 42
	spec := testSpec(n)
	info, err := cl.SubmitFleet(ctx, controlapi.SubmitRequest{Spec: specJSON(t, spec), Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if done := waitTerminal(t, cl, info.ID); done.State != controlapi.StateSucceeded {
		t.Fatalf("run ended %s: %s", done.State, done.Error)
	}
	got, err := cl.Report(ctx, info.ID, "json")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := (&fleet.Engine{BaseSeed: seed}).Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := rep.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Error("report through an unwritable store differs from the in-process run")
	}
	h, err = cl.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Store == nil || h.Store.WriteErrors == 0 || h.Store.Misses != n || h.Store.Writes != 0 {
		t.Errorf("healthz store counters %+v, want %d misses, write errors and no writes", h.Store, n)
	}
}

// TestCampaignRun: the campaign path end to end — lazy anchor
// characterization, per-cell progress, exports byte-identical to an
// in-process engine given the anchor's models up front.
func TestCampaignRun(t *testing.T) {
	_, _, cl := newTestDaemon(t, Config{})
	ctx := context.Background()
	const seed = 21
	gridJSON := []byte(`{"policies":["without-fan","dtpm"],"benchmarks":["dijkstra"],"seeds":[1]}`)

	info, err := cl.SubmitCampaign(ctx, controlapi.SubmitRequest{Spec: gridJSON, Seed: seed, Name: "smoke"})
	if err != nil {
		t.Fatal(err)
	}
	if info.Kind != controlapi.KindCampaign || info.Cells != 2 || info.Name != "smoke" {
		t.Fatalf("submitted run = %+v, want campaign with 2 cells", info)
	}
	var progress int
	done, err := cl.Follow(ctx, info.ID, 0, func(ev controlapi.Event) error {
		if ev.Type == controlapi.EventProgress {
			progress++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if done.State != controlapi.StateSucceeded || done.Completed != 2 || done.Failures != 0 || progress != 2 {
		t.Fatalf("campaign ended %s completed=%d failures=%d progress=%d", done.State, done.Completed, done.Failures, progress)
	}

	// In-process reference, prepared the way cmd/campaign does: anchor
	// models characterized up front at the same seed.
	runner := sim.NewRunner()
	models, err := runner.Characterize(ctx, seed)
	if err != nil {
		t.Fatal(err)
	}
	eng := &campaign.Engine{BaseSeed: seed, Runner: runner, Models: models}
	var grid campaign.Grid
	if err := json.Unmarshal(gridJSON, &grid); err != nil {
		t.Fatal(err)
	}
	rep, err := eng.RunContext(ctx, grid)
	if err != nil {
		t.Fatal(err)
	}
	var wantJSON bytes.Buffer
	if err := rep.WriteJSON(&wantJSON); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Report(ctx, info.ID, "json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantJSON.Bytes()) {
		t.Errorf("daemon campaign export differs from in-process (%d vs %d bytes)", len(got), wantJSON.Len())
	}
	if done.Summary != rep.Summary() {
		t.Errorf("daemon summary %q, in-process %q", done.Summary, rep.Summary())
	}
}
