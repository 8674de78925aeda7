package cli

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/client"
	"repro/internal/controlapi"
	"repro/internal/fleet"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/store"
)

// runSeed is the base seed of every run in these tests.
const runSeed = 5

// job is one run of either engine, described once and executed through
// either transport.
type job struct {
	kind  string // controlapi.KindFleet or KindCampaign
	fleet fleet.Spec
	grid  campaign.Grid
}

// spec is the job's spec in the form Remote submits.
func (j job) spec() any {
	if j.kind == controlapi.KindFleet {
		return j.fleet
	}
	return j.grid
}

// registerHotRoom registers a scenario whose ambient sits near the
// scenario bound, so a fleet's ambient jitter pushes some devices past it:
// those cells fail to compile and are collected as failures, the rest run.
var registerHotRoom = sync.OnceValue(func() error {
	return scenario.Register(scenario.Spec{
		Name:     "cli-test-hot-room",
		AmbientC: 110,
		Phases:   []scenario.Phase{{Name: "burst", DurationS: 4, Benchmark: "dijkstra"}},
	})
})

// engineJobs are the per-engine jobs of the table: a clean run, a run with
// failed cells, and a run long enough that cancelling it at its first
// progress line leaves a partial report.
type engineJobs struct {
	name                  string
	clean, failed, cancel job
}

func jobs() []engineJobs {
	fleetJob := func(spec fleet.Spec) job {
		spec.Policy = "without-fan"
		spec.ControlPeriodS = 0.5
		return job{kind: controlapi.KindFleet, fleet: spec}
	}
	campJob := func(g campaign.Grid) job {
		g.Policies = []sim.Policy{sim.PolicyNoFan}
		return job{kind: controlapi.KindCampaign, grid: g}
	}
	return []engineJobs{
		{
			name: "fleet",
			clean: fleetJob(fleet.Spec{N: 6, Scenarios: []fleet.Weight{
				{Name: "cold-start", Weight: 2}, {Name: "bursty-interactive", Weight: 1}}}),
			failed: fleetJob(fleet.Spec{N: 8, AmbientJitterC: 20,
				Scenarios: []fleet.Weight{{Name: "cli-test-hot-room", Weight: 1}}}),
			cancel: fleetJob(fleet.Spec{N: 400, Scenarios: []fleet.Weight{{Name: "gaming-session", Weight: 1}}}),
		},
		{
			name:   "campaign",
			clean:  campJob(campaign.Grid{Benchmarks: []string{"dijkstra"}, Seeds: []int64{1, 2}}),
			failed: campJob(campaign.Grid{Benchmarks: []string{"dijkstra"}, Governors: []string{"ondemand", "no-such-gov"}}),
			cancel: campJob(campaign.Grid{Scenarios: []string{"gaming-session"}, Seeds: seeds(32)}),
		},
	}
}

// seeds returns the replicate seeds 1..n.
func seeds(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i + 1)
	}
	return out
}

// runner executes jobs on one transport and reports them through o, the
// way a run CLI does on that path: run executes a job (cancelled with
// ctx), unstarted a job that is cancelled before any cell starts.
type runner struct {
	run       func(ctx context.Context, o Output, j job) (int, error)
	unstarted func(t *testing.T, o Output, j job) (int, error)
}

// transport is one of the two paths a run CLI executes on; open returns
// its runner over the result store at storeDir.
type transport struct {
	name string
	open func(t *testing.T, storeDir string) runner
}

// local holds the in-process engines. Like the daemon's resident engines
// they are reused across runs, so each characterizes once per test binary.
var local = struct {
	fleet *fleet.Engine
	camp  *campaign.Engine
}{&fleet.Engine{BaseSeed: runSeed, Workers: 1}, &campaign.Engine{BaseSeed: runSeed, Workers: 1}}

var transports = []transport{
	{
		name: "in-process",
		open: func(t *testing.T, storeDir string) runner {
			return runner{
				// Every run opens the store afresh, as every CLI
				// invocation does, so its counters are the run's own.
				run: func(ctx context.Context, o Output, j job) (int, error) {
					st, err := store.Open(storeDir)
					if err != nil {
						return 0, err
					}
					if j.kind == controlapi.KindFleet {
						local.fleet.Store = st
						out, err := server.ExecuteFleet(ctx, local.fleet, j.fleet, o.Progress())
						return o.Finish(out, err, st)
					}
					local.camp.Store = st
					out, err := server.ExecuteCampaign(ctx, local.camp, j.grid, o.Progress())
					return o.Finish(out, err, st)
				},
				// The in-process engines report every cell even when
				// cancelled before the first one starts; a cancellation
				// that leaves no report finishes like this.
				unstarted: func(t *testing.T, o Output, j job) (int, error) {
					return o.Finish(server.Outcome{}, fmt.Errorf("%s: %w", j.kind, sim.ErrCancelled), nil)
				},
			}
		},
	},
	{
		name: "addr",
		open: func(t *testing.T, storeDir string) runner {
			st, err := store.Open(storeDir)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(server.New(server.Config{Workers: 1, Store: st}).Handler())
			t.Cleanup(ts.Close)
			return runner{
				run: func(ctx context.Context, o Output, j job) (int, error) {
					return o.Remote(ctx, ts.URL, "", j.kind, j.spec(), runSeed, 1)
				},
				// The daemon's one active slot is held by a long blocker
				// run, so the job queues; cancelling it there finalizes it
				// with no report.
				unstarted: func(t *testing.T, o Output, j job) (int, error) {
					cl := client.New(ts.URL)
					blocker, err := cl.SubmitFleet(context.Background(), controlapi.SubmitRequest{
						Spec: []byte(`{"n": 2000, "policy": "without-fan"}`), Seed: runSeed, Workers: 1})
					if err != nil {
						t.Fatal(err)
					}
					defer func() {
						cl.Cancel(context.Background(), blocker.ID)
						cl.Follow(context.Background(), blocker.ID, 0, nil)
					}()
					ctx, cancel := context.WithCancel(context.Background())
					polled := make(chan struct{})
					defer func() {
						cancel()
						<-polled
					}()
					go func() {
						defer close(polled)
						for ctx.Err() == nil {
							if list, err := cl.Runs(ctx); err == nil {
								for _, r := range list.Runs {
									if r.State == controlapi.StateQueued {
										cancel()
									}
								}
							}
							time.Sleep(5 * time.Millisecond)
						}
					}()
					return o.Remote(ctx, ts.URL, "", j.kind, j.spec(), runSeed, 1)
				},
			}
		},
	},
}

// capture is one reported run: exit code, error, streams and exports.
type capture struct {
	code           int
	err            error
	stdout, stderr string
	json, csv      []byte
}

// report runs j through r with fresh output files. cancelAt, when
// positive, cancels the run as its cancelAt-th stderr line is written.
func report(t *testing.T, r runner, j job, cancelAt int) capture {
	t.Helper()
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	o := Output{Tool: j.kind, JSON: filepath.Join(dir, "r.json"), CSV: filepath.Join(dir, "r.csv"),
		Stdout: &stdout, Stderr: &stderr}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if cancelAt > 0 {
		o.Stderr = &cancelWriter{w: &stderr, at: cancelAt, cancel: cancel}
	}
	var c capture
	c.code, c.err = r.run(ctx, o, j)
	c.stdout, c.stderr = stdout.String(), stderr.String()
	c.json, _ = os.ReadFile(o.JSON)
	c.csv, _ = os.ReadFile(o.CSV)
	return c
}

// cancelWriter cancels a run when its at-th line is written.
type cancelWriter struct {
	w      io.Writer
	at, n  int
	cancel context.CancelFunc
}

func (c *cancelWriter) Write(p []byte) (int, error) {
	if c.n++; c.n == c.at {
		c.cancel()
	}
	return c.w.Write(p)
}

// reference renders j's exports straight from the engine's report.
func reference(t *testing.T, j job) (js, csv []byte) {
	t.Helper()
	local.fleet.Store, local.camp.Store = nil, nil
	type exporter interface {
		WriteJSON(io.Writer) error
		WriteCSV(io.Writer) error
	}
	var rep exporter
	var err error
	if j.kind == controlapi.KindFleet {
		rep, err = local.fleet.Run(context.Background(), j.fleet)
	} else {
		rep, err = local.camp.RunContext(context.Background(), j.grid)
	}
	if err != nil {
		t.Fatal(err)
	}
	var jb, cb bytes.Buffer
	if err := rep.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteCSV(&cb); err != nil {
		t.Fatal(err)
	}
	return jb.Bytes(), cb.Bytes()
}

// TestRunPaths drives both engines through both transports — in-process
// (server.Execute* + Finish) and -addr (Remote against a live daemon) —
// and checks the run contract of the CLIs on each: exports byte-identical
// to the engine's own render, the exit code of every outcome (0 clean,
// 1 failed cells, 130 cancelled with and without a report), and the same
// stderr and stdout bytes on both transports, cold and store-warm.
func TestRunPaths(t *testing.T) {
	if err := registerHotRoom(); err != nil {
		t.Fatal(err)
	}
	for _, e := range jobs() {
		t.Run(e.name, func(t *testing.T) {
			cleanJSON, cleanCSV := reference(t, e.clean)
			failedJSON, failedCSV := reference(t, e.failed)
			// streams[case][transport] holds the reported stderr+stdout,
			// store directories normalized.
			streams := map[string]map[string]string{}
			record := func(name, tr, storeDir string, c capture) {
				if streams[name] == nil {
					streams[name] = map[string]string{}
				}
				out := c.stderr + c.stdout
				if storeDir != "" {
					out = strings.ReplaceAll(out, storeDir, "STORE")
				}
				streams[name][tr] = out
			}
			for _, tr := range transports {
				t.Run(tr.name, func(t *testing.T) {
					expect := func(name string, c capture, code int) {
						t.Helper()
						if c.err != nil || c.code != code {
							t.Errorf("%s: exit %d, err %v; want exit %d", name, c.code, c.err, code)
						}
					}
					sameBytes := func(name string, c capture, js, csv []byte) {
						t.Helper()
						if !bytes.Equal(c.json, js) || !bytes.Equal(c.csv, csv) {
							t.Errorf("%s: exports differ from the engine's render (json %d vs %d, csv %d vs %d bytes)",
								name, len(c.json), len(js), len(c.csv), len(csv))
						}
					}

					storeDir := filepath.Join(t.TempDir(), "store")
					r := tr.open(t, storeDir)
					for _, pass := range []string{"cold", "warm"} {
						c := report(t, r, e.clean, 0)
						expect(pass, c, 0)
						sameBytes(pass, c, cleanJSON, cleanCSV)
						record(pass, tr.name, storeDir, c)
					}
					if warm := streams["warm"][tr.name]; !strings.Contains(warm, " cached\n") ||
						strings.Contains(warm, " ok\n") || !strings.Contains(warm, " 0 misses (100% hit rate)") {
						t.Errorf("warm run not served from the store:\n%s", warm)
					}

					c := report(t, r, e.failed, 0)
					expect("failed cells", c, 1)
					sameBytes("failed cells", c, failedJSON, failedCSV)
					if !strings.Contains(c.stderr, " FAILED: ") {
						t.Errorf("failed cells: no FAILED progress line:\n%s", c.stderr)
					}
					record("failed cells", tr.name, storeDir, c)

					c = report(t, r, e.cancel, 1)
					expect("cancelled", c, 130)
					if c.stdout == "" || len(c.json) == 0 || len(c.csv) == 0 {
						t.Errorf("cancelled: partial report not reported (summary %d bytes, json %d, csv %d)",
							len(c.stdout), len(c.json), len(c.csv))
					}

					var stdout, stderr bytes.Buffer
					dir := t.TempDir()
					o := Output{Tool: e.name, JSON: filepath.Join(dir, "r.json"), CSV: filepath.Join(dir, "r.csv"),
						Stdout: &stdout, Stderr: &stderr}
					code, err := r.unstarted(t, o, e.clean)
					expect("cancelled before start", capture{code: code, err: err}, 130)
					if stdout.Len() != 0 || !strings.Contains(stderr.String(), "cancel") {
						t.Errorf("cancelled before start: stdout %q, stderr %q", stdout.String(), stderr.String())
					}
					if _, err := os.Stat(o.JSON); !errors.Is(err, os.ErrNotExist) {
						t.Errorf("cancelled before start wrote an export: %v", err)
					}
				})
			}
			for name, byTransport := range streams {
				if local, remote := byTransport["in-process"], byTransport["addr"]; local != remote {
					t.Errorf("%s: output differs between transports\nin-process:\n%s\naddr:\n%s", name, local, remote)
				}
			}
		})
	}

	t.Run("unreachable daemon", func(t *testing.T) {
		o := Output{Tool: "fleet", Quiet: true, Stdout: io.Discard, Stderr: io.Discard}
		if _, err := o.Remote(context.Background(), "127.0.0.1:1", "", controlapi.KindFleet, fleet.Spec{N: 1}, 1, 0); err == nil {
			t.Error("unreachable daemon reported success")
		}
	})
}

// TestRemoteLeavesNoGoroutines pins that a remote run which ends without
// being cancelled leaves nothing behind: the cancel forwarding registered
// on the caller's context is released on return, not parked until that
// context ends (which for a context.Background caller is never).
func TestRemoteLeavesNoGoroutines(t *testing.T) {
	ts := httptest.NewServer(server.New(server.Config{Workers: 1}).Handler())
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	j := jobs()[0].clean
	o := Output{Tool: "fleet", Quiet: true, Stdout: io.Discard, Stderr: io.Discard}
	settle := func() int {
		http.DefaultClient.CloseIdleConnections()
		ts.CloseClientConnections()
		return runtime.NumGoroutine()
	}
	run := func() {
		if code, err := o.Remote(ctx, ts.URL, "", j.kind, j.spec(), runSeed, 1); err != nil || code != 0 {
			t.Fatalf("remote run: exit %d, %v", code, err)
		}
	}
	// Baseline after one run, once the count has held still for 50 ms:
	// whatever the first run starts for good (and whatever earlier tests
	// are still winding down) is not this test's business.
	run()
	base, still := settle(), 0
	for still < 5 {
		time.Sleep(10 * time.Millisecond)
		if n := settle(); n != base {
			base, still = n, 0
		} else {
			still++
		}
	}
	for i := 0; i < 3; i++ {
		run()
	}
	deadline := time.Now().Add(5 * time.Second)
	n := settle()
	for n > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		n = settle()
	}
	if n > base {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines after three completed remote runs, %d before:\n%s",
			n, base, buf[:runtime.Stack(buf, true)])
	}
}

// TestRemoteCancelDuringSubmit: an interrupt that lands while the submit
// POST is in flight — after the daemon has admitted the run — still ends
// the run cancelled and the CLI with exit 130, instead of abandoning the
// run on the daemon with a "context canceled" error.
func TestRemoteCancelDuringSubmit(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var armed atomic.Bool
	h := server.New(server.Config{Workers: 1, MaxActive: 1}).Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || !armed.Load() {
			h.ServeHTTP(w, r)
			return
		}
		// Admit the run, interrupt the caller, and hold the response
		// until the caller hangs up (a submit bound to ctx) or shows it
		// is still waiting for the run it submitted.
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		cancel()
		select {
		case <-r.Context().Done():
		case <-time.After(100 * time.Millisecond):
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	}))
	defer ts.Close()

	// A long blocker holds the daemon's one active slot, so the submitted
	// run stays queued until the interrupt reaches it.
	cl := client.New(ts.URL)
	blocker, err := cl.SubmitFleet(context.Background(), controlapi.SubmitRequest{
		Spec: []byte(`{"n": 2000, "policy": "without-fan"}`), Seed: runSeed, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		cl.Cancel(context.Background(), blocker.ID)
		cl.Follow(context.Background(), blocker.ID, 0, nil)
	}()
	armed.Store(true)

	j := jobs()[0].clean
	o := Output{Tool: "fleet", Quiet: true, Stdout: io.Discard, Stderr: io.Discard}
	code, err := o.Remote(ctx, ts.URL, "", j.kind, j.spec(), runSeed, 1)
	if err != nil || code != 130 {
		t.Errorf("interrupted submit: exit %d, err %v; want exit 130", code, err)
	}
	list, err := cl.Runs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range list.Runs {
		if r.ID == blocker.ID {
			continue
		}
		if r.State != controlapi.StateCancelled {
			// Leave nothing queued behind the test.
			cl.Cancel(context.Background(), r.ID)
			t.Errorf("run %s left %s on the daemon, want cancelled", r.ID, r.State)
		}
	}
	if len(list.Runs) != 2 {
		t.Errorf("daemon holds %d runs, want the blocker and the submitted run", len(list.Runs))
	}
}

// TestHitRate pins the store line both transports print: rendering the
// daemon's per-run counters through store.Stats.Summary keeps the bytes
// daemon-smoke greps ("0 misses (100% hit rate)").
func TestHitRate(t *testing.T) {
	for _, c := range []struct{ hits, misses uint64 }{{0, 0}, {3, 1}, {64, 0}, {1, 2}} {
		rate := 0.0
		if c.hits+c.misses > 0 {
			rate = float64(c.hits) / float64(c.hits+c.misses)
		}
		want := fmt.Sprintf("%d hits, %d misses (%.0f%% hit rate)", c.hits, c.misses, 100*rate)
		if got := (store.Stats{Hits: c.hits, Misses: c.misses}).Summary(); got != want {
			t.Errorf("store line for %d/%d = %q, want %q", c.hits, c.misses, got, want)
		}
	}
}

func TestWriteFileErrors(t *testing.T) {
	if err := WriteFile(filepath.Join(t.TempDir(), "no-such-dir", "x.json"), nil); err == nil {
		t.Error("uncreatable path accepted")
	}
	boom := errors.New("render failed")
	err := WriteFile(filepath.Join(t.TempDir(), "x.json"), func(w io.Writer) error { return boom })
	if !errors.Is(err, boom) {
		t.Errorf("writer error not propagated: %v", err)
	}
}
