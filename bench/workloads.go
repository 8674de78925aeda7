package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"repro/internal/campaign"
	"repro/internal/client"
	"repro/internal/controlapi"
	"repro/internal/fleet"
	"repro/internal/platform"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

// config sizes the workloads. defaultConfig is what the benchmark measures
// and what the committed digests pin; tests run a miniature.
type config struct {
	coldN        int // fleet-cold devices per op
	warmN        int // fleet-warm devices per op
	interactiveN int // daemon-mixed interactive tenant devices per op
	sweepN       int // daemon-mixed sweep tenant devices per op
	benches      int // campaign-grid benchmarks (first k of Table 6.4)
	period       int // input period of the repeating streams
	sweepPinned  int // sweep ops whose digests are committed
	setups       int // set-up repetitions; setup_s is their median
	maxOps       int // per-stream op cap (0 = the window alone ends a run)
	probeCalls   int // calls per stage probe
	probeN       int // devices of the worker-scaling probe fleet
}

func defaultConfig() config {
	return config{
		coldN:        256,
		warmN:        4096,
		interactiveN: 1024,
		sweepN:       64,
		benches:      len(workload.Names()),
		// Odd, so that the traced run's alternation of traced and untraced
		// ops gives every input both treatments.
		period:      15,
		sweepPinned: 384,
		setups:      3,
		probeCalls:  20000,
		probeN:      256,
	}
}

// env is what a workload's set-up receives.
type env struct {
	cfg  config
	seed int64   // draws the per-op inputs
	dir  string  // scratch directory for result stores
	tr   *tracer // nil when untraced
	sp   spanRef // the set-up repetition's root span
}

// result is what one op hands back: the report bytes and its cell counts.
type result struct {
	json, csv     []byte
	cells, failed int
}

// stream is one closed-loop client: it issues op i only after op i-1 has
// returned.
type stream struct {
	name string
	// latency marks the stream whose op times are the workload's op_p50_s
	// and op_p90_s.
	latency bool
	// period > 0 means op i runs the same input as op i%period; 0 means
	// every op's input is new.
	period int
	op     func(ctx context.Context, i int, sp spanRef) (result, error)
	// oracle recomputes op i's report on the reference path.
	oracle func(ctx context.Context, i int) (result, error)
}

// instance is one set-up of a workload, ready to measure.
type instance struct {
	streams []*stream
	// storeStats reads the result store's counters (nil without a store).
	storeStats func() store.Stats
	close      func()
}

// roles names the spans that play each part of an op, so the per-layer
// metrics read the same on every workload.
type roles struct {
	run, render []string
	first       string
}

type workloadDef struct {
	name, why string
	roles     roles
	setup     func(ctx context.Context, e *env) (*instance, error)
}

var workloads = []workloadDef{
	{
		name:  "fleet-cold",
		why:   "in-process fleet of 256 new devices per op over 3 platforms and every scenario; the batched kernel does the work, no store",
		roles: roles{run: []string{"fleet.run"}, render: []string{"fleet.render"}, first: "fleet.first_cell"},
		setup: setupFleetCold,
	},
	{
		name:  "fleet-warm",
		why:   "in-process fleet of 4096 devices whose cells are all in the store; store reads, merge and render do the work, the kernel none",
		roles: roles{run: []string{"fleet.run"}, render: []string{"fleet.render"}, first: "fleet.first_cell"},
		setup: setupFleetWarm,
	},
	{
		name:  "daemon-mixed",
		why:   "two tenants on a loopback daemon with a store: warm 1024-device resubmits queue behind cold 64-device sweeps; NDJSON streaming",
		roles: roles{run: []string{"client.submit", "client.follow"}, render: []string{"client.report"}, first: "client.first_event"},
		setup: setupDaemonMixed,
	},
	{
		name:  "campaign-grid",
		why:   "in-process 4-policy x 16-benchmark x 2-seed campaign grid; the scalar kernel and campaign engine, not the batched kernel or fleet",
		roles: roles{run: []string{"campaign.run"}, render: []string{"campaign.render"}, first: "campaign.first_cell"},
		setup: setupCampaignGrid,
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// baseSeed anchors every engine: the device population each fleet op
// draws, the characterization, and the campaign seed derivation. It is part
// of the workload's definition, not an input: the population's scenario mix
// sets how much work an op is, and drawing it from --seed moved fleet-cold
// throughput by about 12% between seeds. --seed draws the per-op inputs.
const baseSeed = 1

// nproc is the worker count of every engine and the client count bound.
func nproc() int { return runtime.GOMAXPROCS(0) }

// draw maps (seed, input stream, op index) to a uniform value in [0, 1)
// through a splitmix64 finalizer, so every input derives from the seed.
func draw(seed int64, name string, i int) float64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(int64(i)+2)*0xbf58476d1ce4e5b9
	for j := 0; j < len(name); j++ {
		z = (z ^ uint64(name[j])) * 0x100000001b3
	}
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}

// tmax draws an op's thermal constraint in [58, 68) °C.
func tmax(seed int64, name string, i int) float64 { return 58 + 10*draw(seed, name, i) }

// inputIndex folds op i onto its input under the stream's period; the
// warm-up op (i < 0) keeps an input of its own.
func inputIndex(i, period int) int {
	if i < 0 || period == 0 {
		return i
	}
	return i % period
}

func allPlatforms() []fleet.Weight {
	var ws []fleet.Weight
	for _, name := range platform.Names() {
		ws = append(ws, fleet.Weight{Name: name, Weight: 1})
	}
	return ws
}

type report interface {
	WriteJSON(io.Writer) error
	WriteCSV(io.Writer) error
}

func render(rep report) ([]byte, []byte, error) {
	var j, c bytes.Buffer
	if err := rep.WriteJSON(&j); err != nil {
		return nil, nil, err
	}
	if err := rep.WriteCSV(&c); err != nil {
		return nil, nil, err
	}
	return j.Bytes(), c.Bytes(), nil
}

// characterize identifies the anchor device's models at baseSeed, exactly
// as an engine that characterizes lazily would.
func characterize(ctx context.Context, e *env) (*sim.Runner, *sim.Characterization, error) {
	sp := e.sp.child("setup.characterize")
	defer sp.end()
	runner := sim.NewRunner()
	models, err := runner.Characterize(ctx, baseSeed)
	return runner, models, err
}

// runFleet is one in-process fleet op: run, then render both exports.
func runFleet(ctx context.Context, eng *fleet.Engine, spec fleet.Spec, sp spanRef) (result, error) {
	failed := result{cells: spec.N, failed: spec.N}
	if sp.traced() {
		first := true
		eng.OnCellDone = func(p fleet.Progress) {
			if first {
				sp.mark("fleet.first_cell")
				first = false
			}
			if p.Cached {
				sp.count("cached", 1)
			}
		}
		defer func() { eng.OnCellDone = nil }()
	}
	run := sp.child("fleet.run")
	rep, err := eng.Run(ctx, spec)
	run.end()
	if err != nil {
		return failed, err
	}
	r := sp.child("fleet.render")
	j, c, err := render(rep)
	r.end()
	if err != nil {
		return failed, err
	}
	return result{json: j, csv: c, cells: rep.Cells, failed: rep.Cells - rep.Completed}, nil
}

func setupFleetCold(ctx context.Context, e *env) (*instance, error) {
	runner, models, err := characterize(ctx, e)
	if err != nil {
		return nil, err
	}
	eng := &fleet.Engine{Workers: nproc(), Runner: runner, Models: models, BaseSeed: baseSeed}
	// The reference path: one worker, scalar kernel.
	ref := &fleet.Engine{Workers: 1, BatchSize: 1, Runner: runner, Models: models, BaseSeed: baseSeed}
	period := e.cfg.period
	spec := func(i int) fleet.Spec {
		return fleet.Spec{
			N:              e.cfg.coldN,
			Platforms:      allPlatforms(),
			AmbientJitterC: 5,
			TMaxC:          tmax(e.seed, "fleet-cold", inputIndex(i, period)),
		}
	}
	st := &stream{
		name: "main", latency: true, period: period,
		op: func(ctx context.Context, i int, sp spanRef) (result, error) {
			return runFleet(ctx, eng, spec(i), sp)
		},
		oracle: func(ctx context.Context, i int) (result, error) {
			return runFleet(ctx, ref, spec(i), spanRef{})
		},
	}
	return &instance{streams: []*stream{st}, close: func() {}}, nil
}

func setupFleetWarm(ctx context.Context, e *env) (*instance, error) {
	runner, models, err := characterize(ctx, e)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(e.dir, "fleet-warm-")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	eng := &fleet.Engine{Workers: nproc(), Runner: runner, Models: models, BaseSeed: baseSeed, Store: st}
	spec := fleet.Spec{N: e.cfg.warmN, Platforms: allPlatforms(), AmbientJitterC: 5, TMaxC: tmax(e.seed, "fleet-warm", 0)}
	sp := e.sp.child("setup.prefill")
	prefill, err := runFleet(ctx, eng, spec, spanRef{})
	sp.end()
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("prefill: %w", err)
	}
	s := &stream{
		name: "main", latency: true, period: 1,
		op: func(ctx context.Context, i int, sp spanRef) (result, error) {
			return runFleet(ctx, eng, spec, sp)
		},
		// A warm op must reproduce the cold run that filled the store.
		oracle: func(context.Context, int) (result, error) { return prefill, nil },
	}
	return &instance{
		streams:    []*stream{s},
		storeStats: st.Stats,
		close:      func() { os.RemoveAll(dir) },
	}, nil
}

func setupCampaignGrid(ctx context.Context, e *env) (*instance, error) {
	runner, models, err := characterize(ctx, e)
	if err != nil {
		return nil, err
	}
	eng := &campaign.Engine{Workers: nproc(), Runner: runner, Models: models, BaseSeed: baseSeed}
	ref := &campaign.Engine{Workers: 1, Runner: runner, Models: models, BaseSeed: baseSeed}
	benches := workload.Names()[:e.cfg.benches]
	period := e.cfg.period
	grid := func(i int) campaign.Grid {
		k := inputIndex(i, period)
		return campaign.Grid{
			Policies:   sim.Policies(),
			Benchmarks: benches,
			Seeds: []int64{
				int64(draw(e.seed, "campaign-grid/a", k) * (1 << 40)),
				int64(draw(e.seed, "campaign-grid/b", k) * (1 << 40)),
			},
		}
	}
	run := func(ctx context.Context, eng *campaign.Engine, g campaign.Grid, sp spanRef) (result, error) {
		n := g.Size()
		if sp.traced() {
			eng.OnCellDone = func(done, _ int, r campaign.CellResult) {
				if done == 1 {
					sp.mark("campaign.first_cell")
				}
				if r.Cached {
					sp.count("cached", 1)
				}
			}
			defer func() { eng.OnCellDone = nil }()
		}
		rs := sp.child("campaign.run")
		rep, err := eng.RunContext(ctx, g)
		rs.end()
		if err != nil {
			return result{cells: n, failed: n}, err
		}
		r := sp.child("campaign.render")
		j, c, err := render(rep)
		r.end()
		if err != nil {
			return result{cells: n, failed: n}, err
		}
		return result{json: j, csv: c, cells: len(rep.Cells), failed: len(rep.Failures())}, nil
	}
	s := &stream{
		name: "main", latency: true, period: period,
		op: func(ctx context.Context, i int, sp spanRef) (result, error) {
			return run(ctx, eng, grid(i), sp)
		},
		oracle: func(ctx context.Context, i int) (result, error) {
			return run(ctx, ref, grid(i), spanRef{})
		},
	}
	return &instance{streams: []*stream{s}, close: func() {}}, nil
}

// daemonOp is one thin-client op: submit, follow the stream to its done
// event, then fetch both rendered exports.
func daemonOp(ctx context.Context, cl *client.Client, spec fleet.Spec, sp spanRef) (result, error) {
	failed := result{cells: spec.N, failed: spec.N}
	raw, err := json.Marshal(spec)
	if err != nil {
		return failed, err
	}
	sub := sp.child("client.submit")
	info, err := cl.SubmitFleet(withSpan(ctx, sub), controlapi.SubmitRequest{Spec: raw, Seed: baseSeed})
	sub.end()
	if err != nil {
		return failed, err
	}
	fol := sp.child("client.follow")
	events := 0
	done, err := cl.Follow(withSpan(ctx, fol), info.ID, 0, func(ev controlapi.Event) error {
		if ev.Type != controlapi.EventProgress {
			return nil
		}
		if events == 0 {
			sp.mark("client.first_event")
		}
		events++
		if ev.Cached {
			sp.count("cached", 1)
		}
		return nil
	})
	fol.end()
	sp.count("events", int64(events))
	if err != nil {
		return failed, err
	}
	if done.State != controlapi.StateSucceeded {
		return failed, fmt.Errorf("run %s ended %s: %s", info.ID, done.State, done.RunErr)
	}
	rep := sp.child("client.report")
	defer rep.end()
	j, err := cl.Report(withSpan(ctx, rep), info.ID, "json")
	if err != nil {
		return failed, err
	}
	c, err := cl.Report(withSpan(ctx, rep), info.ID, "csv")
	if err != nil {
		return failed, err
	}
	return result{json: j, csv: c, cells: spec.N, failed: done.Failures}, nil
}

func setupDaemonMixed(ctx context.Context, e *env) (*instance, error) {
	dir, err := os.MkdirTemp(e.dir, "daemon-")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	boot := e.sp.child("setup.boot")
	// The daemon retains the last 16 terminal runs instead of its default
	// 512, so its run history is full within the window's first second and
	// the memory a run measures does not grow with how many ops it fits:
	// with the default, a faster commit would read as more memory.
	srv := server.New(server.Config{Workers: nproc(), Store: st, HistoryLimit: 16})
	handler := srv.Handler()
	if e.tr != nil {
		handler = e.tr.middleware(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	hs := &http.Server{Handler: handler}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	transport := &http.Transport{}
	var rt http.RoundTripper = transport
	if e.tr != nil {
		rt = stampTransport{base: transport}
	}
	newClient := func(tenant string) *client.Client {
		cl := client.New(ln.Addr().String())
		cl.Tenant = tenant
		cl.HTTP = &http.Client{Transport: rt}
		return cl
	}
	boot.end()
	closeAll := func() {
		dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Drain(dctx)
		_ = hs.Shutdown(dctx)
		<-served
		transport.CloseIdleConnections()
		os.RemoveAll(dir)
	}

	// The oracle is the in-process engine the daemon's exports must match.
	runner, models, err := characterize(ctx, e)
	if err != nil {
		closeAll()
		return nil, err
	}
	ref := &fleet.Engine{Workers: nproc(), Runner: runner, Models: models, BaseSeed: baseSeed}

	interactive := newClient("interactive")
	warmSpec := fleet.Spec{N: e.cfg.interactiveN, AmbientJitterC: 5, TMaxC: tmax(e.seed, "daemon-mixed/interactive", 0)}
	sp := e.sp.child("setup.prefill")
	_, err = daemonOp(ctx, interactive, warmSpec, spanRef{})
	sp.end()
	if err != nil {
		closeAll()
		return nil, fmt.Errorf("prefill: %w", err)
	}
	sweep := newClient("sweep")
	// Sweep inputs never repeat: a repeated spec would be served warm from
	// the store. The new constraint, not a new base seed, keeps the
	// daemon on its one resident engine.
	sweepSpec := func(i int) fleet.Spec {
		return fleet.Spec{
			N:              e.cfg.sweepN,
			Platforms:      allPlatforms(),
			AmbientJitterC: 5,
			TMaxC:          tmax(e.seed, "daemon-mixed/sweep", i),
		}
	}
	streams := []*stream{
		{
			name: "interactive", latency: true, period: 1,
			op: func(ctx context.Context, i int, sp spanRef) (result, error) {
				return daemonOp(ctx, interactive, warmSpec, sp)
			},
			oracle: func(ctx context.Context, i int) (result, error) {
				return runFleet(ctx, ref, warmSpec, spanRef{})
			},
		},
		{
			name: "sweep",
			op: func(ctx context.Context, i int, sp spanRef) (result, error) {
				return daemonOp(ctx, sweep, sweepSpec(i), sp)
			},
			oracle: func(ctx context.Context, i int) (result, error) {
				return runFleet(ctx, ref, sweepSpec(i), spanRef{})
			},
		},
	}
	return &instance{streams: streams, storeStats: st.Stats, close: closeAll}, nil
}
