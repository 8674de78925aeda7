// Package soak is the long-run stress harness of the repo: a seeded, fully
// reproducible randomized traffic generator that drives mixed fleet,
// campaign, session, and trace-replay load against both the in-process
// engines and a live daemon (internal/server behind a real TCP listener,
// spoken to through internal/client), with concurrent tenants submitting,
// detaching, reattaching, cancelling, and resubmitting runs.
//
// Traffic runs in windows. After every window the harness quiesces and
// asserts the three resident-process invariants a daemon must hold for
// hours, not just for one test:
//
//   - no goroutine growth: the post-quiesce goroutine count returns to the
//     baseline captured after the warmup window;
//   - no memory drift: post-GC HeapAlloc stays within a configured envelope
//     of the warmup baseline (this is what the server's bounded run-history
//     retention exists for — with unbounded retention every window's event
//     logs and reports accumulate and this check fails);
//   - no determinism drift: a pinned probe spec run in the first window and
//     re-run in the last produces byte-identical JSON and CSV exports, and
//     the first window's daemon exports are byte-identical to the
//     in-process engine's.
//
// The same seed replays the same op sequence per (window, tenant), so a
// failure reproduces from its logged seed. Everything is configurable from
// the environment (FromEnv / the SOAK_* variables `make soak` and
// `make soak-smoke` set), profiles are captured on demand (SOAK_PPROF),
// and each run archives a timestamped result artifact with host provenance
// under benchmarks/results via internal/hostinfo — the same provenance
// format the benchmark recorder writes.
package soak

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/hostinfo"
	"repro/internal/server"
	"repro/internal/store"
)

// Defaults for the zero Config — the `make soak-smoke` shape: small enough
// for CI, large enough that the invariants mean something (60 randomized
// ops across 5 windows).
const (
	DefaultWindows      = 5
	DefaultTenants      = 3
	DefaultOpsPerTenant = 4
	DefaultFleetN       = 2
	// DefaultHistoryLimit is the daemon retention cap the soak runs under —
	// deliberately small so eviction happens constantly and the memory
	// invariant actually exercises it.
	DefaultHistoryLimit = 16
	// DefaultGoroutineSlack tolerates runtime-internal stragglers (GC
	// workers, timer goroutines) above the baseline.
	DefaultGoroutineSlack = 3
	// DefaultHeapGrowFrac / DefaultHeapSlackBytes bound post-GC HeapAlloc
	// against the warmup baseline: alloc <= base*(1+frac) + slack. The
	// slack absorbs allocator and race-detector noise on small heaps.
	DefaultHeapGrowFrac   = 0.5
	DefaultHeapSlackBytes = 16 << 20
)

// probeSeed pins the determinism probe: a spec submitted in the first and
// last windows whose exports must match byte for byte.
const probeSeed = 424242

// Config parameterizes one soak run. The zero value runs the smoke shape.
type Config struct {
	// Seed fixes every random choice; the same seed replays the same op
	// sequence per (window, tenant).
	Seed int64
	// Windows is the number of traffic windows (>= 2: the first is the
	// warmup that sets the leak baselines).
	Windows int
	// Tenants is the number of concurrent tenants per window, each with its
	// own client identity against the daemon.
	Tenants int
	// OpsPerTenant is how many randomized ops each tenant performs per
	// window.
	OpsPerTenant int
	// FleetN sizes generated fleet specs (cells per fleet).
	FleetN int
	// HistoryLimit is the daemon's terminal-run retention cap for this soak.
	HistoryLimit int
	// ResultDir, when set, receives the timestamped result artifact (and
	// any requested profiles).
	ResultDir string
	// Pprof requests profile capture: "heap", "cpu", or "heap:cpu".
	// Profiles land in ResultDir next to the artifact.
	Pprof string
	// Log receives progress lines (nil = discard).
	Log io.Writer

	// GoroutineSlack, HeapGrowFrac, HeapSlackBytes tune the invariant
	// tolerances (0 = the defaults above).
	GoroutineSlack int
	HeapGrowFrac   float64
	HeapSlackBytes uint64
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Windows <= 0 {
		c.Windows = DefaultWindows
	}
	if c.Windows < 2 {
		c.Windows = 2
	}
	if c.Tenants <= 0 {
		c.Tenants = DefaultTenants
	}
	if c.OpsPerTenant <= 0 {
		c.OpsPerTenant = DefaultOpsPerTenant
	}
	if c.FleetN <= 0 {
		c.FleetN = DefaultFleetN
	}
	if c.HistoryLimit == 0 {
		c.HistoryLimit = DefaultHistoryLimit
	}
	if c.Log == nil {
		c.Log = io.Discard
	}
	if c.GoroutineSlack <= 0 {
		c.GoroutineSlack = DefaultGoroutineSlack
	}
	if c.HeapGrowFrac <= 0 {
		c.HeapGrowFrac = DefaultHeapGrowFrac
	}
	if c.HeapSlackBytes == 0 {
		c.HeapSlackBytes = DefaultHeapSlackBytes
	}
	return c
}

// FromEnv builds a Config from the SOAK_* environment variables the
// Makefile targets set: SOAK_SEED, SOAK_WINDOWS, SOAK_TENANTS, SOAK_OPS,
// SOAK_RESULT_DIR, SOAK_PPROF. Unset variables keep the smoke defaults.
func FromEnv() Config {
	cfg := Config{
		ResultDir: os.Getenv("SOAK_RESULT_DIR"),
		Pprof:     os.Getenv("SOAK_PPROF"),
	}
	envInt := func(name string, dst *int) {
		if v, err := strconv.Atoi(os.Getenv(name)); err == nil {
			*dst = v
		}
	}
	if v, err := strconv.ParseInt(os.Getenv("SOAK_SEED"), 10, 64); err == nil {
		cfg.Seed = v
	}
	envInt("SOAK_WINDOWS", &cfg.Windows)
	envInt("SOAK_TENANTS", &cfg.Tenants)
	envInt("SOAK_OPS", &cfg.OpsPerTenant)
	return cfg
}

// WindowStats is one traffic window's post-quiesce measurement.
type WindowStats struct {
	Window     int    `json:"window"`
	Ops        int    `json:"ops"`
	Runs       int    `json:"runs"`
	Goroutines int    `json:"goroutines"`
	HeapAlloc  uint64 `json:"heap_alloc"`
	Retained   int    `json:"retained"`
	Evicted    uint64 `json:"evicted"`
}

// Result is the outcome of one soak run — what the timestamped artifact
// archives (wrapped with host provenance).
type Result struct {
	Seed         int64 `json:"seed"`
	Windows      int   `json:"windows"`
	Tenants      int   `json:"tenants"`
	OpsPerTenant int   `json:"ops_per_tenant"`

	// Ops counts completed randomized ops; Runs the daemon runs driven to a
	// terminal state; Cancelled / Reattached / NotFound the respective
	// protocol paths exercised; StoreHits cells served from the shared
	// store (warm resubmission working).
	Ops        int    `json:"ops"`
	Runs       int    `json:"runs"`
	Cancelled  int    `json:"cancelled"`
	Reattached int    `json:"reattached"`
	NotFound   int    `json:"not_found"`
	StoreHits  uint64 `json:"store_hits"`

	// The leak baselines (after the warmup window) and the final readings.
	GoroutineBaseline int    `json:"goroutine_baseline"`
	GoroutineFinal    int    `json:"goroutine_final"`
	HeapBaseline      uint64 `json:"heap_baseline"`
	HeapFinal         uint64 `json:"heap_final"`

	// ProbeBytes is the pinned probe's export size; ProbeStable reports the
	// first-window and last-window exports were byte-identical.
	ProbeBytes  int  `json:"probe_bytes"`
	ProbeStable bool `json:"probe_stable"`

	WindowStats []WindowStats `json:"window_stats"`

	// ArtifactPath is where the provenance artifact was written ("" when
	// ResultDir was unset). Not part of the artifact itself.
	ArtifactPath string `json:"-"`
}

// artifact is the archived file shape: the same recorded_at/host header the
// benchmark recorder (cmd/benchjson -record) writes, with the soak result
// as payload.
type artifact struct {
	RecordedAt string         `json:"recorded_at"`
	Host       *hostinfo.Host `json:"host"`
	Soak       *Result        `json:"soak"`
}

// Run executes one soak: start a live daemon, drive cfg.Windows windows of
// randomized multi-tenant traffic, and check the leak/drift invariants
// after each. It returns the measured Result together with the first
// invariant violation (nil if all held); the artifact is written either
// way, so a failing run still leaves its evidence.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	res := &Result{Seed: cfg.Seed, Windows: cfg.Windows, Tenants: cfg.Tenants, OpsPerTenant: cfg.OpsPerTenant}
	logf := func(format string, args ...any) { fmt.Fprintf(cfg.Log, "soak: "+format+"\n", args...) }
	logf("seed=%d windows=%d tenants=%d ops/tenant=%d history-limit=%d",
		cfg.Seed, cfg.Windows, cfg.Tenants, cfg.OpsPerTenant, cfg.HistoryLimit)

	stamp := time.Now().UTC()
	stopCPU, err := startProfiles(cfg, stamp)
	if err != nil {
		return res, err
	}
	defer stopCPU()

	h, shutdown, err := newHarness(cfg)
	if err != nil {
		return res, err
	}
	defer shutdown()

	if err := h.prewarm(ctx); err != nil {
		return res, fmt.Errorf("soak: warmup: %w", err)
	}
	probeFirst, err := h.probe(ctx)
	if err != nil {
		return res, fmt.Errorf("soak: first probe: %w", err)
	}
	res.ProbeBytes = len(probeFirst)
	if err := h.probeMatchesInProcess(ctx, probeFirst); err != nil {
		return res, err
	}

	var violations []error
	for w := 0; w < cfg.Windows; w++ {
		if err := h.window(ctx, w); err != nil {
			return res, fmt.Errorf("soak: window %d (seed %d): %w", w, cfg.Seed, err)
		}
		goroutines, heap := h.quiesce(res.GoroutineBaseline + cfg.GoroutineSlack)
		ws := WindowStats{Window: w, Goroutines: goroutines, HeapAlloc: heap}
		ws.Ops, ws.Runs = h.windowCounts()
		if hh, err := h.adminClient().Health(ctx); err == nil {
			ws.Retained, ws.Evicted = hh.Retained, hh.Evicted
		}
		res.WindowStats = append(res.WindowStats, ws)
		logf("window %d: ops=%d runs=%d goroutines=%d heap=%.1fMB retained=%d evicted=%d",
			w, ws.Ops, ws.Runs, goroutines, float64(heap)/(1<<20), ws.Retained, ws.Evicted)

		if w == 0 {
			// The warmup window sets the baselines: resident engines built,
			// caches filled, connections pooled.
			res.GoroutineBaseline, res.HeapBaseline = goroutines, heap
			continue
		}
		if max := res.GoroutineBaseline + cfg.GoroutineSlack; goroutines > max {
			violations = append(violations, fmt.Errorf(
				"soak: goroutine leak after window %d: %d goroutines, baseline %d (+%d slack)",
				w, goroutines, res.GoroutineBaseline, cfg.GoroutineSlack))
		}
		if max := uint64(float64(res.HeapBaseline)*(1+cfg.HeapGrowFrac)) + cfg.HeapSlackBytes; heap > max {
			violations = append(violations, fmt.Errorf(
				"soak: memory drift after window %d: HeapAlloc %d, baseline %d (envelope %d)",
				w, heap, res.HeapBaseline, max))
		}
	}
	res.GoroutineFinal, res.HeapFinal = h.quiesce(res.GoroutineBaseline + cfg.GoroutineSlack)

	probeLast, err := h.probe(ctx)
	if err != nil {
		return res, fmt.Errorf("soak: final probe: %w", err)
	}
	res.ProbeStable = string(probeFirst) == string(probeLast)
	if !res.ProbeStable {
		violations = append(violations, fmt.Errorf(
			"soak: determinism drift: probe exports differ between window 0 and window %d (%d vs %d bytes)",
			cfg.Windows-1, len(probeFirst), len(probeLast)))
	}
	res.Ops, res.Runs, res.Cancelled, res.Reattached, res.NotFound, res.StoreHits = h.totals()

	stopCPU()
	if err := writeHeapProfile(cfg, stamp); err != nil {
		violations = append(violations, err)
	}
	if cfg.ResultDir != "" {
		path, err := hostinfo.WriteTimestamped(cfg.ResultDir, "soak", stamp, artifact{
			RecordedAt: stamp.Format(time.RFC3339),
			Host:       hostinfo.Collect(),
			Soak:       res,
		})
		if err != nil {
			violations = append(violations, fmt.Errorf("soak: writing artifact: %w", err))
		}
		res.ArtifactPath = path
		logf("artifact %s", path)
	}
	logf("done: ops=%d runs=%d cancelled=%d reattached=%d not_found=%d store-hits=%d probe-stable=%v",
		res.Ops, res.Runs, res.Cancelled, res.Reattached, res.NotFound, res.StoreHits, res.ProbeStable)
	return res, errors.Join(violations...)
}

// newHarness stands up the live side of the soak — a real daemon on a real
// TCP listener with a fresh store, plus the shared HTTP transport every
// tenant client pools connections through — and returns its teardown.
func newHarness(cfg Config) (*harness, func(), error) {
	if err := registerIdle(); err != nil {
		return nil, nil, err
	}
	storeDir, err := os.MkdirTemp("", "repro-soak-store-")
	if err != nil {
		return nil, nil, err
	}
	st, err := store.Open(storeDir)
	if err != nil {
		os.RemoveAll(storeDir)
		return nil, nil, err
	}
	srv := server.New(server.Config{
		Store:      st,
		MaxActive:  2,
		QueueDepth: cfg.Tenants*cfg.OpsPerTenant + 8, // soak probes backpressure elsewhere; don't 429 the generator
		// The small cap plus no TTL makes eviction constant and
		// deterministic traffic-wise (age never matters).
		HistoryLimit: cfg.HistoryLimit,
		HistoryTTL:   -1,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(storeDir)
		return nil, nil, err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)

	h := &harness{
		cfg:       cfg,
		addr:      "http://" + ln.Addr().String(),
		transport: &http.Transport{},
	}
	shutdown := func() {
		drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Drain(drainCtx)
		httpSrv.Shutdown(drainCtx)
		h.transport.CloseIdleConnections()
		os.RemoveAll(storeDir)
	}
	return h, shutdown, nil
}

// quiesce settles the process after a window: close pooled connections,
// then GC-and-recount until the goroutine count drops to the target (or
// stops improving), so per-connection HTTP goroutines and finished run
// goroutines get their grace period without a fixed sleep budget. Returns
// the settled goroutine count and post-GC HeapAlloc.
func (h *harness) quiesce(target int) (int, uint64) {
	h.transport.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	prev, stable := int(^uint(0)>>1), 0
	goroutines := runtime.NumGoroutine()
	for time.Now().Before(deadline) {
		runtime.GC()
		goroutines = runtime.NumGoroutine()
		if goroutines <= target {
			break
		}
		if goroutines >= prev {
			if stable++; stable >= 3 {
				break
			}
		} else {
			stable = 0
		}
		prev = goroutines
		time.Sleep(25 * time.Millisecond)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return goroutines, ms.HeapAlloc
}

// adminClient is the harness's own (tenant-less) client for health reads.
func (h *harness) adminClient() *client.Client {
	return h.client("")
}

func (h *harness) client(tenant string) *client.Client {
	cl := client.New(h.addr)
	cl.Tenant = tenant
	cl.HTTP = &http.Client{Transport: h.transport}
	return cl
}

// startProfiles begins the requested captures; the returned func stops the
// CPU profile (idempotent).
func startProfiles(cfg Config, stamp time.Time) (func(), error) {
	if cfg.ResultDir == "" || !profileRequested(cfg.Pprof, "cpu") {
		return func() {}, nil
	}
	if err := os.MkdirAll(cfg.ResultDir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(profilePath(cfg, stamp, "cpu"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}, nil
}

func writeHeapProfile(cfg Config, stamp time.Time) error {
	if cfg.ResultDir == "" || !profileRequested(cfg.Pprof, "heap") {
		return nil
	}
	if err := os.MkdirAll(cfg.ResultDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(profilePath(cfg, stamp, "heap"))
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.Lookup("heap").WriteTo(f, 0)
}

func profilePath(cfg Config, stamp time.Time, kind string) string {
	return cfg.ResultDir + "/" + stamp.Format(hostinfo.Stamp) + "-soak-" + kind + ".pprof"
}

// profileRequested reports whether kind appears in the colon-separated
// SOAK_PPROF list ("heap:cpu").
func profileRequested(list, kind string) bool {
	for _, k := range strings.Split(list, ":") {
		if k == kind {
			return true
		}
	}
	return false
}
