package soak

import (
	"context"
	"errors"
	"io"
	"os"
	"testing"
	"time"
)

func TestFromEnv(t *testing.T) {
	t.Setenv("SOAK_SEED", "99")
	t.Setenv("SOAK_WINDOWS", "7")
	t.Setenv("SOAK_TENANTS", "5")
	t.Setenv("SOAK_OPS", "9")
	t.Setenv("SOAK_RESULT_DIR", "/tmp/soak-out")
	t.Setenv("SOAK_PPROF", "heap:cpu")
	cfg := FromEnv()
	if cfg.Seed != 99 || cfg.Windows != 7 || cfg.Tenants != 5 || cfg.OpsPerTenant != 9 {
		t.Fatalf("FromEnv = %+v, want seed=99 windows=7 tenants=5 ops=9", cfg)
	}
	if cfg.ResultDir != "/tmp/soak-out" || cfg.Pprof != "heap:cpu" {
		t.Fatalf("FromEnv dirs = %q pprof = %q", cfg.ResultDir, cfg.Pprof)
	}

	// Unset / malformed variables keep the smoke defaults.
	t.Setenv("SOAK_SEED", "")
	t.Setenv("SOAK_WINDOWS", "not-a-number")
	t.Setenv("SOAK_TENANTS", "")
	t.Setenv("SOAK_OPS", "")
	cfg = FromEnv().withDefaults()
	if cfg.Seed != 1 || cfg.Windows != DefaultWindows || cfg.Tenants != DefaultTenants || cfg.OpsPerTenant != DefaultOpsPerTenant {
		t.Fatalf("FromEnv with empty env = %+v, want smoke defaults", cfg)
	}
}

func TestWithDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Seed != 1 || cfg.Windows != DefaultWindows || cfg.Tenants != DefaultTenants ||
		cfg.OpsPerTenant != DefaultOpsPerTenant || cfg.FleetN != DefaultFleetN ||
		cfg.HistoryLimit != DefaultHistoryLimit || cfg.Log == nil {
		t.Fatalf("zero Config resolved to %+v", cfg)
	}
	if cfg.GoroutineSlack != DefaultGoroutineSlack || cfg.HeapGrowFrac != DefaultHeapGrowFrac ||
		cfg.HeapSlackBytes != DefaultHeapSlackBytes {
		t.Fatalf("zero Config tolerances = %+v", cfg)
	}
	// A single window is promoted to two: the warmup window only sets
	// baselines, so one window would assert nothing.
	cfg = Config{Windows: 1}.withDefaults()
	if cfg.Windows != 2 {
		t.Fatalf("Windows=1 resolved to %d, want 2", cfg.Windows)
	}
	// Explicit settings survive.
	cfg = Config{Seed: 5, Windows: 9, Tenants: 1, OpsPerTenant: 1, FleetN: 3,
		HistoryLimit: -1, GoroutineSlack: 7, HeapGrowFrac: 0.1, HeapSlackBytes: 1, Log: io.Discard}.withDefaults()
	if cfg.Seed != 5 || cfg.Windows != 9 || cfg.FleetN != 3 || cfg.HistoryLimit != -1 ||
		cfg.GoroutineSlack != 7 || cfg.HeapGrowFrac != 0.1 || cfg.HeapSlackBytes != 1 {
		t.Fatalf("explicit Config resolved to %+v", cfg)
	}
}

func TestProfileRequested(t *testing.T) {
	for _, tc := range []struct {
		list, kind string
		want       bool
	}{
		{"", "heap", false},
		{"heap", "heap", true},
		{"heap", "cpu", false},
		{"heap:cpu", "cpu", true},
		{"cpu:heap", "heap", true},
		{"heapcpu", "heap", false},
	} {
		if got := profileRequested(tc.list, tc.kind); got != tc.want {
			t.Errorf("profileRequested(%q, %q) = %v, want %v", tc.list, tc.kind, got, tc.want)
		}
	}
}

func TestStartProfilesCPU(t *testing.T) {
	dir := t.TempDir()
	stamp := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	cfg := Config{ResultDir: dir, Pprof: "cpu"}.withDefaults()
	stop, err := startProfiles(cfg, stamp)
	if err != nil {
		t.Fatalf("startProfiles: %v", err)
	}
	stop()
	stop() // idempotent
	path := profilePath(cfg, stamp, "cpu")
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("cpu profile at %s: err=%v", path, err)
	}

	// No ResultDir or no cpu in the list: a no-op stop, no error.
	for _, cfg := range []Config{{Pprof: "cpu"}, {ResultDir: dir, Pprof: "heap"}} {
		stop, err := startProfiles(cfg.withDefaults(), stamp)
		if err != nil {
			t.Fatalf("startProfiles(%+v): %v", cfg, err)
		}
		stop()
	}
}

// TestDetachReattachOp drives the detach/reattach op directly against a
// live harness daemon: the randomized windows only draw it by chance, but
// the dense-sequence reattach check must hold every time it runs.
func TestDetachReattachOp(t *testing.T) {
	cfg := Config{Seed: 11, Tenants: 1, OpsPerTenant: 1}.withDefaults()
	h, shutdown, err := newHarness(cfg)
	if err != nil {
		t.Fatalf("newHarness: %v", err)
	}
	defer shutdown()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cl := h.client("detach-test")
	// A few rng draws in sequence: at least one detaches mid-run (after
	// fewer events than the fleet emits) and reattaches from the cursor.
	r := newRNG(cfg.Seed, 0, 0)
	for i := 0; i < 3; i++ {
		if err := h.opDetachReattach(ctx, cl, r); err != nil {
			t.Fatalf("opDetachReattach #%d: %v", i, err)
		}
	}
	h.mu.Lock()
	runs, reattached := h.runs, h.reattached
	h.mu.Unlock()
	if runs != 3 {
		t.Fatalf("runs = %d, want 3", runs)
	}
	if reattached == 0 {
		t.Fatalf("no op reattached; detach depth never fell inside the run")
	}
}

// TestStreamFaultOps drives the slow-consumer and dropped-stream ops
// directly against a live harness daemon: both stream a big fleet's
// coalesced progress, and each must end with the run succeeded and every
// cell counted.
func TestStreamFaultOps(t *testing.T) {
	cfg := Config{Seed: 13, Tenants: 1, OpsPerTenant: 1}.withDefaults()
	h, shutdown, err := newHarness(cfg)
	if err != nil {
		t.Fatalf("newHarness: %v", err)
	}
	defer shutdown()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cl := h.client("fault-test")
	r := newRNG(cfg.Seed, 0, 0)
	for i := 0; i < 2; i++ {
		if err := h.opSlowConsumer(ctx, cl, r); err != nil {
			t.Fatalf("opSlowConsumer #%d: %v", i, err)
		}
		if err := h.opDropStream(ctx, cl, r); err != nil {
			t.Fatalf("opDropStream #%d: %v", i, err)
		}
	}
	h.mu.Lock()
	runs := h.runs
	h.mu.Unlock()
	if runs != 4 {
		t.Fatalf("runs = %d, want 4", runs)
	}
}

func TestQuiesceSettles(t *testing.T) {
	cfg := Config{}.withDefaults()
	h, shutdown, err := newHarness(cfg)
	if err != nil {
		t.Fatalf("newHarness: %v", err)
	}
	defer shutdown()
	goroutines, heap := h.quiesce(1 << 30) // target trivially met: single pass
	if goroutines <= 0 || heap == 0 {
		t.Fatalf("quiesce = (%d, %d)", goroutines, heap)
	}
}

func TestWriteHeapProfileNoDir(t *testing.T) {
	if err := writeHeapProfile(Config{Pprof: "heap"}.withDefaults(), time.Now()); err != nil {
		t.Fatalf("writeHeapProfile without ResultDir: %v", err)
	}
	// Unwritable result dir surfaces the error instead of dropping it.
	bad := Config{ResultDir: "/proc/nonexistent/soak", Pprof: "heap"}.withDefaults()
	if err := writeHeapProfile(bad, time.Now()); err == nil {
		t.Fatalf("writeHeapProfile into unwritable dir: want error")
	}
}

func TestRunRejectsBadResultDir(t *testing.T) {
	// startProfiles fails fast when the result dir cannot be created.
	cfg := Config{ResultDir: "/proc/nonexistent/soak", Pprof: "cpu", Windows: 2, Tenants: 1, OpsPerTenant: 1}
	_, err := Run(context.Background(), cfg)
	if err == nil || errors.Is(err, context.Canceled) {
		t.Fatalf("Run with unwritable ResultDir: err=%v, want mkdir failure", err)
	}
}
