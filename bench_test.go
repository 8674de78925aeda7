package repro

// The benchmark harness: one testing.B target per table and figure of the
// paper. Each target regenerates its artifact from the simulated platform
// and logs the report rows on the first iteration, so
//
//	go test -bench=. -benchmem
//
// both times the regeneration and reprints every row/series the paper
// reports. EXPERIMENTS.md records the paper-vs-measured comparison.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/dtpm"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/kernel"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/sensor"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/sysid"
	"repro/internal/thermal"
	"repro/internal/workload"
)

var (
	benchCtxOnce sync.Once
	benchCtx     *experiments.Context
	benchCtxErr  error
)

func benchContext(b *testing.B) *experiments.Context {
	b.Helper()
	benchCtxOnce.Do(func() {
		benchCtx, benchCtxErr = experiments.NewContext(context.Background(), 1)
	})
	if benchCtxErr != nil {
		b.Fatalf("characterization: %v", benchCtxErr)
	}
	return benchCtx
}

// benchArtifact regenerates one paper artifact per iteration.
func benchArtifact(b *testing.B, id string) {
	b.Helper()
	ctx := benchContext(b)
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		rep, err := e.Run(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + rep.String())
		}
	}
}

func BenchmarkFig1_1_FanVsNoFan(b *testing.B)                { benchArtifact(b, "fig1.1") }
func BenchmarkTable6_1_BigFreqTable(b *testing.B)            { benchArtifact(b, "tab6.1") }
func BenchmarkTable6_2_LittleFreqTable(b *testing.B)         { benchArtifact(b, "tab6.2") }
func BenchmarkTable6_3_GPUFreqTable(b *testing.B)            { benchArtifact(b, "tab6.3") }
func BenchmarkFig4_2_FurnaceSweep(b *testing.B)              { benchArtifact(b, "fig4.2") }
func BenchmarkFig4_3_LeakageVsTemp(b *testing.B)             { benchArtifact(b, "fig4.3") }
func BenchmarkFig4_5_PowerVsTemp(b *testing.B)               { benchArtifact(b, "fig4.5") }
func BenchmarkFig4_6_PowerVsFreq(b *testing.B)               { benchArtifact(b, "fig4.6") }
func BenchmarkFig4_7_PowerModelValidation(b *testing.B)      { benchArtifact(b, "fig4.7") }
func BenchmarkFig4_8_PRBS(b *testing.B)                      { benchArtifact(b, "fig4.8") }
func BenchmarkFig4_9_ThermalValidationBlowfish(b *testing.B) { benchArtifact(b, "fig4.9") }
func BenchmarkFig4_10_PredictionHorizon(b *testing.B)        { benchArtifact(b, "fig4.10") }
func BenchmarkTable6_4_Benchmarks(b *testing.B)              { benchArtifact(b, "tab6.4") }
func BenchmarkFig6_2_PredictionErrorAll(b *testing.B)        { benchArtifact(b, "fig6.2") }
func BenchmarkFig6_3_TempControlTemplerun(b *testing.B)      { benchArtifact(b, "fig6.3") }
func BenchmarkFig6_4_TempControlBasicmath(b *testing.B)      { benchArtifact(b, "fig6.4") }
func BenchmarkFig6_5_ThermalStability(b *testing.B)          { benchArtifact(b, "fig6.5") }
func BenchmarkFig6_6_Dijkstra(b *testing.B)                  { benchArtifact(b, "fig6.6") }
func BenchmarkFig6_7_Patricia(b *testing.B)                  { benchArtifact(b, "fig6.7") }
func BenchmarkFig6_8_MatrixMult(b *testing.B)                { benchArtifact(b, "fig6.8") }
func BenchmarkFig6_9_PowerPerfSummary(b *testing.B)          { benchArtifact(b, "fig6.9") }
func BenchmarkFig6_10_MultiThreaded(b *testing.B)            { benchArtifact(b, "fig6.10") }
func BenchmarkFig7_1_BudgetDistribution(b *testing.B)        { benchArtifact(b, "fig7.1") }

// BenchmarkSimCell times one full simulation cell — the unit of work the
// campaign engine fans out — under the cheapest policy (no controller).
// Run with -benchmem: the per-step buffers in sim.Run are preallocated and
// reused, so allocs/op must stay flat in the step count.
func BenchmarkSimCell(b *testing.B) {
	ctx := benchContext(b)
	bench, err := workload.ByName("dijkstra")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.Runner.Run(context.Background(), sim.Options{
			Policy: sim.PolicyNoFan, Bench: bench, Seed: 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimCellDTPM is the same cell under the predictive controller,
// covering the dtpm.Controller.Update and ThermalModel prediction hot path.
func BenchmarkSimCellDTPM(b *testing.B) {
	ctx := benchContext(b)
	bench, err := workload.ByName("dijkstra")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.Runner.Run(context.Background(), sim.Options{
			Policy: sim.PolicyDTPM, Bench: bench, Seed: 1,
			Model: ctx.Char.Thermal, PowerModel: ctx.Char.Power,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamingRun is BenchmarkSimCell through the streaming session
// API: the same cell started with Device.Start and consumed sample by
// sample over the live iterator. The delta against BenchmarkSimCell is the
// full cost of streaming (session setup, one goroutine, one unbuffered
// channel handoff per control interval); allocs/op is gated like the other
// hot loops because the per-sample path must not allocate.
func BenchmarkStreamingRun(b *testing.B) {
	ctx := benchContext(b)
	dev := &Device{r: ctx.Runner}
	spec := NewSpec(
		WithBenchmark("dijkstra"),
		WithPolicy(WithoutFan),
		WithSeed(1),
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		session, err := dev.Start(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for range session.Samples() {
			n++
		}
		if _, err := session.Result(); err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			b.Fatal("no samples streamed")
		}
	}
}

// BenchmarkFleetCell times one virtual device of a fleet population as a
// one-device fleet run on one worker: the unit of work the fleet engine
// fans out (derive the cell's configuration, compile its perturbed
// scenario, run it under DTPM as a width-1 batch, fold every control
// interval into the online aggregators, no trace retained) plus the run's
// fixed cost (planner, collector, a one-group report). The per-sample fold
// must not allocate, so allocs/op is gated like the other hot loops. One
// untimed run first fills the arena and aggregator pools, so the count is
// the steady state: per-cell setup and the run's fixed cost, never a
// per-interval term.
func BenchmarkFleetCell(b *testing.B) {
	ctx := benchContext(b)
	eng := &fleet.Engine{Workers: 1, Runner: ctx.Runner, Models: ctx.Char, BaseSeed: 1}
	spec := fleet.Spec{
		N:              1,
		Policy:         "dtpm",
		Scenarios:      []fleet.Weight{{Name: "cold-start", Weight: 1}},
		AmbientJitterC: 5,
	}
	if _, err := eng.Run(context.Background(), spec); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := eng.Run(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Completed != 1 {
			b.Fatal("cell did not complete")
		}
	}
}

// BenchmarkFleetThroughput is the headline fleet-scaling number: a 64-cell
// single-platform population under DTPM, run once per iteration, reported
// as devices simulated per second. The two sub-benchmarks run the very
// same population — /scalar forces BatchSize 1 (the per-cell oracle path),
// /batched uses the engine's default lock-step batch width — so their
// devices/sec ratio measures the batched SoA kernel's speedup on this
// host, independent of what this host is. CI gates that ratio with
// `benchjson -min-speedup`; the two runs must stay same-shape for the
// ratio to mean anything, so change them together or not at all.
func BenchmarkFleetThroughput(b *testing.B) {
	ctx := benchContext(b)
	spec := fleet.Spec{
		N:              64,
		Policy:         "dtpm",
		Scenarios:      []fleet.Weight{{Name: "cold-start", Weight: 1}},
		AmbientJitterC: 5,
	}
	run := func(b *testing.B, batchSize int) {
		// Workers: 1 so the metric isolates kernel throughput, not host
		// parallelism: both paths fan out across the same pool, and the
		// ratio gate needs the single-worker per-device cost.
		eng := &fleet.Engine{Workers: 1, Runner: ctx.Runner, Models: ctx.Char, BaseSeed: 1, BatchSize: batchSize}
		// One untimed run first: the arena/aggregator pools fill and the
		// scenario/workload caches warm, so allocs/op and B/op measure the
		// steady state the CI gates pin — identical at -benchtime 1x or 100x
		// — rather than one-time warm-up amortized over however many
		// iterations this run happened to get.
		if _, err := eng.Run(context.Background(), spec); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep, err := eng.Run(context.Background(), spec)
			if err != nil {
				b.Fatal(err)
			}
			if rep.Completed != spec.N {
				b.Fatalf("only %d/%d cells completed", rep.Completed, spec.N)
			}
		}
		b.ReportMetric(float64(spec.N*b.N)/b.Elapsed().Seconds(), "devices/sec")
	}
	b.Run("scalar", func(b *testing.B) { run(b, 1) })
	b.Run("batched", func(b *testing.B) { run(b, 0) })
}

// BenchmarkFleetWarm is the in-process warm end-to-end number: a
// 1024-device fleet over the whole scenario library, every cell served
// from a temp store that a cold run prefilled outside the timer, reported
// as cells served per second. No cell simulates, so the op is the store
// lookup path — key digest, entry read, header verify, payload decode —
// plus the merge and the report. B/op is gated (MAX_WARM_BYTES): per-hit
// garbage is a property of the decode path, not the host.
func BenchmarkFleetWarm(b *testing.B) {
	ctx := benchContext(b)
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	spec := fleet.Spec{N: 1024, Policy: "dtpm", ControlPeriodS: 0.5, AmbientJitterC: 5}
	eng := &fleet.Engine{Runner: ctx.Runner, Models: ctx.Char, BaseSeed: 1, Store: st}
	// The cold prefill, then one untimed warm run so the aggregator pool
	// is filled and B/op is the steady state.
	for i := 0; i < 2; i++ {
		if _, err := eng.Run(context.Background(), spec); err != nil {
			b.Fatal(err)
		}
	}
	before := st.Stats()
	if _, err := eng.Run(context.Background(), spec); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := eng.Run(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Completed != spec.N {
			b.Fatalf("only %d/%d cells completed", rep.Completed, spec.N)
		}
	}
	b.StopTimer()
	if after := st.Stats(); after.Misses != before.Misses {
		b.Fatalf("warm runs missed the store %d times", after.Misses-before.Misses)
	}
	b.ReportMetric(float64(spec.N*b.N)/b.Elapsed().Seconds(), "cells/sec")
}

// warmEntry prefills a temp store with the fleet-cell entry of one real
// device and returns the store, the entry's key and its payload.
func warmEntry(b *testing.B) (*store.Store, store.Digest, []byte) {
	b.Helper()
	ctx := benchContext(b)
	dir := b.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	eng := &fleet.Engine{Workers: 1, Runner: ctx.Runner, Models: ctx.Char, BaseSeed: 1, Store: st}
	if _, err := eng.Run(context.Background(), fleet.Spec{N: 1, Policy: "dtpm", ControlPeriodS: 0.5}); err != nil {
		b.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "objects", "*", "*.entry"))
	if err != nil || len(paths) != 1 {
		b.Fatalf("want one fleet-cell entry, found %d (%v)", len(paths), err)
	}
	var key store.Digest
	if _, err := hex.Decode(key[:], []byte(strings.TrimSuffix(filepath.Base(paths[0]), ".entry"))); err != nil {
		b.Fatal(err)
	}
	payload, ok := st.Get(key)
	if !ok {
		b.Fatal("prefilled entry missed")
	}
	return st, key, payload
}

// BenchmarkStoreDecode times one warm store hit below the fleet: open,
// read and close the entry file of a real fleet-cell, verify its header
// and payload hash, and hand the payload to a callback that keeps nothing.
func BenchmarkStoreDecode(b *testing.B) {
	st, key, _ := warmEntry(b)
	keep := func([]byte) error { return nil }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !st.Decode(key, keep) {
			b.Fatal("warm entry missed")
		}
	}
}

// BenchmarkStorePut times persisting one real fleet-cell payload: header,
// temp file, write, rename into its shard. The keys cycle through 64
// addresses, each written once before the timer, so every timed Put
// replaces an identical entry.
func BenchmarkStorePut(b *testing.B) {
	st, _, payload := warmEntry(b)
	keys := make([]store.Digest, 64)
	for i := range keys {
		keys[i] = sha256.Sum256([]byte{byte(i)})
		if err := st.Put(keys[i], payload); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Put(keys[i%len(keys)], payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetWorkerScaling measures how fleet throughput scales with
// the shared scheduler's worker count: the same 256-cell population at
// 1, 2, 4, ... workers up to GOMAXPROCS, reported as devices/sec per
// width; at GOMAXPROCS 1 there is no curve, and it skips as "unmeasured
// (1 CPU)". Near-linear scaling is the scheduler contract (work is handed
// out from a shared counter; the only serialization points are the
// planner's hand-out lock and the collector's merge lock). Not part of
// any CI gate — shared-runner parallelism is too noisy to threshold — but
// the recorded artifacts keep the curve inspectable over time.
func BenchmarkFleetWorkerScaling(b *testing.B) {
	if runtime.GOMAXPROCS(0) == 1 {
		b.Skip("unmeasured (1 CPU): a one-worker curve has no scaling to show")
	}
	ctx := benchContext(b)
	spec := fleet.Spec{
		N:              256,
		Policy:         "dtpm",
		Scenarios:      []fleet.Weight{{Name: "cold-start", Weight: 1}},
		AmbientJitterC: 5,
	}
	for workers := 1; workers <= runtime.GOMAXPROCS(0); workers *= 2 {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			eng := &fleet.Engine{Workers: workers, Runner: ctx.Runner, Models: ctx.Char, BaseSeed: 1}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := eng.Run(context.Background(), spec)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Completed != spec.N {
					b.Fatalf("only %d/%d cells completed", rep.Completed, spec.N)
				}
			}
			b.ReportMetric(float64(spec.N*b.N)/b.Elapsed().Seconds(), "devices/sec")
		})
	}
}

// BenchmarkCharacterization times the complete Chapter 4 modeling flow
// (furnace sweeps + four PRBS identification experiments) from scratch.
func BenchmarkCharacterization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := NewDevice().Characterize(int64(i + 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDTPMControlInterval times one controller invocation — the work
// added to every 100 ms kernel tick (the paper reports no observable
// overhead; this measures ours directly).
func BenchmarkDTPMControlInterval(b *testing.B) {
	ctx := benchContext(b)
	dev := &Device{r: ctx.Runner}
	spec := NewSpec(WithBenchmark("templerun"), WithPolicy(DTPM), WithModels(&Models{c: ctx.Char}), WithSeed(1))
	res, err := dev.runToCompletion(context.Background(), spec)
	if err != nil {
		b.Fatal(err)
	}
	// One full templerun DTPM run is ~1030 control intervals; report the
	// per-interval cost by timing whole runs and dividing.
	intervals := int(res.ExecTime / 0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dev.runToCompletion(context.Background(), spec); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(intervals), "ns/interval")
}

// BenchmarkStagePredict times the first kernel stage of the performance
// ledger: one DTPM prediction, 10 intervals (1 s) ahead under constant
// power, through a characterized model's Predictor. It is the call shape
// bench/probes.go times as sysid.predict_ns. order4 is the default
// platform's model, order8 tablet-8big's; the predictor must not allocate
// (allocs/op is gated in HOTBENCH).
func BenchmarkStagePredict(b *testing.B) {
	for _, c := range []struct{ name, platform string }{
		{"order4", platform.DefaultName},
		{"order8", "tablet-8big"},
	} {
		b.Run(c.name, func(b *testing.B) {
			m := stageThermalModel(b, c.platform)
			// A hot interval: the hottest core near TMax, the rest
			// trailing by 0.5 °C each, the big cluster at full draw.
			temps := make([]float64, m.States())
			for i := range temps {
				temps[i] = 62 - 0.5*float64(i)
			}
			powers := []float64{3.2, 0.15, 0.6, 0.4}
			pred := m.NewPredictor()
			dst := make([]float64, m.States())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pred.PredictConstInto(dst, temps, powers, 10)
			}
		})
	}
}

// stageInterval is the hot interval the power and thermal stage
// benchmarks replay on the default platform: the big cluster at its top
// frequency with every core 90% busy, the hottest core near TMax and the
// rest trailing by 0.5 °C each.
type stageInterval struct {
	runner *sim.Runner
	chip   *platform.Chip
	act    power.ChipActivity
	temps  []float64
	board  float64
}

func hotStageInterval() stageInterval {
	desc := platform.Default()
	chip := platform.NewChipFor(desc)
	nodes := chip.BigCluster.NumCores()
	temps := make([]float64, nodes)
	for i := range temps {
		temps[i] = 62 - 0.5*float64(i)
	}
	util := make([]float64, desc.MaxClusterCores())
	for i := 0; i < nodes; i++ {
		util[i] = 0.9
	}
	return stageInterval{
		runner: sim.NewRunnerFor(desc),
		chip:   chip,
		act:    power.ChipActivity{CoreUtil: util, CPUActivity: 1, MemTraffic: 0.5},
		temps:  temps,
		board:  50,
	}
}

// BenchmarkStagePower times the ground-truth power stage: one fused
// StepInto pass over a hot interval, the call shape bench/probes.go times
// as power.step_ns. It must not allocate (allocs/op is gated in HOTBENCH).
func BenchmarkStagePower(b *testing.B) {
	hot := hotStageInterval()
	core := make([]float64, len(hot.temps))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hot.runner.GT.StepInto(core, hot.chip, hot.act, hot.temps, hot.board)
	}
}

// BenchmarkStageTick times the scheduler stage: one 100 ms TickWith of
// four foreground workers and one background task per hotspot node on the
// default platform's active cluster, the call shape bench/probes.go times
// as kernel.tick_ns. It must not allocate (allocs/op is gated in HOTBENCH).
func BenchmarkStageTick(b *testing.B) {
	const workers = 4
	hot := hotStageInterval()
	nodes := len(hot.temps)
	sch := kernel.NewSched()
	tasks := make([]kernel.Task, workers+nodes)
	sch.Reserve(len(tasks), platform.Default().MaxClusterCores())
	demands := make([]float64, len(tasks))
	for i := range tasks {
		tasks[i] = kernel.Task{Name: "stage", MemBound: 0.3, WorkLeft: math.Inf(1)}
		sch.Add(&tasks[i])
		demands[i] = 0.04
		if i < workers {
			demands[i] = 0.9
		}
	}
	// The first tick places every task on a core (a sort that allocates);
	// the timed ticks are the steady state the kernel loop runs in.
	active := hot.chip.Active()
	sch.TickWith(0.1, active, demands)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sch.TickWith(0.1, active, demands)
	}
}

// BenchmarkStageReseed times the per-cell RNG seeding stage: rewinding a
// device's sensor bank (sensor.reseed_ns in bench/probes.go) and its
// background load generator (workload.reseed_ns) to a new seed, as the
// kernel does for every device it takes from a pooled arena. Neither may
// allocate (allocs/op is gated in HOTBENCH).
func BenchmarkStageReseed(b *testing.B) {
	runner := sim.NewRunner()
	nodes := platform.Default().Big.Cores
	b.Run("sensor", func(b *testing.B) {
		bank := sensor.NewBank(runner.Sensors, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bank.Reseed(runner.Sensors, int64(i+2))
		}
	})
	b.Run("workload", func(b *testing.B) {
		bg := workload.NewBackgroundN(1, nodes)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bg.Reseed(int64(i + 2))
		}
	})
}

// BenchmarkStageThermalStep times the thermal stage: one 100 ms RK4 step
// of one device of a width-16 BatchSim, devices taken round robin from the
// idle warm start under a hot interval's powers — the call shape
// bench/probes.go times as thermal.batch_step_ns. It must not allocate
// (allocs/op is gated in HOTBENCH).
func BenchmarkStageThermalStep(b *testing.B) {
	const width = 16
	hot := hotStageInterval()
	core := make([]float64, len(hot.temps))
	_, board := hot.runner.GT.StepInto(core, hot.chip, hot.act, hot.temps, hot.board)
	bs := thermal.NewBatchSim(hot.runner.Thermal, width)
	idle := hot.runner.IdleState()
	for d := 0; d < width; d++ {
		bs.SetState(d, idle)
		copy(bs.CoreInput(d), core)
	}
	d := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bs.Step(d, 0.1, board, 0)
		d = (d + 1) % width
	}
}

var (
	stageModelsMu sync.Mutex
	stageModels   = map[string]*sysid.ThermalModel{}
)

// stageThermalModel returns the seed-1 characterized thermal model of the
// named platform, characterizing it once per process.
func stageThermalModel(b *testing.B, name string) *sysid.ThermalModel {
	b.Helper()
	if name == platform.DefaultName {
		return benchContext(b).Char.Thermal
	}
	stageModelsMu.Lock()
	defer stageModelsMu.Unlock()
	if m, ok := stageModels[name]; ok {
		return m
	}
	desc, err := platform.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	ch, err := sim.NewRunnerFor(desc).Characterize(context.Background(), 1)
	if err != nil {
		b.Fatalf("characterize %s: %v", name, err)
	}
	stageModels[name] = ch.Thermal
	return ch.Thermal
}

// --- Ablation benches: the controller design choices DESIGN.md §5 calls
// out, each timed on the matrixmult stress case (see EXPERIMENTS.md).

func benchAblation(b *testing.B, mutate func(*dtpm.Config)) {
	ctx := benchContext(b)
	cfg := dtpm.DefaultConfig()
	mutate(&cfg)
	bench, err := workload.ByName("matrixmult")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := ctx.Runner.Run(context.Background(), sim.Options{
			Policy: sim.PolicyDTPM, Bench: bench, Seed: 5,
			Model: ctx.Char.Thermal, PowerModel: ctx.Char.Power, DTPM: &cfg,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("exec=%.1fs maxT=%.1fC over63=%.1fs power=%.2fW",
				res.ExecTime, res.MaxTemp, res.OverTMax, res.AvgPower)
		}
	}
}

// BenchmarkAblationFullController is the reference configuration.
func BenchmarkAblationFullController(b *testing.B) {
	benchAblation(b, func(*dtpm.Config) {})
}

// BenchmarkAblationOneStepBudget uses the literal one-step Eq. 5.5.
func BenchmarkAblationOneStepBudget(b *testing.B) {
	benchAblation(b, func(c *dtpm.Config) { c.OneStepBudget = true })
}

// BenchmarkAblationNoGuard removes the guard band.
func BenchmarkAblationNoGuard(b *testing.B) {
	benchAblation(b, func(c *dtpm.Config) { c.Guard = 0 })
}

// BenchmarkAblationNoAsymMargin removes the asymmetry margin.
func BenchmarkAblationNoAsymMargin(b *testing.B) {
	benchAblation(b, func(c *dtpm.Config) { c.AsymGain = 0 })
}

// BenchmarkAblationHastyEscalation escalates the ladder without patience.
func BenchmarkAblationHastyEscalation(b *testing.B) {
	benchAblation(b, func(c *dtpm.Config) { c.EscalateIntervals = 1 })
}
