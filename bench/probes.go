package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/dtpm"
	"repro/internal/fleet"
	"repro/internal/kernel"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/scenario"
	"repro/internal/sensor"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// perCall returns the median nanoseconds per call of fn, timed in batches
// of batch calls over calls calls in total.
func perCall(calls, batch int, fn func()) float64 {
	var per []float64
	for done := 0; done < calls; done += batch {
		start := time.Now()
		for j := 0; j < batch; j++ {
			fn()
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(batch))
	}
	sort.Float64s(per)
	return per[len(per)/2]
}

// runProbes times the kernel stages, the store and the worker pool
// directly, outside any op. Only the traced run calls it; the stage inputs
// are the hottest interval of one DTPM cold-start cell, observed as it ran.
func runProbes(ctx context.Context, opts runOptions) (map[string]float64, string, error) {
	calls := opts.cfg.probeCalls
	runner := sim.NewRunner()
	models, err := runner.Characterize(ctx, baseSeed)
	if err != nil {
		return nil, "", err
	}
	sc, err := scenario.ByName("cold-start")
	if err != nil {
		return nil, "", err
	}
	desc := runner.Desc
	cellOpt := func(seed int64) (sim.Options, error) {
		script, err := scenario.Compile(sc.Perturbed(seed, 0, desc.Thermal.Ambient))
		return sim.Options{Policy: sim.PolicyDTPM, Script: script, Seed: seed,
			Model: models.Thermal, PowerModel: models.Power}, err
	}

	// Record the cell and keep its hottest interval.
	opt, err := cellOpt(baseSeed)
	if err != nil {
		return nil, "", err
	}
	var hot sim.Sample
	opt.Observer = func(s sim.Sample) {
		if s.MaxTemp > hot.MaxTemp {
			hot = s
		}
	}
	if _, err := runner.Run(ctx, opt); err != nil {
		return nil, "", err
	}
	chip := platform.NewChipFor(desc)
	big := chip.BigCluster
	if err := big.SetFreq(big.Domain.FloorFreq(platform.KHz(hot.FreqGHz * 1e6))); err != nil {
		return nil, "", err
	}
	for i := int(hot.Cores); i < big.NumCores(); i++ {
		if err := big.SetCoreOnline(i, false); err != nil {
			return nil, "", err
		}
	}
	nodes := big.NumCores()
	temps := make([]float64, nodes)
	for i := range temps {
		temps[i] = hot.MaxTemp - 0.5*float64(i)
	}
	util := make([]float64, desc.MaxClusterCores())
	for i := 0; i < int(hot.Cores); i++ {
		util[i] = 0.9
	}
	act := power.ChipActivity{CoreUtil: util, CPUActivity: 1, MemTraffic: 0.5}
	corePow := make([]float64, nodes)
	bd, boardPow := runner.GT.StepInto(corePow, chip, act, temps, hot.BoardTemp)
	powers := bd.Domain
	powers[platform.Big] = hot.BigPower

	pred := models.Thermal.NewPredictor()
	dst := make([]float64, nodes)
	predictNs := perCall(calls, 100, func() { pred.PredictConstInto(dst, temps, powers[:], 10) })

	const width = 16
	bs := thermal.NewBatchSim(runner.Thermal, width)
	idle := runner.IdleState()
	for d := 0; d < width; d++ {
		bs.SetState(d, idle)
		copy(bs.CoreInput(d), corePow)
	}
	d := 0
	stepNs := perCall(calls, 100, func() {
		bs.Step(d, 0.1, boardPow, 0)
		d = (d + 1) % width
	})

	out := make([]float64, nodes)
	powerNs := perCall(calls, 100, func() { runner.GT.StepInto(out, chip, act, temps, hot.BoardTemp) })

	const workers = 4
	sch := kernel.NewSched()
	tasks := make([]kernel.Task, workers+nodes)
	sch.Reserve(len(tasks), desc.MaxClusterCores())
	demands := make([]float64, len(tasks))
	for i := range tasks {
		tasks[i] = kernel.Task{Name: "probe", MemBound: 0.3, WorkLeft: math.Inf(1)}
		sch.Add(&tasks[i])
		demands[i] = 0.04
		if i < workers {
			demands[i] = 0.9
		}
	}
	tickNs := perCall(calls, 100, func() { sch.TickWith(0.1, chip.Active(), demands) })

	cfg := dtpm.DefaultConfig()
	cfg.TMax = 63
	ctrl, err := dtpm.NewController(cfg, models.Thermal, models.Power.Clone())
	if err != nil {
		return nil, "", err
	}
	in := dtpm.Inputs{Temps: temps, Powers: powers, GovernorFreq: big.Domain.MaxFreq(), GPUActive: true}
	updateNs := perCall(calls, 100, func() { ctrl.Update(chip, in) })

	bank := sensor.NewBank(runner.Sensors, baseSeed)
	bg := workload.NewBackgroundN(baseSeed, nodes)
	k := int64(baseSeed)
	sensorNs := perCall(calls, 100, func() { k++; bank.Reseed(runner.Sensors, k) })
	bgNs := perCall(calls, 100, func() { k++; bg.Reseed(k) })

	// Whole cells: the scalar loop, and a batch of the same cell's seeds.
	runMs, err := medianMs(20, func() error {
		o, err := cellOpt(baseSeed)
		if err == nil {
			_, err = runner.Run(ctx, o)
		}
		return err
	})
	if err != nil {
		return nil, "", err
	}
	batchMs, err := medianMs(5, func() error {
		batch := make([]sim.Options, width)
		for j := range batch {
			var err error
			if batch[j], err = cellOpt(baseSeed + int64(j)); err != nil {
				return err
			}
		}
		_, err := runner.RunBatch(ctx, batch)
		return err
	})
	if err != nil {
		return nil, "", err
	}

	getUs, putUs, err := storeProbe(ctx, opts, runner, models, calls)
	if err != nil {
		return nil, "", err
	}
	speedup, note, err := speedupProbe(ctx, opts, runner, models)
	if err != nil {
		return nil, "", err
	}
	return map[string]float64{
		"sysid.predict_ns":      predictNs,
		"thermal.batch_step_ns": stepNs,
		"power.step_ns":         powerNs,
		"kernel.tick_ns":        tickNs,
		"dtpm.update_ns":        updateNs,
		"sensor.reseed_ns":      sensorNs,
		"workload.reseed_ns":    bgNs,
		"sim.run_ms":            runMs,
		"sim.batch_cell_ms":     batchMs / width,
		"store.get_us":          getUs,
		"store.put_us":          putUs,
		"sched.speedup_nproc":   speedup,
	}, note, nil
}

// medianMs runs fn reps times and returns its median duration in ms.
func medianMs(reps int, fn func() error) (float64, error) {
	ds := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(start))
	}
	return ms(quantile(ds, 0.5)), nil
}

// storeProbe times PutJSON and GetJSON in a scratch store, with keys of
// the benchmark's own and the payload of a real fleet-cell entry.
func storeProbe(ctx context.Context, opts runOptions, runner *sim.Runner, models *sim.Characterization, calls int) (getUs, putUs float64, err error) {
	dir, err := os.MkdirTemp(opts.dir, "probe-store-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return 0, 0, err
	}
	eng := &fleet.Engine{Workers: 1, Runner: runner, Models: models, BaseSeed: baseSeed, Store: st}
	if _, err := eng.Run(ctx, fleet.Spec{N: 1}); err != nil {
		return 0, 0, err
	}
	entries, err := filepath.Glob(filepath.Join(dir, "objects", "*", "*.entry"))
	if err != nil || len(entries) != 1 {
		return 0, 0, fmt.Errorf("store probe: want one fleet-cell entry, found %d (%v)", len(entries), err)
	}
	data, err := os.ReadFile(entries[0])
	if err != nil {
		return 0, 0, err
	}
	payload := json.RawMessage(data[bytes.IndexByte(data, '\n')+1:])

	n := max(10, calls/20)
	keys := make([]store.Digest, n)
	for i := range keys {
		if keys[i], err = store.KeyDigest("bench-probe", i); err != nil {
			return 0, 0, err
		}
	}
	var putErr error
	i := 0
	putNs := perCall(n, 10, func() {
		if err := st.PutJSON(keys[i], payload); err != nil && putErr == nil {
			putErr = err
		}
		i++
	})
	if putErr != nil {
		return 0, 0, putErr
	}
	var got json.RawMessage
	missed := false
	i = 0
	getNs := perCall(2*n, 10, func() {
		if !st.GetJSON(keys[i%n], &got) {
			missed = true
		}
		i++
	})
	if missed {
		return 0, 0, fmt.Errorf("store probe: a written entry missed")
	}
	return getNs / 1e3, putNs / 1e3, nil
}

// speedupProbe is the worker-scaling ratio of one fixed fleet: devices per
// second at nproc workers over one worker. With one CPU there is no curve
// to measure, and the probe says so instead of reporting a ratio of 1.
func speedupProbe(ctx context.Context, opts runOptions, runner *sim.Runner, models *sim.Characterization) (float64, string, error) {
	if nproc() == 1 {
		return 0, "unmeasured (1 CPU)", nil
	}
	spec := fleet.Spec{N: opts.cfg.probeN, Scenarios: []fleet.Weight{{Name: "cold-start", Weight: 1}}, AmbientJitterC: 5}
	rate := func(workers int) (float64, error) {
		eng := &fleet.Engine{Workers: workers, Runner: runner, Models: models, BaseSeed: baseSeed}
		t, err := medianMs(3, func() error {
			_, err := eng.Run(ctx, spec)
			return err
		})
		return float64(spec.N) / t * 1e3, err
	}
	one, err := rate(1)
	if err != nil {
		return 0, "", err
	}
	all, err := rate(nproc())
	if err != nil {
		return 0, "", err
	}
	return all / one, fmt.Sprintf("%d workers vs 1", nproc()), nil
}
