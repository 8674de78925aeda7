package repro

import (
	"context"
	"iter"
	"sync"

	"repro/internal/fleet"
	"repro/internal/store"
)

// FleetSpec declares a virtual-device population: the platform and
// scenario mixes (draw weights over registered names), the policy and
// constraint every device runs, and the per-device perturbations (ambient
// jitter, workload jitter). See the fleet package and docs/fleet.md for
// the JSON spec format and its defaults.
type FleetSpec = fleet.Spec

// FleetWeight is one mix entry: a registered name and its draw weight.
type FleetWeight = fleet.Weight

// FleetCellConfig is one fully resolved device of a population — a pure
// function of (spec, base seed, index), so any device is replayable in
// isolation.
type FleetCellConfig = fleet.CellConfig

// FleetCellMetrics is the fixed-size per-device outcome a fleet retains
// instead of a trace.
type FleetCellMetrics = fleet.CellMetrics

// FleetProgress is one live per-device completion event.
type FleetProgress = fleet.Progress

// FleetReport is a completed fleet: per-platform/per-scenario aggregate
// distributions (skin-temperature percentiles, throttle-time fraction,
// energy, performance loss), exportable as JSON or CSV. For one spec and
// base seed the exported bytes are identical at any worker count.
type FleetReport = fleet.Report

// FleetGroup is one (platform, scenario) aggregate row of a FleetReport.
type FleetGroup = fleet.Group

// ParseFleetSpec decodes and validates a JSON fleet spec (strict: unknown
// fields, trailing data, and non-normalizable mix weights are errors).
func ParseFleetSpec(data []byte) (FleetSpec, error) { return fleet.ParseJSON(data) }

// DeriveFleetCell resolves device `index` of the population the spec and
// base seed declare, without running anything: the same configuration the
// device gets inside RunFleet, in a 10-cell smoke fleet or a 100 000-cell
// sweep alike.
func DeriveFleetCell(spec FleetSpec, baseSeed int64, index int) FleetCellConfig {
	return fleet.DeriveCell(spec, baseSeed, index)
}

// FleetOption tunes how a fleet executes — never what it computes: every
// option preserves the byte-deterministic report contract.
type FleetOption func(*fleetConfig)

type fleetConfig struct {
	storeDir string
	useStore bool
}

// WithStore attaches a content-addressed result store rooted at dir ("" =
// the conventional .repro-store): every device's outcome is persisted under
// a digest of its fully normalized configuration, and any later run of an
// identical device — same platform, scenario content, seeds, policy,
// constraint, characterization provenance — is served from the store
// instead of re-simulated. Cached results are byte-identical to computed
// ones (the determinism contract makes verification exact equality), so
// reports never change; only wall-clock time does. A warm re-run of an
// identical fleet hits the store for every cell, and editing one scenario
// in a mix recomputes only the affected devices.
func WithStore(dir string) FleetOption {
	return func(c *fleetConfig) { c.storeDir, c.useStore = dir, true }
}

func (d *Device) fleetEngine(models *Models, workers int, baseSeed int64, opts ...FleetOption) (*fleet.Engine, error) {
	var cfg fleetConfig
	for _, o := range opts {
		o(&cfg)
	}
	eng := &fleet.Engine{Workers: workers, Runner: d.r, BaseSeed: baseSeed}
	if models != nil {
		eng.Models = models.c
	}
	if cfg.useStore {
		st, err := store.Open(cfg.storeDir)
		if err != nil {
			return nil, err
		}
		eng.Store = st
	}
	return eng, nil
}

// RunFleet simulates the whole population across a worker pool (workers
// <= 0 means GOMAXPROCS) and returns the aggregate report. The device is
// the anchor: cells on its platform run on it directly (characterized at
// baseSeed when models is nil), every other platform in the mix is
// characterized once and cached. Cell failures are collected in the
// report, never aborting the fleet; on cancellation the partial report
// comes back with an error wrapping ErrCancelled.
func (d *Device) RunFleet(ctx context.Context, spec FleetSpec, models *Models, workers int, baseSeed int64, opts ...FleetOption) (*FleetReport, error) {
	eng, err := d.fleetEngine(models, workers, baseSeed, opts...)
	if err != nil {
		return nil, err
	}
	return eng.Run(ctx, spec)
}

// StreamFleet runs the population like RunFleet while yielding one
// FleetProgress per finished device in completion order — live telemetry
// over a long fleet. The second return collects the final aggregate
// report; call it after the stream ends (calling it without consuming the
// stream detaches the stream and runs the fleet at full speed). Breaking
// out of the loop cancels the remaining cells, like cancelling the
// context: the report function then returns the partial report and an
// error wrapping ErrCancelled.
func (d *Device) StreamFleet(ctx context.Context, spec FleetSpec, models *Models, workers int, baseSeed int64, opts ...FleetOption) (iter.Seq[FleetProgress], func() (*FleetReport, error), error) {
	if err := spec.Validate(); err != nil {
		return nil, nil, err
	}
	eng, err := d.fleetEngine(models, workers, baseSeed, opts...)
	if err != nil {
		return nil, nil, err
	}
	seq, report := follow(ctx, func(ctx context.Context, offer func(FleetProgress)) (*FleetReport, error) {
		eng.OnCellDone = offer
		return eng.Run(ctx, spec)
	})
	return seq, report, nil
}

// follow starts run on a goroutine of its own and turns the serial
// progress callback it hands run into a completion-order stream. Breaking
// out of the stream cancels the run and waits for it to end; a stream that
// ends on its own has waited too, so no goroutine outlives it. result
// detaches the stream — an unconsumed stream never blocks the run — and
// returns what run returned once it has ended.
func follow[T, R any](ctx context.Context, run func(ctx context.Context, offer func(T)) (R, error)) (stream iter.Seq[T], result func() (R, error)) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithCancel(ctx)
	var (
		ch       = make(chan T)
		nostream = make(chan struct{})
		done     = make(chan struct{})
		stopOnce sync.Once
		res      R
		runErr   error
	)
	detach := func() { stopOnce.Do(func() { close(nostream) }) }
	go func() {
		res, runErr = run(ctx, func(t T) {
			select {
			case ch <- t:
			case <-nostream:
			}
		})
		cancel()
		close(ch)
		close(done)
	}()
	stream = func(yield func(T) bool) {
		for t := range ch {
			if !yield(t) {
				cancel()
				detach()
				break
			}
		}
		<-done
	}
	result = func() (R, error) {
		detach()
		<-done
		return res, runErr
	}
	return stream, result
}

// ReplayFleetCell re-runs one device of the population standalone with
// full trace recording: the exact configuration and RNG streams the
// device has inside RunFleet, so the returned trace is sample-for-sample
// what the fleet's aggregator observed. The standalone proof behind every
// aggregate number.
func (d *Device) ReplayFleetCell(ctx context.Context, spec FleetSpec, models *Models, baseSeed int64, index int, opts ...FleetOption) (*Result, FleetCellConfig, error) {
	eng, err := d.fleetEngine(models, 1, baseSeed, opts...)
	if err != nil {
		return nil, FleetCellConfig{}, err
	}
	res, cfg, err := eng.ReplayCell(ctx, spec, index)
	if err != nil {
		return nil, cfg, err
	}
	return &Result{Result: res}, cfg, nil
}
