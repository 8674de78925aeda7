package fleet

import (
	"context"

	"repro/internal/sched"
	"repro/internal/sim"
)

// DefaultBatchSize is the lock-step batch width the engine uses when
// Engine.BatchSize is 0. Wide enough to amortize the shared per-interval
// work (script evaluation, RK4 scratch, power-model constants) across
// devices, small enough that a unit stays cache-resident and the
// collector's out-of-order window stays modest.
const DefaultBatchSize = 16

// batchSize resolves the engine's effective batch width.
func (e *Engine) batchSize() int {
	switch {
	case e.BatchSize == 0:
		return DefaultBatchSize
	case e.BatchSize < 1:
		return 1
	default:
		return e.BatchSize
	}
}

// runBatchUnit executes one work unit. With a store attached the unit is
// first split into hits and misses: hits are served as-is and only the
// misses are computed — then handed to the async store writer, which
// persists them off the hot path (the collector never recycles aggregators
// on store-backed runs, so the writer's reads stay safe). The outcomes are
// returned in unit order (outs[j] belongs to indices[j]).
func (e *Engine) runBatchUnit(ctx context.Context, spec Spec, pol sim.Policy, indices []int, writer *storeWriter) []cellOutcome {
	if e.Store == nil {
		return e.computeUnit(ctx, spec, pol, indices)
	}
	outs := make([]cellOutcome, len(indices))
	var missIdx, missPos []int
	for j, i := range indices {
		if out, ok := e.lookupCell(spec, i); ok {
			outs[j] = out
		} else {
			missIdx = append(missIdx, i)
			missPos = append(missPos, j)
		}
	}
	if len(missIdx) > 0 {
		computed := e.computeUnit(ctx, spec, pol, missIdx)
		for k, j := range missPos {
			writer.enqueue(computed[k])
			outs[j] = computed[k]
		}
	}
	return outs
}

// computeUnit runs one (sub-)unit of cells for real as one call into the
// batch kernel, at any width — 1 included. The cells of a unit share
// platform, scenario shape, policy and models (the planner groups them
// so), which is what lets failure attribution be this coarse: a cell
// whose options cannot be built fails alone, while an error or panic from
// the kernel call fails every cell of the unit with that message.
func (e *Engine) computeUnit(ctx context.Context, spec Spec, pol sim.Policy, indices []int) []cellOutcome {
	outs := make([]cellOutcome, len(indices))
	for j, i := range indices {
		outs[j].cfg = DeriveCell(spec, e.BaseSeed, i)
	}
	if ctx.Err() != nil {
		return failAll(outs, "fleet: cancelled before start")
	}
	runner, models, err := e.cache().Device(ctx, outs[0].cfg.Platform)
	if err != nil {
		return failAll(outs, err.Error())
	}
	opts := make([]sim.Options, 0, len(outs))
	aggs := make([]*cellAgg, 0, len(outs))
	live := make([]int, 0, len(outs)) // positions of the cells in the batch
	for j := range outs {
		opt, agg, err := cellOptions(spec, pol, outs[j].cfg, runner, models, false)
		if err != nil {
			outs[j].err = err.Error()
			continue
		}
		opts = append(opts, opt)
		aggs = append(aggs, agg)
		live = append(live, j)
	}
	if len(opts) == 0 {
		return outs
	}
	// A failed batch abandons its aggregators rather than recycling them:
	// a panicking kernel cannot prove it dropped every reference.
	results, err := sched.RunSafely(func() ([]*sim.Result, error) { return runner.RunBatch(ctx, opts) })
	if err != nil {
		for _, j := range live {
			outs[j].err = err.Error()
		}
		return outs
	}
	for k, j := range live {
		aggs[k].finish(results[k])
		outs[j].agg = aggs[k]
		outs[j].metrics = aggs[k].metrics()
	}
	return outs
}

// failAll marks every cell of a unit as failed with msg.
func failAll(outs []cellOutcome, msg string) []cellOutcome {
	for j := range outs {
		outs[j].err = msg
	}
	return outs
}
