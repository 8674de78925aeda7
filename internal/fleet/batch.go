package fleet

import (
	"context"

	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/store"
)

// DefaultBatchSize is the lock-step batch width the engine uses when
// Engine.BatchSize is 0. Wide enough to amortize the shared per-interval
// work (the script's phase lookup and Sin/Tanh demand shaping, about 10%
// of CPU at width 1) across devices, small enough that a unit stays
// cache-resident and the collector's out-of-order window stays modest.
// On a 2-CPU Xeon it runs a fleet about 1.1x faster than width 1 (see
// docs/benchmarks.md).
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
// first split into hits and misses, each cell addressed through the run's
// key templates: hits are served as-is and only the misses are computed —
// then encoded and handed to the async store writer, which persists them
// off the hot path. The outcomes are returned in unit order (outs[j]
// belongs to indices[j]).
func (e *Engine) runBatchUnit(ctx context.Context, spec Spec, pol sim.Policy, indices []int, keys cellKeys, writer *storeWriter) []cellOutcome {
	if e.Store == nil {
		return e.computeUnit(ctx, spec, pol, indices)
	}
	outs := make([]cellOutcome, len(indices))
	// A miss keeps its content address for the write; an unaddressable
	// cell (addr false) is computed and never stored.
	type miss struct {
		pos  int
		key  store.Digest
		addr bool
	}
	var misses []miss
	var missIdx []int
	for j, i := range indices {
		cfg := DeriveCell(spec, e.BaseSeed, i)
		key, addr := keys.digest(cfg)
		if addr {
			if out, ok := e.lookupCell(key, cfg); ok {
				outs[j] = out
				continue
			}
		}
		misses = append(misses, miss{j, key, addr})
		missIdx = append(missIdx, i)
	}
	if len(misses) > 0 {
		computed := e.computeUnit(ctx, spec, pol, missIdx)
		for k, m := range misses {
			if payload, ok := cellPayload(computed[k]); ok && m.addr {
				writer.enqueue(m.key, payload)
			}
			outs[m.pos] = computed[k]
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
	desc := runner.Desc
	if desc == nil {
		desc = platform.Default()
	}
	maxGHz := desc.Big.Domain.MaxFreq().GHz()
	opts := make([]sim.Options, 0, len(outs))
	aggs := make([]*cellAgg, 0, len(outs))
	live := make([]int, 0, len(outs)) // positions of the cells in the batch
	for j := range outs {
		opt, err := cellOptions(spec, pol, outs[j].cfg, runner, models, false)
		if err != nil {
			outs[j].err = err.Error()
			continue
		}
		agg := e.aggs.get()
		agg.tmax, agg.maxGHz = spec.TMaxC, maxGHz
		opt.Observer = agg.observe
		opts = append(opts, opt)
		aggs = append(aggs, agg)
		live = append(live, j)
	}
	if len(opts) == 0 {
		return outs
	}
	// The kernel call is synchronous, so once it returns (or panics) no
	// observer runs again: every aggregator goes back to the free list,
	// reset, whether the unit succeeded or failed. A completed cell leaves
	// in compact form.
	results, err := sched.RunSafely(func() ([]*sim.Result, error) { return runner.RunBatch(ctx, opts) })
	for k, j := range live {
		if err != nil {
			outs[j].err = err.Error()
		} else {
			outs[j].sums = e.sums.get()
			aggs[k].compact(outs[j].sums, results[k])
		}
		e.aggs.put(aggs[k])
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
