package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"repro/internal/store"
)

// metricDef declares one metric of BENCHMARK.json.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees, measured untraced.
// Every workload reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"cells_per_s", "cells/s", "higher"},
	{"op_p50_s", "s", "lower"},
	{"op_p90_s", "s", "lower"},
	{"mem_p50_mb", "MB", "lower"},
}

// perLayer are the traced run's metrics. Times are reported only where
// every workload does the work; what only some workloads touch (the store,
// the daemon's stream) is a count or a ratio, zero where it is absent.
var perLayer = []metricDef{
	{"op.run_ms", "ms", "lower"},
	{"op.render_ms", "ms", "lower"},
	{"op.first_cell_ms", "ms", "lower"},
	{"op.unattributed_ms", "ms", "lower"},
	{"op.cells", "count", "higher"},
	{"op.cached_ratio", "ratio", "higher"},
	{"store.hits_per_op", "count", "higher"},
	{"store.misses_per_op", "count", "lower"},
	{"store.writes_per_op", "count", "lower"},
	{"store.invalid", "count", "lower"},
	{"store.hit_ratio", "ratio", "higher"},
	{"server.events_per_op", "count", "lower"},
	{"server.stream_kb_per_op", "KB", "lower"},
	{"runtime.alloc_mb_per_op", "MB", "lower"},
	{"runtime.gc_per_op", "count", "lower"},
	{"setup.characterize_s", "s", "lower"},
	{"setup.warmup_s", "s", "lower"},
	{"sysid.predict_ns", "ns", "lower"},
	{"thermal.batch_step_ns", "ns", "lower"},
	{"power.step_ns", "ns", "lower"},
	{"kernel.tick_ns", "ns", "lower"},
	{"dtpm.update_ns", "ns", "lower"},
	{"sensor.reseed_ns", "ns", "lower"},
	{"workload.reseed_ns", "ns", "lower"},
	{"sim.run_ms", "ms", "lower"},
	{"sim.batch_cell_ms", "ms", "lower"},
	{"store.get_us", "us", "lower"},
	{"store.put_us", "us", "lower"},
	{"sched.speedup_nproc", "x", "higher"},
	{"trace.overhead", "x", "lower"},
}

// runOptions is one benchmark run.
type runOptions struct {
	workload workloadDef
	seed     int64
	window   time.Duration
	cfg      config
	trace    bool
	dir      string // scratch directory, emptied by the caller
	// expected holds the committed digests to check against (nil = skip
	// that check; it applies only at the pinned seed and config).
	expected map[string][]string
}

// opRecord is one measured op.
type opRecord struct {
	index         int
	root          int64 // root span ID (0 untraced)
	dur           time.Duration
	cells, failed int
	memMB         float64 // resident Go memory when the op returned
	digest        string
	err           error
}

// streamStats summarizes one stream's window.
type streamStats struct {
	name     string
	latency  bool
	ops      int
	p50, p90 time.Duration
	layers   []layerRow // traced ops only
}

type metricValue struct {
	name, unit string
	value      float64
}

// runResult is everything one run measured and checked.
type runResult struct {
	endToEnd, perLayer []metricValue
	attempted, failed  int
	problems           []string // correctness failures; empty = correct
	setups             []time.Duration
	streams            []streamStats
	setupLayers        []layerRow
	window             time.Duration
	tracer             *tracer
	speedupNote        string
}

func (r *runResult) correct() bool { return len(r.problems) == 0 }

func digestOf(res result) string {
	h := sha256.New()
	h.Write(res.json)
	h.Write(res.csv)
	return hex.EncodeToString(h.Sum(nil))
}

// run sets the workload up opts.cfg.setups times (keeping the last set-up),
// measures it for the window, then checks every report it received.
func run(ctx context.Context, opts runOptions) (*runResult, error) {
	res := &runResult{}
	if opts.trace {
		res.tracer = newTracer()
	}
	inst, setupRoots, err := setUp(ctx, opts, res)
	if err != nil {
		return nil, err
	}
	defer inst.close()

	var before, after [2]uint64
	var storeBefore, storeAfter store.Stats
	readRuntime(&before)
	if inst.storeStats != nil {
		storeBefore = inst.storeStats()
	}
	recs, window := measure(ctx, inst, opts.window, opts.cfg.maxOps, res.tracer)
	readRuntime(&after)
	if inst.storeStats != nil {
		storeAfter = inst.storeStats()
	}
	res.window = window
	for s, st := range inst.streams {
		res.problems = append(res.problems, verifyStream(ctx, opts, st, recs[s])...)
	}

	var spans []span
	var counters map[int64]map[string]int64
	if res.tracer != nil {
		spans, _, counters = res.tracer.snapshot()
	}
	res.setupLayers = layerTable(spans, setupRoots)
	cells, ops, lat := 0, 0, 0
	var mem []float64
	for s, st := range inst.streams {
		var durs []time.Duration
		var roots []int64
		for _, r := range recs[s] {
			res.attempted += r.cells
			res.failed += r.failed
			cells += r.cells - r.failed
			durs = append(durs, r.dur)
			mem = append(mem, r.memMB)
			if r.root != 0 {
				roots = append(roots, r.root)
			}
		}
		ops += len(durs)
		if st.latency {
			lat = s
		}
		res.streams = append(res.streams, streamStats{
			name: st.name, latency: st.latency, ops: len(durs),
			p50: quantile(durs, 0.5), p90: quantile(durs, 0.9),
			layers: layerTable(spans, roots),
		})
	}
	if !opts.trace {
		res.endToEnd = pick(endToEnd, map[string]float64{
			"setup_s":     quantile(res.setups, 0.5).Seconds(),
			"cells_per_s": float64(cells) / window.Seconds(),
			"op_p50_s":    res.streams[lat].p50.Seconds(),
			"op_p90_s":    res.streams[lat].p90.Seconds(),
			"mem_p50_mb":  median(mem),
		})
		return res, nil
	}

	vals, note, err := runProbes(ctx, opts)
	if err != nil {
		return nil, fmt.Errorf("%s: probes: %w", opts.workload.name, err)
	}
	res.speedupNote = note
	maps.Copy(vals, opValues(opts.workload.roles, res.streams[lat].layers, recs[lat], spans, counters))
	sd := statsDelta(storeAfter, storeBefore)
	perOp := func(v uint64) float64 { return float64(v) / float64(max(1, ops)) }
	maps.Copy(vals, map[string]float64{
		"store.hits_per_op":       perOp(sd.Hits),
		"store.misses_per_op":     perOp(sd.Misses),
		"store.writes_per_op":     perOp(sd.Writes),
		"store.invalid":           float64(sd.Invalid),
		"store.hit_ratio":         ratio(float64(sd.Hits), float64(sd.Hits+sd.Misses)),
		"runtime.alloc_mb_per_op": perOp(after[0]-before[0]) / (1 << 20),
		"runtime.gc_per_op":       perOp(after[1] - before[1]),
		"setup.characterize_s":    row(res.setupLayers, "setup.characterize").BusyPerOp.Seconds(),
		"setup.warmup_s":          row(res.setupLayers, "setup.warmup").BusyPerOp.Seconds(),
	})
	res.perLayer = pick(perLayer, vals)
	return res, nil
}

// setUp runs the workload's set-up opts.cfg.setups times, each followed by
// one untimed warm-up op per stream, and keeps the last instance. It
// returns the root span IDs of the traced repetitions.
func setUp(ctx context.Context, opts runOptions, res *runResult) (*instance, []int64, error) {
	var inst *instance
	var roots []int64
	for k := 0; k < max(1, opts.cfg.setups); k++ {
		if inst != nil {
			inst.close()
		}
		sp := res.tracer.startRoot("setup", "", k)
		start := time.Now()
		var err error
		inst, err = opts.workload.setup(ctx, &env{cfg: opts.cfg, seed: opts.seed, dir: opts.dir, tr: res.tracer, sp: sp})
		if err != nil {
			return nil, nil, fmt.Errorf("%s: set-up: %w", opts.workload.name, err)
		}
		warm := sp.child("setup.warmup")
		for _, st := range inst.streams {
			if _, err := st.op(ctx, -1, spanRef{}); err != nil {
				inst.close()
				return nil, nil, fmt.Errorf("%s: warm-up %s: %w", opts.workload.name, st.name, err)
			}
		}
		warm.end()
		res.setups = append(res.setups, time.Since(start))
		sp.end()
		if sp.traced() {
			roots = append(roots, sp.id)
		}
	}
	return inst, roots, nil
}

// opValues derives the op-level per-layer metrics from the latency
// stream's records and the spans and counters of its traced ops.
func opValues(rl roles, layers []layerRow, recs []opRecord, spans []span, counters map[int64]map[string]int64) map[string]float64 {
	start, first := map[int64]time.Duration{}, map[int64]time.Duration{}
	for _, s := range spans {
		if s.ID == s.Op {
			start[s.ID] = s.Start
		} else if _, seen := first[s.Op]; s.Name == rl.first && !seen {
			first[s.Op] = s.Start
		}
	}
	var toFirst time.Duration
	var traced, cells, tracedCells int
	var on, off []time.Duration
	sum := map[string]int64{}
	for _, r := range recs {
		cells += r.cells
		if r.root == 0 {
			off = append(off, r.dur)
			continue
		}
		on = append(on, r.dur)
		traced++
		tracedCells += r.cells
		if t, ok := first[r.root]; ok {
			toFirst += t - start[r.root]
		}
		for k, v := range counters[r.root] {
			sum[k] += v
		}
	}
	n := float64(max(1, traced))
	busy := func(names []string) float64 {
		var d time.Duration
		for _, name := range names {
			d += row(layers, name).BusyPerOp
		}
		return ms(d)
	}
	return map[string]float64{
		"op.run_ms":               busy(rl.run),
		"op.render_ms":            busy(rl.render),
		"op.first_cell_ms":        ms(toFirst) / n,
		"op.unattributed_ms":      ms(row(layers, "op").SelfPerOp),
		"op.cells":                float64(cells) / float64(max(1, len(recs))),
		"op.cached_ratio":         ratio(float64(sum["cached"]), float64(tracedCells)),
		"server.events_per_op":    float64(sum["events"]) / n,
		"server.stream_kb_per_op": float64(sum["stream_bytes"]) / 1024 / n,
		"trace.overhead":          ratio(quantile(on, 0.5).Seconds(), quantile(off, 0.5).Seconds()),
	}
}

// pick emits the declared metrics in declaration order. A declared metric
// missing from vals is a bug in this file.
func pick(defs []metricDef, vals map[string]float64) []metricValue {
	out := make([]metricValue, len(defs))
	for i, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			panic("bench: no value for metric " + d.name)
		}
		out[i] = metricValue{d.name, d.unit, v}
	}
	return out
}

// measure runs every stream closed-loop, concurrently, until the window
// has elapsed (each stream finishes the op it is in) or maxOps is reached.
// In a traced run every even op is traced and every odd op is not, which
// is what trace.overhead compares.
func measure(ctx context.Context, inst *instance, window time.Duration, maxOps int, tr *tracer) ([][]opRecord, time.Duration) {
	t0 := time.Now()
	recs := make([][]opRecord, len(inst.streams))
	var wg sync.WaitGroup
	for s, st := range inst.streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; time.Since(t0) < window && (maxOps == 0 || i < maxOps); i++ {
				var sp spanRef
				if i%2 == 0 {
					sp = tr.startRoot("op", st.name, i)
				}
				start := time.Now()
				r, err := st.op(ctx, i, sp)
				dur := time.Since(start)
				sp.end()
				rec := opRecord{index: i, root: sp.id, dur: dur, cells: r.cells, failed: r.failed, memMB: residentMB(), err: err}
				if err == nil {
					rec.digest = digestOf(r)
				}
				recs[s] = append(recs[s], rec)
			}
		}()
	}
	wg.Wait()
	return recs, time.Since(t0)
}

// verifyStream checks one stream's reports: no op failed, each op repeats
// its period's first digest, each matches the committed digest, and the
// first and last op match the oracle.
func verifyStream(ctx context.Context, opts runOptions, st *stream, recs []opRecord) []string {
	var bad []string
	where := func(i int) string { return fmt.Sprintf("%s/%s op %d", opts.workload.name, st.name, i) }
	pinned := opts.expected[st.name]
	for _, r := range recs {
		switch {
		case r.err != nil:
			bad = append(bad, fmt.Sprintf("%s: %v", where(r.index), r.err))
			continue
		case r.failed > 0:
			bad = append(bad, fmt.Sprintf("%s: %d of %d cells failed", where(r.index), r.failed, r.cells))
		}
		k := inputIndex(r.index, st.period)
		if k != r.index && recs[k].digest != r.digest {
			bad = append(bad, fmt.Sprintf("%s: digest %.12s differs from op %d with the same input (%.12s)", where(r.index), r.digest, k, recs[k].digest))
		}
		if opts.expected != nil && k < len(pinned) && pinned[k] != r.digest {
			bad = append(bad, fmt.Sprintf("%s: digest %.12s, committed %.12s", where(r.index), r.digest, pinned[k]))
		}
	}
	if opts.expected != nil && len(pinned) == 0 {
		bad = append(bad, fmt.Sprintf("%s/%s: no committed digests", opts.workload.name, st.name))
	}
	if len(recs) == 0 {
		return append(bad, fmt.Sprintf("%s/%s: no op ran", opts.workload.name, st.name))
	}
	for _, r := range []opRecord{recs[0], recs[len(recs)-1]} {
		if r.err != nil {
			continue
		}
		ref, err := st.oracle(ctx, r.index)
		if err != nil {
			bad = append(bad, fmt.Sprintf("%s: oracle: %v", where(r.index), err))
			continue
		}
		if d := digestOf(ref); d != r.digest {
			bad = append(bad, fmt.Sprintf("%s: digest %.12s, oracle %.12s", where(r.index), r.digest, d))
		}
	}
	return bad
}

// quantile interpolates the q-quantile of the durations (0 when empty).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	frac := pos - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[hi]-s[lo]))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// statsDelta is the store activity between two counter snapshots.
func statsDelta(after, before store.Stats) store.Stats {
	return store.Stats{
		Hits:    after.Hits - before.Hits,
		Misses:  after.Misses - before.Misses,
		Writes:  after.Writes - before.Writes,
		Invalid: after.Invalid - before.Invalid,
	}
}

// readRuntime reads cumulative heap bytes allocated and GC cycles.
func readRuntime(dst *[2]uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	dst[0], dst[1] = s[0].Value.Uint64(), s[1].Value.Uint64()
}

// residentMB is the memory the Go runtime holds from the OS: everything it
// has mapped minus what it has released back. Sampled after every op, its
// median is the workload's typical footprint; the process's peak RSS was
// not usable as a metric, because where the garbage collector's cycles
// fall decides it (it spread by 19% across runs of fleet-warm).
func residentMB() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()-s[1].Value.Uint64()) / (1 << 20)
}

// median of the values (0 when empty).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
