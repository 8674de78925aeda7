package fleet

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

// TestCellAggResetIsFresh: an aggregator comes back from reset equal to a
// new one whatever state a completed or a failed kernel call left it in,
// a count in a bin the fold never reached included.
func TestCellAggResetIsFresh(t *testing.T) {
	var fresh cellAgg
	fresh.reset()
	a := new(cellAgg)
	a.reset()
	a.tmax, a.maxGHz = 63, 1.6
	for i := 0; i < 100; i++ {
		a.observe(sim.Sample{BoardTemp: 20 + 0.3*float64(i), MaxTemp: 50 + 0.2*float64(i), FreqGHz: 1.2})
	}
	a.bins[skinBins-1]++
	a.reset()
	a.tmax, a.maxGHz = 0, 0
	if a.skin.Lo != fresh.skin.Lo || a.skin.Hi != fresh.skin.Hi || a.skin.N != fresh.skin.N ||
		a.skinM != fresh.skinM || a.coreM != fresh.coreM || a.overN != 0 || a.n != 0 || a.freqFrac != 0 {
		t.Fatalf("reset aggregator %+v differs from a new one", a)
	}
	if a.bins != fresh.bins || &a.skin.Bins[0] != &a.bins[0] {
		t.Fatal("reset left a non-zero bin or a histogram off the aggregator's own backing")
	}
}

// TestCollectorRingGrows: a completed cell further past the frontier than
// the ring was sized for widens the ring instead of overwriting a pending
// neighbour, and the merge still runs in index order.
func TestCollectorRingGrows(t *testing.T) {
	const n = 9
	var e Engine
	coll := newCollector(n, make([]pendingSlot, 2), &e.sums)
	for _, i := range []int{3, 1, 8, 5, 0, 7, 2, 6, 4} {
		coll.add(i, cellOutcome{cfg: CellConfig{Index: i}, err: "failed"})
	}
	if coll.next != n || coll.pending != 0 || len(coll.failures) != n {
		t.Fatalf("frontier %d, %d pending, %d merged; want %d, 0, %d", coll.next, coll.pending, len(coll.failures), n, n)
	}
	for i, f := range coll.failures {
		if f.Cell.Index != i {
			t.Fatalf("merge %d is cell %d, want index order", i, f.Cell.Index)
		}
	}
}

// BenchmarkFleetMerge is the service-layer row of the aggregator fold and
// the frontier merge, the collector's share of a fleet op. One op folds a
// full pending window of dense aggregators (the window of a two-worker run
// at the default width) into compact cells drawn from the engine's free
// list and adds them frontier-last, so every cell waits in the pending
// window until the frontier cell's add merges the whole window, in index
// order, into three groups and the overall row. The aggregators carry
// 48 non-zero skin bins each, the spread of a typical library cell. In
// the steady state an op allocates nothing: the sums cycle through the
// free list, the pending ring is reused, and the groups keep their
// series' backing (the benchmark rewinds them between ops).
func BenchmarkFleetMerge(b *testing.B) {
	const window = (flushWindowUnits + 2) * DefaultBatchSize
	aggs := make([]*cellAgg, 8)
	for k := range aggs {
		a := new(cellAgg)
		a.reset()
		a.tmax, a.maxGHz = 63, 1.6
		for i := 0; i < 240; i++ {
			a.observe(sim.Sample{
				BoardTemp: 30 + 0.05*float64(i) + 0.25*float64(k),
				MaxTemp:   55 + 0.04*float64(i+k),
				FreqGHz:   1.6 - 0.002*float64(i%100),
			})
		}
		aggs[k] = a
	}
	res := &sim.Result{Completed: true, ExecTime: 120, Energy: 300, AvgPower: 2.5}
	cfgs := make([]CellConfig, window)
	for i := range cfgs {
		cfgs[i] = CellConfig{Index: i, Platform: "exynos5410", Scenario: []string{"cold-start", "video-playback", "gaming-session"}[i%3]}
	}
	var e Engine
	e.sums.setLimit(window)
	coll := newCollector(window, make([]pendingSlot, window), &e.sums)
	op := func() {
		for i := window - 1; i >= 0; i-- {
			s := e.sums.get()
			aggs[i%len(aggs)].compact(s, res)
			coll.add(i, cellOutcome{cfg: cfgs[i], sums: s})
		}
		if coll.next != window {
			b.Fatalf("frontier at %d after a %d-cell window", coll.next, window)
		}
	}
	rewindGroup := func(g *groupAgg) {
		clear(g.skin.Bins)
		g.skin.N = 0
		*g = groupAgg{
			platform:  g.platform,
			scenario:  g.scenario,
			skin:      g.skin,
			energies:  g.energies[:0],
			perfLoss:  g.perfLoss[:0],
			throttles: g.throttles[:0],
		}
	}
	rewind := func() {
		coll.next, coll.completed = 0, 0
		for _, g := range coll.groups {
			rewindGroup(g)
		}
		rewindGroup(coll.overall)
	}
	op() // the free list and the series reach their size
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rewind()
		op()
	}
	b.StopTimer()
	var want stats.Moments
	for i := 0; i < window; i++ {
		want.Merge(&aggs[i%len(aggs)].skinM)
	}
	if coll.overall.skinM != want || coll.overall.cells != window {
		b.Fatalf("overall row merged %d cells, skin moments %+v, want %d and %+v", coll.overall.cells, coll.overall.skinM, window, want)
	}
}
