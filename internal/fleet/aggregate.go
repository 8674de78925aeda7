package fleet

import (
	"encoding/binary"
	"sort"
	"sync"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Skin-temperature histogram shape, shared by every cell and group so
// merging is well defined: 0.25 °C bins over the full range any scenario
// ambient (±jitter) can reach. The shape is part of the report contract —
// changing it changes every golden report.
const (
	skinLoC  = -40
	skinHiC  = 140
	skinBins = 720
)

// CellMetrics is the fixed-size outcome of one device cell — what the fleet
// retains per device instead of a trace. Skin temperature is the board-node
// temperature (the device body the user touches); throttle time is the
// fraction of control intervals the hottest core spent above the
// constraint; performance loss is the mean shortfall of the delivered CPU
// frequency against the platform's top OPP (cluster migration counts as
// loss, like the paper's performance metric).
type CellMetrics struct {
	Completed    bool    `json:"completed"`
	ExecS        float64 `json:"exec_s"`
	EnergyJ      float64 `json:"energy_j"`
	AvgPowerW    float64 `json:"avg_power_w"`
	ThrottleFrac float64 `json:"throttle_frac"`
	PerfLossFrac float64 `json:"perf_loss_frac"`
	MaxSkinC     float64 `json:"max_skin_c"`
	MaxCoreC     float64 `json:"max_core_c"`
	Samples      uint64  `json:"samples"`
}

// cellAgg folds one device's per-interval samples online: a dense
// fixed-bin skin-temperature histogram, min/max/sum moments, and three
// counters. It lives only inside one kernel call: computeUnit takes it
// from the engine's free list, the batch kernel feeds it, and compact
// moves its state into the cell's cellSums before it goes back. Core
// temperature keeps only its moments (the report's CoreMaxC) — no
// histogram, since no percentile over it is reported.
type cellAgg struct {
	tmax     float64
	maxGHz   float64
	skin     stats.Histogram
	skinM    stats.Moments
	coreM    stats.Moments
	overN    uint64
	n        uint64
	freqFrac float64
	bins     [skinBins]uint64 // skin's backing
}

// reset zeroes the fold, every bin included, so an aggregator a failed
// kernel call left in any state comes back as new (the clear is ~0.1 µs
// against a cell's ~300 µs).
func (a *cellAgg) reset() {
	clear(a.bins[:])
	a.skin = stats.Histogram{Lo: skinLoC, Hi: skinHiC, Bins: a.bins[:]}
	a.skinM, a.coreM = stats.Moments{}, stats.Moments{}
	a.overN, a.n, a.freqFrac = 0, 0, 0
}

// observe is the per-control-interval fold — the sim.Options.Observer hook.
func (a *cellAgg) observe(s sim.Sample) {
	a.skin.Add(s.BoardTemp)
	a.skinM.Add(s.BoardTemp)
	a.coreM.Add(s.MaxTemp)
	if s.MaxTemp > a.tmax {
		a.overN++
	}
	a.freqFrac += s.FreqGHz / a.maxGHz
	a.n++
}

// compact writes the fold and the run's scalar outcome res into the empty
// s: the non-zero skin bins, the moments and counters, and the fixed-size
// per-cell summary.
func (a *cellAgg) compact(s *cellSums, res *sim.Result) {
	s.bins = appendSkinBins(s.bins, a.skin.Bins)
	s.skinM, s.coreM = a.skinM, a.coreM
	s.overN, s.n, s.freqFrac = a.overN, a.n, a.freqFrac
	m := &s.metrics
	m.Samples = a.n
	if res != nil {
		m.Completed = res.Completed
		m.ExecS = res.ExecTime
		m.EnergyJ = res.Energy
		m.AvgPowerW = res.AvgPower
	}
	if a.n > 0 {
		m.ThrottleFrac = float64(a.overN) / float64(a.n)
		m.PerfLossFrac = 1 - a.freqFrac/float64(a.n)
		m.MaxSkinC = a.skinM.Max()
		m.MaxCoreC = a.coreM.Max()
	}
}

// cellSums is one completed cell in the compact form every outcome, computed
// or served from the store, reaches the collector in: the non-zero skin
// bins as (index, count) pairs, the moments and counters, and the cell's
// metrics. The bins are kept exactly as the fleet-cell entry lays them out
// (a uvarint pair count, then a uvarint index gap and count per bin, see
// entry.go), so a typical ~44-bin cell's bins take about 100 bytes where a
// dense 720-bin histogram takes 5.8 KB; a pending cell waits in this form,
// and a store hit copies its bins section verbatim.
type cellSums struct {
	bins     []byte
	skinM    stats.Moments
	coreM    stats.Moments
	overN    uint64
	n        uint64
	freqFrac float64
	metrics  CellMetrics
}

// sumsBinsCap is the bins backing a new cellSums starts with: the encoded
// bins of any library cell fit, so a recycled one never regrows.
const sumsBinsCap = 256

// reset empties s, keeping the bins' backing.
func (s *cellSums) reset() {
	bins := s.bins[:0]
	if bins == nil {
		bins = make([]byte, 0, sumsBinsCap)
	}
	*s = cellSums{bins: bins}
}

// addBins adds s's skin bins to h. The bins are well formed: compact wrote
// them, or the strict decoder accepted them.
func (s *cellSums) addBins(h *stats.Histogram) {
	p := s.bins
	nz, k := binary.Uvarint(p)
	p = p[k:]
	i := -1
	for ; nz > 0; nz-- {
		gap, k := binary.Uvarint(p)
		p = p[k:]
		c, k := binary.Uvarint(p)
		p = p[k:]
		i += int(gap)
		h.AddBin(i, c)
	}
}

// freeList is an engine-owned stack of recycled values of one kind: get
// pops one (or makes one, reset), put resets one and keeps it while the
// list is under its limit, leaving the rest to the GC. Unlike a pool of
// the sync package, whether get finds a value depends neither on the P
// the goroutine runs on nor on the last GC cycles, and what the list
// retains is bounded by the limit Run sets.
type freeList[T any, P interface {
	*T
	reset()
}] struct {
	mu    sync.Mutex
	free  []P
	limit int
}

func (l *freeList[T, P]) get() P {
	l.mu.Lock()
	if n := len(l.free); n > 0 {
		x := l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		l.mu.Unlock()
		return x
	}
	l.mu.Unlock()
	x := P(new(T))
	x.reset()
	return x
}

func (l *freeList[T, P]) put(x P) {
	x.reset()
	l.mu.Lock()
	if len(l.free) < l.limit {
		l.free = append(l.free, x)
	}
	l.mu.Unlock()
}

// setLimit bounds the list at n values, dropping any beyond it.
func (l *freeList[T, P]) setLimit(n int) {
	l.mu.Lock()
	l.limit = n
	if len(l.free) > n {
		clear(l.free[n:])
		l.free = l.free[:n]
	}
	l.mu.Unlock()
}

// stock tops the list up to n values (at most its limit), so a run that
// never holds more than n at once allocates none.
func (l *freeList[T, P]) stock(n int) {
	l.mu.Lock()
	for len(l.free) < min(n, l.limit) {
		x := P(new(T))
		x.reset()
		l.free = append(l.free, x)
	}
	l.mu.Unlock()
}

// groupAgg accumulates one (platform, scenario) population segment. Cells
// are merged strictly in index order, which together with the integer
// histogram counts makes the assembled report byte-identical at any worker
// count.
type groupAgg struct {
	platform string
	scenario string
	cells    int
	skin     *stats.Histogram
	skinM    stats.Moments
	coreM    stats.Moments
	overN    uint64
	n        uint64
	freqFrac float64
	// Per-cell scalar distributions, in cell-index order.
	energies  []float64
	perfLoss  []float64
	throttles []float64
}

func newGroupAgg(platformName, scenarioName string) *groupAgg {
	return &groupAgg{
		platform: platformName,
		scenario: scenarioName,
		skin:     stats.NewHistogram(skinLoC, skinHiC, skinBins),
	}
}

func (g *groupAgg) merge(s *cellSums) {
	g.cells++
	s.addBins(g.skin)
	g.skinM.Merge(&s.skinM)
	g.coreM.Merge(&s.coreM)
	g.overN += s.overN
	g.n += s.n
	g.freqFrac += s.freqFrac
	g.energies = append(g.energies, s.metrics.EnergyJ)
	g.perfLoss = append(g.perfLoss, s.metrics.PerfLossFrac)
	g.throttles = append(g.throttles, s.metrics.ThrottleFrac)
}

// report renders the group's aggregate rows. An empty group (possible only
// for the overall row of an all-failed fleet) reports zeros, never NaN:
// the report must stay JSON-encodable. Each per-cell series is sorted once,
// in a report-local copy; the energy mean sums the index-ordered series,
// because a float sum depends on its order.
func (g *groupAgg) report() Group {
	out := Group{
		Platform: g.platform,
		Scenario: g.scenario,
		Cells:    g.cells,
		Samples:  g.n,
	}
	if g.n == 0 {
		return out
	}
	out.SkinP50C = g.skin.Quantile(0.50)
	out.SkinP95C = g.skin.Quantile(0.95)
	out.SkinP99C = g.skin.Quantile(0.99)
	out.SkinMeanC = g.skinM.Mean()
	out.SkinMaxC = g.skinM.Max()
	out.CoreMaxC = g.coreM.Max()
	out.ThrottleFrac = float64(g.overN) / float64(g.n)
	out.PerfLossMean = 1 - g.freqFrac/float64(g.n)
	out.EnergyMeanJ = stats.Mean(g.energies)
	sorted := make([]float64, len(g.energies))
	copy(sorted, g.energies)
	sort.Float64s(sorted)
	out.EnergyP50J = stats.PercentileSorted(sorted, 50)
	out.EnergyP95J = stats.PercentileSorted(sorted, 95)
	out.EnergyP99J = stats.PercentileSorted(sorted, 99)
	copy(sorted, g.perfLoss)
	sort.Float64s(sorted)
	out.PerfLossP95 = stats.PercentileSorted(sorted, 95)
	copy(sorted, g.throttles)
	sort.Float64s(sorted)
	out.ThrottleP95 = stats.PercentileSorted(sorted, 95)
	return out
}
