package fleet

import (
	"sync"

	"repro/internal/platform"
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

// cellAgg folds one device's per-interval samples online: a fixed-bin
// skin-temperature histogram, min/max/sum moments, and three counters.
// Allocated once per cell; the per-sample path allocates nothing. Core
// temperature keeps only its moments (the report's CoreMaxC) — no
// histogram, since no percentile over it is reported.
type cellAgg struct {
	tmax     float64
	maxGHz   float64
	skin     *stats.Histogram
	skinM    stats.Moments
	coreM    stats.Moments
	overN    uint64
	n        uint64
	freqFrac float64

	res *sim.Result
}

// aggPool recycles cell aggregators — the histogram backing dominates a
// cell's footprint, and the collector returns each one the moment its
// merge folds it, so a million-cell fleet (computed or served from the
// store) cycles through a worker-count-sized set of them instead of
// allocating a million. The pool refills whenever a run holds more
// aggregators at once than the last collection left it (a worker stalled
// behind the merge frontier widens the pending window), so a new one is a
// single allocation: the aggregator, its histogram and the bins together.
var aggPool = sync.Pool{New: func() any {
	a := new(struct {
		agg  cellAgg
		skin stats.Histogram
		bins [skinBins]uint64
	})
	a.skin = stats.Histogram{Lo: skinLoC, Hi: skinHiC, Bins: a.bins[:]}
	a.agg.skin = &a.skin
	return &a.agg
}}

func newCellAgg(desc *platform.Descriptor, tmax float64) *cellAgg {
	a := aggPool.Get().(*cellAgg)
	a.tmax = tmax
	a.maxGHz = desc.Big.Domain.MaxFreq().GHz()
	return a
}

// releaseCellAgg returns a merged aggregator to the pool. Callers must be
// the last reader: the store writer only ever sees encoded bytes, and a
// failed unit's abandoned aggregators are deliberately NOT released (the
// panic path can't prove the batch kernel dropped every reference).
func releaseCellAgg(a *cellAgg) {
	if a == nil {
		return
	}
	a.skin.Reset()
	a.skinM = stats.Moments{}
	a.coreM = stats.Moments{}
	a.overN, a.n = 0, 0
	a.freqFrac = 0
	a.res = nil
	aggPool.Put(a)
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

// finish closes the aggregate with the run's scalar outcome.
func (a *cellAgg) finish(res *sim.Result) { a.res = res }

// metrics renders the fixed-size per-cell summary.
func (a *cellAgg) metrics() *CellMetrics {
	m := &CellMetrics{Samples: a.n}
	if a.res != nil {
		m.Completed = a.res.Completed
		m.ExecS = a.res.ExecTime
		m.EnergyJ = a.res.Energy
		m.AvgPowerW = a.res.AvgPower
	}
	if a.n > 0 {
		m.ThrottleFrac = float64(a.overN) / float64(a.n)
		m.PerfLossFrac = 1 - a.freqFrac/float64(a.n)
		m.MaxSkinC = a.skinM.Max()
		m.MaxCoreC = a.coreM.Max()
	}
	return m
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

func (g *groupAgg) merge(a *cellAgg, m *CellMetrics) {
	g.cells++
	g.skin.Merge(a.skin)
	g.skinM.Merge(&a.skinM)
	g.coreM.Merge(&a.coreM)
	g.overN += a.overN
	g.n += a.n
	g.freqFrac += a.freqFrac
	g.energies = append(g.energies, m.EnergyJ)
	g.perfLoss = append(g.perfLoss, m.PerfLossFrac)
	g.throttles = append(g.throttles, m.ThrottleFrac)
}

// report renders the group's aggregate rows. An empty group (possible only
// for the overall row of an all-failed fleet) reports zeros, never NaN:
// the report must stay JSON-encodable.
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
	out.EnergyP50J = stats.Percentile(g.energies, 50)
	out.EnergyP95J = stats.Percentile(g.energies, 95)
	out.EnergyP99J = stats.Percentile(g.energies, 99)
	out.PerfLossP95 = stats.Percentile(g.perfLoss, 95)
	out.ThrottleP95 = stats.Percentile(g.throttles, 95)
	return out
}
