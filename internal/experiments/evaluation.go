package experiments

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/workload"
)

// runTab6_4 regenerates Table 6.4: the benchmark list with categories and
// power classes.
func runTab6_4(*Context) (*Report, error) {
	t := Table{Columns: []string{"benchmark", "type", "class", "threads", "GPU", "nominal (s)"}}
	for _, b := range workload.Table() {
		gpu := "no"
		if b.GPUUtil > 0 {
			gpu = "yes"
		}
		t.Rows = append(t.Rows, []string{
			b.Name, b.Type, b.Class.String(),
			fmt.Sprintf("%d", b.Threads), gpu, f1(b.NominalDuration()),
		})
	}
	return &Report{ID: "tab6.4", Title: "Benchmarks used in the experiments", Tables: []Table{t}}, nil
}

// runFig6_2 regenerates Figure 6.2: the 1 s temperature prediction error
// for every benchmark.
func runFig6_2(c *Context) (*Report, error) {
	rep := &Report{ID: "fig6.2", Title: "Temperature prediction error for all benchmarks (1 s horizon)"}
	t := Table{Columns: []string{"benchmark", "mean error", "max error", "max abs (C)"}}
	benches := workload.Table()
	runs, err := c.runs(benches, sim.PolicyNoFan)
	if err != nil {
		return nil, err
	}
	var worstMean, worstMax float64
	var sumMean float64
	n := 0
	for i, b := range benches {
		res := runs[i][0]
		t.Rows = append(t.Rows, []string{b.Name, pct(res.PredMeanPct), pct(res.PredMaxPct), f2(res.PredMaxAbsC)})
		sumMean += res.PredMeanPct
		n++
		if res.PredMeanPct > worstMean {
			worstMean = res.PredMeanPct
		}
		if res.PredMaxPct > worstMax {
			worstMax = res.PredMaxPct
		}
	}
	rep.Tables = append(rep.Tables, t)
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("average of mean errors: %.2f%%; worst benchmark mean: %.2f%%; worst instantaneous: %.2f%%",
			sumMean/float64(n), worstMean, worstMax),
		"paper shape: average error below 3% (~1 C), never exceeding ~4% (1.4 C) per benchmark")
	return rep, nil
}

// tempControl builds the Figures 6.3 / 6.4 temperature-control report for
// one benchmark: max core temperature over time for the with-fan,
// without-fan, and DTPM configurations.
func tempControl(c *Context, id, bench string) (*Report, error) {
	rep := &Report{ID: id, Title: "Temperature control for " + bench}
	t := Table{Columns: []string{"config", "max (C)", "avg (C)", "time > 63C (s)", "exec (s)"}}
	bs, err := benchmarks(bench)
	if err != nil {
		return nil, err
	}
	pols := []sim.Policy{sim.PolicyNoFan, sim.PolicyFan, sim.PolicyDTPM}
	runs, err := c.runs(bs, pols...)
	if err != nil {
		return nil, err
	}
	var charts []string
	for i, pol := range pols {
		res := runs[0][i]
		s := res.Rec.Series("maxtemp")
		s.Name = pol.String()
		charts = append(charts, chart(fmt.Sprintf("%s: max core temp (C) vs time (s)", pol), 10, 72, s))
		t.Rows = append(t.Rows, []string{
			pol.String(), f1(res.MaxTemp), f1(res.AvgTemp), f1(res.OverTMax), f1(res.ExecTime),
		})
	}
	rep.Tables = append(rep.Tables, t)
	rep.Charts = charts
	rep.Notes = append(rep.Notes,
		"paper shape: without-fan blows through 63 C and keeps rising; DTPM holds the trace at the constraint without a fan")
	return rep, nil
}

func runFig6_3(c *Context) (*Report, error) { return tempControl(c, "fig6.3", "templerun") }
func runFig6_4(c *Context) (*Report, error) { return tempControl(c, "fig6.4", "basicmath") }

// runFig6_5 regenerates Figure 6.5: average temperature and max-min spread
// (and variance) for Templerun and Basicmath under the three configurations.
func runFig6_5(c *Context) (*Report, error) {
	rep := &Report{ID: "fig6.5", Title: "Thermal stability comparison for Templerun and Basicmath"}
	avg := Table{Name: "Steady-state average temperature (C)",
		Columns: []string{"config", "templerun", "basicmath"}}
	spread := Table{Name: "Steady-state max-min temperature (C)",
		Columns: []string{"config", "templerun", "basicmath"}}
	variance := Table{Name: "Steady-state temperature variance (C^2)",
		Columns: []string{"config", "templerun", "basicmath"}}
	bs, err := benchmarks("templerun", "basicmath")
	if err != nil {
		return nil, err
	}
	pols := []sim.Policy{sim.PolicyNoFan, sim.PolicyFan, sim.PolicyDTPM}
	runs, err := c.runs(bs, pols...)
	if err != nil {
		return nil, err
	}
	for i, pol := range pols {
		tr, bm := runs[0][i], runs[1][i]
		avg.Rows = append(avg.Rows, []string{pol.String(), f1(tr.SSAvgTemp), f1(bm.SSAvgTemp)})
		spread.Rows = append(spread.Rows, []string{pol.String(), f1(tr.SSSpread), f1(bm.SSSpread)})
		variance.Rows = append(variance.Rows, []string{pol.String(), f2(tr.SSTempVar), f2(bm.SSTempVar)})
	}
	rep.Tables = append(rep.Tables, avg, spread, variance)
	for i, b := range bs {
		ratio := runs[i][1].SSTempVar / runs[i][2].SSTempVar // with-fan over DTPM
		rep.Notes = append(rep.Notes,
			fmt.Sprintf("%s: DTPM variance %.1fx smaller than with-fan (paper claims ~6x)", b.Name, ratio))
	}
	return rep, nil
}

// freqTempTrace builds the Figures 6.6-6.8 report for one benchmark: the
// big-cluster frequency and the max core temperature, default (with fan)
// against DTPM.
func freqTempTrace(c *Context, id, bench string) (*Report, error) {
	rep := &Report{ID: id, Title: "Frequency and temperature for " + bench}
	t := Table{Columns: []string{"config", "exec (s)", "avg power (W)", "max (C)", "avg freq (GHz)"}}
	bs, err := benchmarks(bench)
	if err != nil {
		return nil, err
	}
	pols := []sim.Policy{sim.PolicyFan, sim.PolicyDTPM}
	runs, err := c.runs(bs, pols...)
	if err != nil {
		return nil, err
	}
	for i, pol := range pols {
		res := runs[0][i]
		fs := res.Rec.Series("freq_ghz")
		fs.Name = "freq (GHz)"
		ts := res.Rec.Series("maxtemp")
		ts.Name = "max temp (C)"
		rep.Charts = append(rep.Charts,
			chart(fmt.Sprintf("%s: frequency (GHz) vs time (s)", pol), 9, 72, fs),
			chart(fmt.Sprintf("%s: max core temp (C) vs time (s)", pol), 9, 72, ts))
		sum := 0.0
		for _, v := range fs.Vals {
			sum += v
		}
		t.Rows = append(t.Rows, []string{
			pol.String(), f1(res.ExecTime), f2(res.AvgPower), f1(res.MaxTemp),
			f2(sum / float64(len(fs.Vals))),
		})
	}
	rep.Tables = append(rep.Tables, t)
	return rep, nil
}

func runFig6_6(c *Context) (*Report, error) {
	rep, err := freqTempTrace(c, "fig6.6", "dijkstra")
	if err != nil {
		return nil, err
	}
	rep.Notes = append(rep.Notes,
		"paper shape: low activity - DTPM rarely intervenes, frequency traces match the default; ~3% saving from avoiding the fan")
	return rep, nil
}

func runFig6_7(c *Context) (*Report, error) {
	rep, err := freqTempTrace(c, "fig6.7", "patricia")
	if err != nil {
		return nil, err
	}
	rep.Notes = append(rep.Notes,
		"paper shape: medium activity - visible DTPM throttling episodes; ~8% average saving for the class")
	return rep, nil
}

func runFig6_8(c *Context) (*Report, error) {
	rep, err := freqTempTrace(c, "fig6.8", "matrixmult")
	if err != nil {
		return nil, err
	}
	rep.Notes = append(rep.Notes,
		"paper shape: high activity - sustained throttling regions while the temperature rides the constraint; ~14% class saving")
	return rep, nil
}

// savings computes the Figure 6.9 row of each benchmark: DTPM's platform
// power saving and performance loss against the with-fan default, in
// percent.
func savings(c *Context, benches []workload.Benchmark) (saving, loss []float64, err error) {
	runs, err := c.runs(benches, sim.PolicyFan, sim.PolicyDTPM)
	if err != nil {
		return nil, nil, err
	}
	saving = make([]float64, len(benches))
	loss = make([]float64, len(benches))
	for i, r := range runs {
		base, dtpm := r[0], r[1]
		saving[i] = 100 * (base.AvgPower - dtpm.AvgPower) / base.AvgPower
		loss[i] = 100 * (dtpm.ExecTime - base.ExecTime) / base.ExecTime
	}
	return saving, loss, nil
}

// runFig6_9 regenerates Figure 6.9: platform power savings and performance
// loss of DTPM against the with-fan default, for every benchmark, with the
// class averages the paper quotes (3/8/14% for low/medium/high).
func runFig6_9(c *Context) (*Report, error) {
	rep := &Report{ID: "fig6.9", Title: "Power savings and performance loss summary"}
	t := Table{Columns: []string{"benchmark", "class", "power saving", "perf loss"}}
	// The multi-threaded pair is reported separately in Figure 6.10.
	var singleThreaded []workload.Benchmark
	for _, b := range workload.Table() {
		if b.Name == "lu" || b.Name == "fft" {
			continue
		}
		singleThreaded = append(singleThreaded, b)
	}
	saving, loss, err := savings(c, singleThreaded)
	if err != nil {
		return nil, err
	}
	classSum := map[string]float64{}
	classN := map[string]float64{}
	var lossSum float64
	n := 0
	for i, b := range singleThreaded {
		t.Rows = append(t.Rows, []string{b.Name, b.Class.String(), pct(saving[i]), pct(loss[i])})
		classSum[b.Class.String()] += saving[i]
		classN[b.Class.String()]++
		lossSum += loss[i]
		n++
	}
	rep.Tables = append(rep.Tables, t)
	avgT := Table{Name: "Class averages", Columns: []string{"class", "avg power saving"}}
	avgs := map[string]float64{}
	for cls, sum := range classSum {
		avgs[cls] = sum / classN[cls]
	}
	for _, cls := range []string{"low", "medium", "high"} {
		avgT.Rows = append(avgT.Rows, []string{cls, pct(avgs[cls])})
	}
	rep.Tables = append(rep.Tables, avgT)
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("average performance loss: %.1f%% (paper: 3.3%%)", lossSum/float64(n)),
		"paper shape: savings ordered low < medium < high (~3/8/14%), loss below ~5% everywhere")
	if !(avgs["low"] < avgs["high"]) {
		rep.Notes = append(rep.Notes, "WARNING: class savings ordering violated")
	}
	return rep, nil
}

// runFig6_10 regenerates Figure 6.10: the multi-threaded pair (FFT, LU).
func runFig6_10(c *Context) (*Report, error) {
	rep := &Report{ID: "fig6.10", Title: "Power savings and performance loss, multi-threaded benchmarks"}
	t := Table{Columns: []string{"benchmark", "power saving", "perf loss"}}
	bs, err := benchmarks("fft", "lu")
	if err != nil {
		return nil, err
	}
	saving, loss, err := savings(c, bs)
	if err != nil {
		return nil, err
	}
	for i, b := range bs {
		t.Rows = append(t.Rows, []string{b.Name, pct(saving[i]), pct(loss[i])})
	}
	rep.Tables = append(rep.Tables, t)
	rep.Notes = append(rep.Notes,
		"paper shape: double-digit savings with single-digit loss for both multi-threaded benchmarks")
	return rep, nil
}
