package experiments

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/sysid"
	"repro/internal/trace"
	"repro/internal/workload"
)

// stressBenchmark returns a long-running four-thread stress load used for
// the Figure 1.1 trace (the paper runs the hot workload for ~350 s; the
// stock matrix-multiplication benchmark finishes in ~60 s, so its work is
// scaled up to fill the window).
func stressBenchmark(durS float64) (workload.Benchmark, error) {
	b, err := workload.ByName("matrixmult")
	if err != nil {
		return b, err
	}
	b.Name = "matrixmult-stress"
	b.WorkPerThread = b.Demand * workload.RefCapacity * durS
	return b, nil
}

// runFig1_1 regenerates Figure 1.1: the maximum core temperature over a
// ~350 s hot run, with and without the fan.
func runFig1_1(c *Context) (*Report, error) {
	b, err := stressBenchmark(350)
	if err != nil {
		return nil, err
	}
	runs, err := c.runs([]workload.Benchmark{b}, sim.PolicyFan, sim.PolicyNoFan)
	if err != nil {
		return nil, err
	}
	fan, nofan := runs[0][0], runs[0][1]
	fanS := fan.Rec.Series("maxtemp")
	fanS.Name = "with-fan"
	noS := nofan.Rec.Series("maxtemp")
	noS.Name = "without-fan"

	rep := &Report{ID: "fig1.1", Title: "Maximum core temperature with and without the fan"}
	rep.Charts = append(rep.Charts, chart("Max core temp (degC) vs time (s)", 14, 72, noS, fanS))
	rep.Tables = append(rep.Tables, Table{
		Name:    "Summary over the 350 s stress run",
		Columns: []string{"config", "max temp (C)", "avg temp (C)", "time > 63C (s)"},
		Rows: [][]string{
			{"with-fan", f1(fan.MaxTemp), f1(fan.AvgTemp), f1(fan.OverTMax)},
			{"without-fan", f1(nofan.MaxTemp), f1(nofan.AvgTemp), f1(nofan.OverTMax)},
		},
	})
	rep.Notes = append(rep.Notes,
		"paper shape: without the fan the temperature rises unchecked past 80 C while the fan holds it near 60 C",
		fmt.Sprintf("measured: without-fan peaks at %.1f C and is still rising; with-fan holds %.1f C max", nofan.MaxTemp, fan.MaxTemp))
	return rep, nil
}

func freqTable(id, title string, d *platform.Domain) (*Report, error) {
	t := Table{Name: title, Columns: []string{"Frequency (MHz)"}}
	for _, mhz := range platform.FreqTableMHz(d) {
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%.0f", mhz)})
	}
	return &Report{ID: id, Title: title, Tables: []Table{t}}, nil
}

func runTab6_1(*Context) (*Report, error) {
	return freqTable("tab6.1", "Frequency table for the big CPU cluster", platform.BigDomain())
}

func runTab6_2(*Context) (*Report, error) {
	return freqTable("tab6.2", "Frequency table for the little CPU cluster", platform.LittleDomain())
}

func runTab6_3(*Context) (*Report, error) {
	return freqTable("tab6.3", "Frequency table for the GPU", platform.GPUDomainTable())
}

// furnaceRig builds the §4.1.1 experimental rig on the context's device.
func furnaceRig(c *Context) *sysid.Rig {
	rig := sysid.NewRig(c.Seed)
	rig.GT = c.Runner.GT
	rig.Thermal = c.Runner.Thermal
	return rig
}

// runFig4_2 regenerates Figure 4.2: total CPU power inside the furnace at
// 40..80 C setpoints with a light fixed-frequency workload.
func runFig4_2(c *Context) (*Report, error) {
	rig := furnaceRig(c)
	setpoints := []float64{40, 50, 60, 70, 80}
	samples, err := rig.FurnaceTempSweep(setpoints, platform.MHzToKHz(1200), 40)
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: "fig4.2", Title: "Total CPU power measurement data from the furnace"}
	t := Table{
		Name:    "Furnace sweep at 1.2 GHz, light load",
		Columns: []string{"setpoint (C)", "mean CPU power (W)", "min (W)", "max (W)"},
	}
	series := &trace.Series{Name: "CPU power (W)"}
	for i, sp := range setpoints {
		var vals []float64
		for _, s := range samples {
			if s.TempC > sp-5 && s.TempC < sp+5 {
				vals = append(vals, s.Power)
			}
		}
		if len(vals) == 0 {
			continue
		}
		t.Rows = append(t.Rows, []string{f1(sp), f2(stats.Mean(vals)), f2(stats.Min(vals)), f2(stats.Max(vals))})
		series.Append(float64(i), stats.Mean(vals))
	}
	rep.Tables = append(rep.Tables, t)
	rep.Charts = append(rep.Charts, chart("Mean CPU power (W) vs furnace step", 10, 60, series))
	rep.Notes = append(rep.Notes,
		"paper shape: total power rises from ~0.45 W at 40 C to ~0.58 W at 80 C with constant dynamic power (Fig. 4.2)")
	return rep, nil
}

// runFig4_3 regenerates Figure 4.3: the fitted leakage power law over
// temperature.
func runFig4_3(c *Context) (*Report, error) {
	leak := c.Char.Leakage
	chip := platform.NewChip()
	v, err := chip.BigCluster.Domain.VoltAt(platform.MHzToKHz(1600))
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: "fig4.3", Title: "Leakage power variation with temperature"}
	t := Table{Name: "Fitted big-cluster leakage at 1.6 GHz voltage",
		Columns: []string{"temp (C)", "fitted leakage (W)", "ground truth (W)"}}
	series := &trace.Series{Name: "fitted leakage (W)"}
	gtSeries := &trace.Series{Name: "ground truth (W)"}
	var worst float64
	for temp := 40.0; temp <= 80.0; temp += 5 {
		fit := leak.Power(temp, v)
		gt := c.Runner.GT.Res[platform.Big].Leak.Power(temp, v)
		t.Rows = append(t.Rows, []string{f1(temp), f2(fit), f2(gt)})
		series.Append(temp, fit)
		gtSeries.Append(temp, gt)
		if e := 100 * math.Abs(fit-gt) / gt; e > worst {
			worst = e
		}
	}
	rep.Tables = append(rep.Tables, t)
	rep.Charts = append(rep.Charts, chart("Leakage power (W) vs temperature (C)", 10, 60, series, gtSeries))
	rep.Notes = append(rep.Notes,
		"paper shape: leakage grows exponentially, roughly 0.10 W at 40 C to 0.27 W at 80 C",
		fmt.Sprintf("fit vs ground truth worst-case error over 40-80 C: %.1f%%", worst))
	return rep, nil
}

// runFig4_5 regenerates Figure 4.5: leakage and dynamic power split over
// temperature at a fixed 1.6 GHz.
func runFig4_5(c *Context) (*Report, error) {
	rig := furnaceRig(c)
	setpoints := []float64{40, 50, 60, 70, 80}
	samples, err := rig.FurnaceTempSweep(setpoints, platform.MHzToKHz(1600), 40)
	if err != nil {
		return nil, err
	}
	chip := platform.NewChip()
	v, err := chip.BigCluster.Domain.VoltAt(platform.MHzToKHz(1600))
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: "fig4.5", Title: "Leakage and dynamic power variation with temperature (f = 1.6 GHz)"}
	t := Table{Columns: []string{"temp (C)", "leakage (W)", "dynamic (W)"}}
	leakS := &trace.Series{Name: "leakage (W)"}
	dynS := &trace.Series{Name: "dynamic (W)"}
	for _, sp := range setpoints {
		var dyn, lk []float64
		for _, s := range samples {
			if s.TempC > sp-5 && s.TempC < sp+5 {
				d, l := c.Char.Power.SplitMeasured(platform.Big, s.Power, s.TempC, v)
				dyn = append(dyn, d)
				lk = append(lk, l)
			}
		}
		if len(dyn) == 0 {
			continue
		}
		t.Rows = append(t.Rows, []string{f1(sp), f2(stats.Mean(lk)), f2(stats.Mean(dyn))})
		leakS.Append(sp, stats.Mean(lk))
		dynS.Append(sp, stats.Mean(dyn))
	}
	rep.Tables = append(rep.Tables, t)
	rep.Charts = append(rep.Charts, chart("Power split (W) vs temperature (C)", 10, 60, leakS, dynS))
	rep.Notes = append(rep.Notes,
		"paper shape: dynamic power is flat across temperature; leakage rises exponentially")
	return rep, nil
}

// runFig4_6 regenerates Figure 4.6: leakage and dynamic power over
// frequency at a constant furnace temperature.
func runFig4_6(c *Context) (*Report, error) {
	rig := furnaceRig(c)
	samples, err := rig.FurnaceFreqSweep(50, 30)
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: "fig4.6", Title: "Leakage and dynamic power variation with frequency (T = 50 C)"}
	t := Table{Columns: []string{"freq (MHz)", "leakage (W)", "dynamic (W)"}}
	leakS := &trace.Series{Name: "leakage (W)"}
	dynS := &trace.Series{Name: "dynamic (W)"}
	byFreq := map[float64][]sysid.FurnaceSample{}
	for _, s := range samples {
		byFreq[s.FHz] = append(byFreq[s.FHz], s)
	}
	freqs := make([]float64, 0, len(byFreq))
	for f := range byFreq {
		freqs = append(freqs, f)
	}
	slices.Sort(freqs)
	for _, f := range freqs {
		var dyn, lk []float64
		for _, s := range byFreq[f] {
			d, l := c.Char.Power.SplitMeasured(platform.Big, s.Power, s.TempC, s.Volt)
			dyn = append(dyn, d)
			lk = append(lk, l)
		}
		mhz := f / 1e6
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%.0f", mhz), f2(stats.Mean(lk)), f2(stats.Mean(dyn))})
		leakS.Append(mhz, stats.Mean(lk))
		dynS.Append(mhz, stats.Mean(dyn))
	}
	rep.Tables = append(rep.Tables, t)
	rep.Charts = append(rep.Charts, chart("Power split (W) vs frequency (MHz)", 10, 60, leakS, dynS))
	rep.Notes = append(rep.Notes,
		"paper shape: dynamic power rises steeply with frequency; leakage rises only slightly (through voltage)")
	return rep, nil
}

// runFig4_7 regenerates Figure 4.7: the combined power model against
// measured totals across the furnace temperature sweep.
func runFig4_7(c *Context) (*Report, error) {
	rig := furnaceRig(c)
	setpoints := []float64{40, 50, 60, 70, 80}
	freq := platform.MHzToKHz(1200)
	samples, err := rig.FurnaceTempSweep(setpoints, freq, 40)
	if err != nil {
		return nil, err
	}
	chip := platform.NewChip()
	v, err := chip.BigCluster.Domain.VoltAt(freq)
	if err != nil {
		return nil, err
	}
	// Train the model's activity estimate on the first half, validate the
	// prediction on the second half.
	half := len(samples) / 2
	for _, s := range samples[:half] {
		c.Char.Power.At(platform.Big, s.TempC).Observe(s.Power, v, freq)
	}
	var measured, predicted []float64
	for _, s := range samples[half:] {
		measured = append(measured, s.Power)
		predicted = append(predicted, c.Char.Power.At(platform.Big, s.TempC).PredictTotal(v, freq))
	}
	rep := &Report{ID: "fig4.7", Title: "Power model validation"}
	t := Table{Columns: []string{"metric", "value"}}
	meanErr := stats.PercentError(measured, predicted)
	maxErr := stats.MaxPercentError(measured, predicted)
	t.Rows = append(t.Rows,
		[]string{"validation samples", fmt.Sprintf("%d", len(measured))},
		[]string{"mean |error|", pct(meanErr)},
		[]string{"max |error|", pct(maxErr)},
		[]string{"RMSE (W)", fmt.Sprintf("%.3f", stats.RMSE(measured, predicted))},
	)
	rep.Tables = append(rep.Tables, t)
	rep.Notes = append(rep.Notes,
		"paper shape: predicted total power overlays the measured curve across 40-80 C (Fig. 4.7)")
	if meanErr > 5 {
		rep.Notes = append(rep.Notes, "WARNING: mean power-model error above 5%")
	}
	return rep, nil
}

// runFig4_8 regenerates Figure 4.8: the PRBS excitation of the big cluster
// and the resulting core temperature.
func runFig4_8(c *Context) (*Report, error) {
	rig := furnaceRig(c)
	ds, err := rig.CollectPRBS(sysid.DefaultPRBSConfig(platform.Big))
	if err != nil {
		return nil, err
	}
	power := &trace.Series{Name: "big cluster power (W)"}
	temp := &trace.Series{Name: "core0 temp (C)"}
	for k := 0; k < ds.Len(); k += 10 { // decimate to 1 s for plotting
		t := float64(k) * ds.Ts
		power.Append(t, ds.Powers[k][platform.Big])
		temp.Append(t, ds.Temps[k][0])
	}
	rep := &Report{ID: "fig4.8", Title: "PRBS test signal for the big cluster"}
	rep.Charts = append(rep.Charts,
		chart("(a) Big cluster power (W) vs time (s)", 10, 72, power),
		chart("(b) Core 0 temperature (C) vs time (s)", 10, 72, temp))
	rep.Tables = append(rep.Tables, Table{
		Columns: []string{"metric", "value"},
		Rows: [][]string{
			{"duration (s)", f1(float64(ds.Len()) * ds.Ts)},
			{"power swing (W)", fmt.Sprintf("%.2f - %.2f", stats.Min(power.Vals), stats.Max(power.Vals))},
			{"temp swing (C)", fmt.Sprintf("%.1f - %.1f", stats.Min(temp.Vals), stats.Max(temp.Vals))},
		},
	})
	rep.Notes = append(rep.Notes,
		"paper shape: ~1050 s of pseudo-random power toggling between ~0.5 and ~2.7 W moving core temps across a 40-70 C band")
	return rep, nil
}

// runFig4_9 regenerates Figure 4.9: predicted vs measured core temperature
// for Blowfish at a 1 s prediction interval.
func runFig4_9(c *Context) (*Report, error) {
	bs, err := benchmarks("blowfish")
	if err != nil {
		return nil, err
	}
	runs, err := c.runs(bs, sim.PolicyNoFan)
	if err != nil {
		return nil, err
	}
	res := runs[0][0]
	meas := res.Rec.Series("maxtemp")
	meas.Name = "measured temp (C)"
	pred := res.Rec.Series("predmax_c")
	pred.Name = "predicted temp (C)"
	rep := &Report{ID: "fig4.9", Title: "Thermal model validation for Blowfish, 1 s prediction interval"}
	rep.Charts = append(rep.Charts, chart("Core temp (C) vs time (s)", 12, 72, meas, pred))
	rep.Tables = append(rep.Tables, Table{
		Columns: []string{"metric", "value"},
		Rows: [][]string{
			{"mean prediction error", pct(res.PredMeanPct)},
			{"max prediction error", pct(res.PredMaxPct)},
			{"max absolute error (C)", f2(res.PredMaxAbsC)},
		},
	})
	rep.Notes = append(rep.Notes,
		"paper shape: predicted temperature tracks the measured trace; average error below 3% (~1 C) at a 1 s horizon")
	return rep, nil
}

// runFig4_10 regenerates Figure 4.10: average prediction error as the
// horizon grows from 0.1 s to 5 s, on the Templerun game.
func runFig4_10(c *Context) (*Report, error) {
	b, err := workload.ByName("templerun")
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: "fig4.10", Title: "Average temperature prediction error vs horizon (Templerun)"}
	t := Table{Columns: []string{"horizon (s)", "mean error", "max error"}}
	series := &trace.Series{Name: "mean error (%)"}
	for _, horizon := range []int{1, 5, 10, 20, 30, 40, 50} {
		res, err := c.Runner.Run(c.ctx, sim.Options{
			Policy: sim.PolicyNoFan, Bench: b, Seed: c.Seed + 5,
			Model: c.Char.Thermal, PowerModel: c.Char.Power,
			PredHorizon: horizon,
		})
		if err != nil {
			return nil, err
		}
		h := float64(horizon) * 0.1
		t.Rows = append(t.Rows, []string{f1(h), pct(res.PredMeanPct), pct(res.PredMaxPct)})
		series.Append(h, res.PredMeanPct)
	}
	rep.Tables = append(rep.Tables, t)
	rep.Charts = append(rep.Charts, chart("Mean prediction error (%) vs horizon (s)", 10, 60, series))
	rep.Notes = append(rep.Notes,
		"paper shape: error below 3% at 1 s, growing moderately to ~7% at 5 s (Fig. 4.10)")
	return rep, nil
}
