package power

import (
	"fmt"

	"repro/internal/platform"
)

// AlphaCEstimator performs the run-time computation of Figure 4.4: every
// control interval the measured total power of a domain is split into
// leakage (from the fitted leakage model) and dynamic power, and the product
// of the activity factor and switching capacitance is extracted:
//
//	alphaC = (P_total - P_leak(T, V)) / (V^2 * f)
//
// The estimate is smoothed with an exponential moving average so that a
// single noisy sensor reading does not swing the prediction. The estimated
// alphaC absorbs the current utilization, matching the paper's use: "this
// model is used to predict the dynamic power consumption before any decision
// on the frequency is made" under the current activity.
type AlphaCEstimator struct {
	// Smoothing is the EWMA weight of the newest sample, in (0, 1].
	Smoothing float64

	value float64
	seen  bool
}

// NewAlphaCEstimator returns an estimator with the given smoothing weight.
func NewAlphaCEstimator(smoothing float64) *AlphaCEstimator {
	if smoothing <= 0 || smoothing > 1 {
		smoothing = 0.5
	}
	return &AlphaCEstimator{Smoothing: smoothing}
}

// Update ingests one sensor observation: measured domain power (W), fitted
// leakage power (W), voltage (V), and frequency. It returns the new estimate.
func (e *AlphaCEstimator) Update(measuredPower, leakPower, volt float64, f platform.KHz) float64 {
	dyn := measuredPower - leakPower
	if dyn < 0 {
		dyn = 0
	}
	denom := volt * volt * f.Hz()
	if denom <= 0 {
		return e.value
	}
	sample := dyn / denom
	if !e.seen {
		e.value = sample
		e.seen = true
	} else {
		e.value = e.Smoothing*sample + (1-e.Smoothing)*e.value
	}
	return e.value
}

// Value returns the current estimate (farads); zero before the first update.
func (e *AlphaCEstimator) Value() float64 { return e.value }

// Reset clears the estimator (used after cluster migration, when the
// activity moves to a different core type).
func (e *AlphaCEstimator) Reset() { e.value, e.seen = 0, false }

// Model is the kernel-resident power model of §4.1: a fitted leakage law and
// a continuously updated alphaC estimate per power domain. It exposes the
// two predictions the DTPM algorithm needs: the power a domain would draw at
// a candidate frequency, and the frequency affordable under a dynamic power
// budget (Eq. 5.7).
type Model struct {
	Leak   [platform.NumResources]LeakageParams
	AlphaC [platform.NumResources]*AlphaCEstimator
}

// NewModel builds a power model from fitted leakage parameters.
func NewModel(leak [platform.NumResources]LeakageParams) *Model {
	m := &Model{Leak: leak}
	for i := range m.AlphaC {
		m.AlphaC[i] = NewAlphaCEstimator(0.5)
	}
	return m
}

// Clone returns an independent copy of the model: the fitted leakage
// parameters and the current alphaC estimates are carried over, but further
// Observe calls on the clone never touch the original (and vice versa).
// sim.Run hands each DTPM controller a clone, so concurrent simulation
// cells can share one fitted model without racing on the estimators, and a
// run's outcome does not depend on which runs preceded it.
func (m *Model) Clone() *Model {
	c := &Model{Leak: m.Leak}
	for i := range c.AlphaC {
		est := *m.AlphaC[i]
		c.AlphaC[i] = &est
	}
	return c
}

// At binds resource r of the model to temperature tC: the run-time
// model's temperature-dependent questions (observing a reading, predicting
// the total power at a candidate operating point, walking the DVFS table
// against a budget) are asked through the returned view. It evaluates r's
// fitted leakage law at tC once and reuses it for every voltage it is
// asked about. The view is call-local — the model itself keeps no memo, so
// a shared model stays safe to read concurrently — and its estimator
// updates land in m.
func (m *Model) At(r platform.Resource, tC float64) ModelAt {
	return ModelAt{m: m, r: r, leak: m.Leak[r].At(tC)}
}

// ModelAt is one resource of a Model at one temperature (see Model.At).
type ModelAt struct {
	m    *Model
	r    platform.Resource
	leak Leakage
}

// Observe updates the alphaC estimate from a sensor reading taken at
// voltage v and frequency f.
func (a ModelAt) Observe(measuredPower, v float64, f platform.KHz) {
	a.m.AlphaC[a.r].Update(measuredPower, a.leak.Power(v), v, f)
}

// LeakagePower returns the fitted leakage power at voltage v.
func (a ModelAt) LeakagePower(v float64) float64 { return a.leak.Power(v) }

// PredictTotal predicts the total power at a candidate operating point:
// dynamic (Eq. 4.1) plus fitted leakage (Eq. 4.2).
func (a ModelAt) PredictTotal(v float64, f platform.KHz) float64 {
	return a.m.PredictDynamic(a.r, v, f) + a.leak.Power(v)
}

// QuantizeBudgetFreq walks the DVFS table of a domain downward and returns
// the highest frequency whose predicted TOTAL power fits totalBudget. This
// refines Eq. 5.7 by accounting for the voltage change at each step (the
// paper computes f_budget at the current Vdd; the table walk is the
// discrete equivalent, see DESIGN.md §5). The boolean reports whether even
// the minimum step fits the budget.
func (a ModelAt) QuantizeBudgetFreq(d *platform.Domain, totalBudget float64) (platform.KHz, bool) {
	for i := d.NumOPPs() - 1; i >= 0; i-- {
		opp := d.OPPs[i]
		if a.PredictTotal(opp.Volt, opp.Freq) <= totalBudget {
			return opp.Freq, true
		}
	}
	return d.MinFreq(), false
}

// PredictDynamic predicts the dynamic power of resource r at a candidate
// voltage/frequency, assuming the current activity persists.
func (m *Model) PredictDynamic(r platform.Resource, v float64, f platform.KHz) float64 {
	return m.AlphaC[r].Value() * v * v * f.Hz()
}

// FBudget solves Equation 5.7 for the frequency corresponding to a dynamic
// power budget at supply voltage v:
//
//	P_budget = alphaC * V^2 * f_budget  =>  f_budget = P_budget / (alphaC V^2)
//
// It returns an error when no activity estimate is available yet.
func (m *Model) FBudget(r platform.Resource, dynBudget, v float64) (platform.KHz, error) {
	ac := m.AlphaC[r].Value()
	if ac <= 0 {
		return 0, fmt.Errorf("power: no alphaC estimate for %s yet", r)
	}
	if dynBudget <= 0 {
		return 0, nil
	}
	fHz := dynBudget / (ac * v * v)
	return platform.KHz(fHz / 1e3), nil
}

// SplitMeasured splits a measured total power into (dynamic, leakage) using
// the fitted leakage law, clamping dynamic at zero — the decomposition step
// of Figure 4.4.
func (m *Model) SplitMeasured(r platform.Resource, measuredPower, tC, v float64) (dyn, leak float64) {
	leak = m.Leak[r].Power(tC, v)
	dyn = measuredPower - leak
	if dyn < 0 {
		dyn = 0
	}
	return dyn, leak
}
