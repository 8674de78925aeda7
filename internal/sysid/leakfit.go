package sysid

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/power"
)

// FurnaceSample is one measurement taken inside the temperature furnace: the
// (sensed) hotspot temperature and total rail power of the resource under
// characterization, at a known operating point.
type FurnaceSample struct {
	TempC float64 // °C
	Power float64 // W (rail total: dynamic + leakage)
	Volt  float64 // V at the fixed furnace frequency
	FHz   float64 // Hz
}

// FitAlphaC estimates the effective alphaC (activity factor x switching
// capacitance, including utilization) and the leakage power at the reference
// temperature from a frequency sweep taken at a CONSTANT furnace
// temperature (the Figure 4.6 experiment):
//
//	P(f) = alphaC * V(f)^2 * f + L_ref * (V(f)/V_nom)^2
//
// The two terms scale differently with f, which makes both identifiable by
// linear least squares. vNom is the voltage the leakage reference is
// expressed at.
func FitAlphaC(samples []FurnaceSample, vNom float64) (alphaC, leakRef float64, err error) {
	if len(samples) < 2 {
		return 0, 0, errors.New("sysid: need at least two frequency points")
	}
	rows := make([][]float64, len(samples))
	b := make([]float64, len(samples))
	for i, s := range samples {
		rows[i] = []float64{s.Volt * s.Volt * s.FHz, (s.Volt / vNom) * (s.Volt / vNom)}
		b[i] = s.Power
	}
	x, err := mat.LeastSquares(mat.FromRows(rows), b)
	if err != nil {
		return 0, 0, fmt.Errorf("sysid: alphaC fit: %w", err)
	}
	return x[0], x[1], nil
}

// FitLeakage performs the non-linear fit of §4.1.1: given furnace samples
// across a temperature sweep at a FIXED operating point, and the known
// dynamic power of the light characterization workload (from FitAlphaC), it
// recovers the condensed leakage parameters (c1, c2, I_gate) of Eq. 4.2 by
// damped Gauss-Newton (Levenberg-Marquardt).
//
// The model fitted is:
//
//	P_i = P_dyn + V * (c1*Tk_i^2*exp(c2/Tk_i) + I_gate) * (V/vNom)
func FitLeakage(samples []FurnaceSample, pDyn, vNom float64) (power.LeakageParams, error) {
	if len(samples) < 3 {
		return power.LeakageParams{}, errors.New("sysid: need at least three temperature points")
	}
	v := samples[0].Volt
	scale := v * (v / vNom)

	// Initial guess: c2 from the generic subthreshold slope, I_gate small,
	// c1 from the first sample.
	c2 := -2000.0
	ig := 1e-3
	tk0 := power.CelsiusToKelvin(samples[0].TempC)
	leak0 := (samples[0].Power - pDyn) / scale
	if leak0 < 1e-6 {
		leak0 = 1e-6
	}
	c1 := leak0 / (tk0 * tk0 * math.Exp(c2/tk0))

	theta := []float64{c1, c2, ig}
	lambda := 1e-3
	// The residual, trial and Jacobian buffers are reused by every
	// iteration; each is fully rewritten before it is read.
	r, trialR := make([]float64, len(samples)), make([]float64, len(samples))
	residual := func(r, th []float64) []float64 {
		for i, s := range samples {
			tk := power.CelsiusToKelvin(s.TempC)
			model := pDyn + scale*(th[0]*tk*tk*math.Exp(th[1]/tk)+th[2])
			r[i] = s.Power - model
		}
		return r
	}
	sumsq := func(r []float64) float64 {
		s := 0.0
		for _, x := range r {
			s += x * x
		}
		return s
	}

	cost := sumsq(residual(r, theta))
	J := mat.New(len(samples), 3)
	trial := make([]float64, 3)
	for iter := 0; iter < 200; iter++ {
		// Jacobian of the residuals w.r.t. (c1, c2, I_gate).
		residual(r, theta)
		for i, s := range samples {
			tk := power.CelsiusToKelvin(s.TempC)
			e := math.Exp(theta[1] / tk)
			J.Set(i, 0, -scale*tk*tk*e)
			J.Set(i, 1, -scale*theta[0]*tk*e) // d/dc2 of c1*tk^2*exp(c2/tk) = c1*tk*e
			J.Set(i, 2, -scale)
		}
		// Solve (J^T J + lambda I) d = -J^T r.
		jt := J.T()
		jtj := jt.Mul(J)
		for d := 0; d < 3; d++ {
			jtj.Set(d, d, jtj.At(d, d)*(1+lambda))
		}
		jtr := jt.MulVec(r)
		step, err := mat.SolveLU(jtj, mat.ScaleVec(-1, jtr))
		if err != nil {
			lambda *= 10
			continue
		}
		trial[0], trial[1], trial[2] = theta[0]+step[0], theta[1]+step[1], theta[2]+step[2]
		// Keep the parameters physical: positive c1, negative c2.
		if trial[0] <= 0 {
			trial[0] = theta[0] / 2
		}
		if trial[1] >= 0 {
			trial[1] = theta[1] / 2
		}
		trialCost := sumsq(residual(trialR, trial))
		if trialCost < cost {
			copy(theta, trial)
			cost = trialCost
			lambda = math.Max(lambda/3, 1e-9)
		} else {
			lambda *= 5
			if lambda > 1e9 {
				break
			}
		}
		if cost < 1e-12 {
			break
		}
	}
	if theta[2] < 0 {
		theta[2] = 0
	}
	return power.LeakageParams{C1: theta[0], C2: theta[1], IGate: theta[2], VNom: vNom}, nil
}

// FitPowerModelJoint fits the complete static power model jointly over
// samples from BOTH furnace experiments (frequency sweep + temperature
// sweep):
//
//	P = alphaC*V^2*f + V*(c1*Tk^2*exp(c2/Tk) + I_gate)*(V/vNom)
//
// The joint fit resolves the degeneracy that separates the two-stage
// procedure's estimates: within a temperature sweep alone, a constant power
// offset is attributable to either dynamic power or gate leakage; the
// frequency sweep separates them because dynamic power scales with V^2*f
// while gate leakage scales with V^2 only. Returns the fitted alphaC and
// leakage parameters.
func FitPowerModelJoint(samples []FurnaceSample, vNom float64, init power.LeakageParams, initAlphaC float64) (float64, power.LeakageParams, error) {
	if len(samples) < 4 {
		return 0, power.LeakageParams{}, errors.New("sysid: need at least four samples for the joint fit")
	}
	// Scaled parameter vector keeps the Gauss-Newton system well
	// conditioned despite the wildly different magnitudes.
	const (
		sAC = 1e-12
		sC1 = 1e-3
		sC2 = 1e3
		sIG = 1e-2
	)
	theta := []float64{initAlphaC / sAC, init.C1 / sC1, init.C2 / sC2, init.IGate / sIG}

	model := func(th []float64, s FurnaceSample) float64 {
		tk := power.CelsiusToKelvin(s.TempC)
		ac, c1, c2, ig := th[0]*sAC, th[1]*sC1, th[2]*sC2, th[3]*sIG
		return ac*s.Volt*s.Volt*s.FHz + s.Volt*(c1*tk*tk*math.Exp(c2/tk)+ig)*(s.Volt/vNom)
	}
	// As in FitLeakage, the buffers are reused by every iteration.
	r, trialR := make([]float64, len(samples)), make([]float64, len(samples))
	residual := func(r, th []float64) []float64 {
		for i, s := range samples {
			r[i] = s.Power - model(th, s)
		}
		return r
	}
	sumsq := func(r []float64) float64 {
		t := 0.0
		for _, x := range r {
			t += x * x
		}
		return t
	}

	cost := sumsq(residual(r, theta))
	lambda := 1e-3
	J := mat.New(len(samples), 4)
	trial := make([]float64, 4)
	for iter := 0; iter < 300; iter++ {
		residual(r, theta)
		for i, s := range samples {
			tk := power.CelsiusToKelvin(s.TempC)
			e := math.Exp(theta[2] * sC2 / tk)
			vs := s.Volt * (s.Volt / vNom)
			J.Set(i, 0, -sAC*s.Volt*s.Volt*s.FHz)
			J.Set(i, 1, -sC1*vs*tk*tk*e)
			J.Set(i, 2, -sC2*vs*theta[1]*sC1*tk*e)
			J.Set(i, 3, -sIG*vs)
		}
		jt := J.T()
		jtj := jt.Mul(J)
		for d := 0; d < 4; d++ {
			jtj.Set(d, d, jtj.At(d, d)*(1+lambda)+1e-12)
		}
		step, err := mat.SolveLU(jtj, mat.ScaleVec(-1, jt.MulVec(r)))
		if err != nil {
			lambda *= 10
			continue
		}
		for d := range trial {
			trial[d] = theta[d] + step[d]
		}
		if trial[0] < 0 {
			trial[0] = 0
		}
		if trial[1] <= 0 {
			trial[1] = theta[1] / 2
		}
		if trial[2] >= 0 {
			trial[2] = theta[2] / 2
		}
		if trial[3] < 0 {
			trial[3] = 0
		}
		trialCost := sumsq(residual(trialR, trial))
		if trialCost < cost {
			copy(theta, trial)
			cost = trialCost
			lambda = math.Max(lambda/3, 1e-9)
		} else {
			lambda *= 5
			if lambda > 1e10 {
				break
			}
		}
	}
	return theta[0] * sAC, power.LeakageParams{
		C1: theta[1] * sC1, C2: theta[2] * sC2, IGate: theta[3] * sIG, VNom: vNom,
	}, nil
}
