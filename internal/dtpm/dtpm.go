// Package dtpm implements the paper's primary contribution: the predictive
// dynamic thermal and power management algorithm of Chapter 5.
//
// Every control interval (100 ms) the controller:
//
//  1. updates the run-time power model from sensor readings (Figure 4.4),
//  2. predicts the temperature one second ahead (10 intervals) under the
//     configuration the default governor intends to run (Figure 3.1),
//  3. if no thermal violation is predicted, affirms the defaults — the
//     framework is non-intrusive below the constraint (§3),
//  4. otherwise computes the power budget from the hottest core's row of
//     the identified thermal model (Equations 5.4-5.6), converts the
//     dynamic budget to a frequency cap (Eq. 5.7/5.8), and if the budget
//     cannot be met walks the degradation ladder: turn off the hottest big
//     core (Eq. 5.9) -> migrate to the little cluster -> throttle the GPU
//     (§5.2: "moving to the little cluster and reducing the GPU frequency
//     are used as the last resort").
//
// The controller also implements the inverse ladder: limits are relaxed
// step by step once predictions stay safely below the constraint.
package dtpm

import (
	"fmt"

	"repro/internal/mat"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/sysid"
)

// Config holds the DTPM tuning parameters.
type Config struct {
	// TMax is the temperature constraint in °C (the paper uses 63 °C, the
	// fan controller's mid threshold, for a fair comparison, §6.3.2).
	TMax float64
	// HorizonIntervals is the prediction horizon in control intervals
	// (10 x 100 ms = 1 s, §5: "we use a prediction interval of 1s").
	HorizonIntervals int
	// Delta is the core-imbalance threshold of Eq. 5.9 in °C: the hottest
	// core is put to sleep when it exceeds another core by Delta.
	Delta float64
	// Guard is the control guard band in °C: the power budget targets
	// TMax - Guard so that prediction error and the unobservable board
	// drift do not push the regulated temperature above the constraint.
	Guard float64
	// AsymGain scales the asymmetry margin. The identified model attributes
	// cluster power to the cores with the distribution seen during the PRBS
	// experiments (roughly uniform); when the scheduler concentrates load on
	// one core the model under-predicts that core's temperature by an
	// amount that grows with the observed core-to-core spread. The margin
	// AsymGain * (T_hot - T_mean) is added to the predicted maximum to
	// compensate (Eq. 5.9 exists for exactly this runaway-core situation).
	AsymGain float64
	// ReleaseMargin is how far (°C) below TMax predictions must fall
	// before a limit is relaxed one step.
	ReleaseMargin float64
	// ReleaseIntervals is how many consecutive safe intervals are required
	// per relaxation step.
	ReleaseIntervals int
	// OneStepBudget computes the power budget with the literal one-step
	// Eq. 5.5 instead of its horizon form. Kept as an ablation switch: the
	// one-step budget under-throttles while the temperature is rising and
	// collapses once the constraint is crossed (see EXPERIMENTS.md).
	OneStepBudget bool
	// EscalateIntervals is how many consecutive intervals the power budget
	// must stay unmeetable at the minimum frequency before the ladder
	// escalates (shedding a core, then leaving the big cluster). Escalation
	// patience prevents a single transient from hotplugging cores.
	EscalateIntervals int
	// MinBigCores is the fewest big cores DTPM keeps online before
	// migrating to the little cluster (§5.2 uses three).
	MinBigCores int
}

// DefaultConfig returns the paper's parameters.
func DefaultConfig() Config {
	return Config{
		TMax:              63,
		HorizonIntervals:  10,
		Delta:             2.5,
		Guard:             1.5,
		AsymGain:          0.6,
		ReleaseMargin:     4,
		ReleaseIntervals:  20,
		EscalateIntervals: 8,
		MinBigCores:       3,
	}
}

// Limits are the configuration caps DTPM currently imposes. The default
// governor's choices are clamped against them.
type Limits struct {
	// BigFreqCap caps the big-cluster frequency (0 = uncapped).
	BigFreqCap platform.KHz
	// LittleFreqCap caps the little-cluster frequency (0 = uncapped).
	LittleFreqCap platform.KHz
	// MaxBigCores is the number of big cores allowed online (4 = all).
	MaxBigCores int
	// ForceLittle moves execution to the little cluster.
	ForceLittle bool
	// GPUFreqCap caps the GPU frequency (0 = uncapped).
	GPUFreqCap platform.KHz
	// OfflineCore requests this core be put to sleep NOW (-1 = none); the
	// kernel migrates its tasks (§5.2).
	OfflineCore int
}

// Unlimited returns limits that impose nothing on a chip with bigCores
// big-cluster cores.
func Unlimited(bigCores int) Limits {
	return Limits{MaxBigCores: bigCores, OfflineCore: -1}
}

// Inputs are the sensor observations for one control interval.
type Inputs struct {
	// Temps are the sensed big-core hotspot temperatures (°C), one per
	// hotspot node of the platform.
	Temps []float64
	// Powers are the sensed domain powers (W) in Eq. 5.3 order.
	Powers [sysid.NumInputs]float64
	// GovernorFreq is the frequency the default governor wants for the
	// active cluster.
	GovernorFreq platform.KHz
	// GPUActive indicates the GPU is in use (games/video).
	GPUActive bool
}

// Decision records what the controller concluded in one interval.
type Decision struct {
	// Violation is true when a thermal violation was predicted.
	Violation bool
	// PredictedMax is the predicted hottest-core temperature at the
	// horizon under the default configuration (°C).
	PredictedMax float64
	// HottestCore is the index of the predicted-hottest core.
	HottestCore int
	// TotalBudget is the big-cluster total power budget (W) when a
	// violation was predicted (Eq. 5.5).
	TotalBudget float64
	// DynamicBudget is the budget minus fitted leakage (Eq. 5.6).
	DynamicBudget float64
	// FBudget is the continuous Eq. 5.7 frequency (before quantization).
	FBudget platform.KHz
	// Limits are the caps now in force.
	Limits Limits
}

// Controller is the DTPM kernel module.
type Controller struct {
	Cfg   Config
	Model *sysid.ThermalModel
	Power *power.Model

	limits     Limits
	safeCount  int
	unmetCount int

	// Per-interval scratch buffers: Update runs every 100 ms kernel tick
	// in every simulation cell, so the prediction vectors are preallocated
	// here (sized to the model order) and reused instead of being rebuilt
	// each call. A Controller is consequently not safe for concurrent use —
	// each simulation cell owns its own (sim.Run builds one per run).
	pvec      [sysid.NumInputs]float64
	pred      []float64
	predictor *sysid.Predictor

	// The HorizonGains of horizon gainsN, kept here so the budget path
	// does not take the shared model's mutex every interval. Keyed by the
	// horizon, so a later change to Cfg still gets the right gains.
	gainsN int
	an, bn *mat.Mat
}

// NewController builds a controller from the identified thermal model and
// the fitted power model.
func NewController(cfg Config, tm *sysid.ThermalModel, pm *power.Model) (*Controller, error) {
	if tm == nil || pm == nil {
		return nil, fmt.Errorf("dtpm: thermal and power models are required")
	}
	if cfg.TMax <= 0 || cfg.HorizonIntervals < 1 {
		return nil, fmt.Errorf("dtpm: invalid config %+v", cfg)
	}
	if cfg.MinBigCores < 1 {
		return nil, fmt.Errorf("dtpm: MinBigCores %d out of range", cfg.MinBigCores)
	}
	if !tm.Stable() {
		return nil, fmt.Errorf("dtpm: identified thermal model is unstable")
	}
	return &Controller{
		Cfg: cfg, Model: tm, Power: pm,
		// MaxBigCores is synced to the chip's core count on the first
		// Update (the controller meets its chip only then).
		limits:    Limits{MaxBigCores: 0, OfflineCore: -1},
		pred:      make([]float64, tm.States()),
		predictor: tm.NewPredictor(),
	}, nil
}

// Limits returns the caps currently in force.
func (c *Controller) Limits() Limits { return c.limits }

// asymMargin returns the asymmetry compensation in °C: AsymGain times the
// current hottest-core excursion above the core mean.
func (c *Controller) asymMargin(temps []float64) float64 {
	if c.Cfg.AsymGain <= 0 {
		return 0
	}
	hot, _ := maxAt(temps)
	mean := 0.0
	for _, t := range temps {
		mean += t
	}
	mean /= float64(len(temps))
	if hot <= mean {
		return 0
	}
	return c.Cfg.AsymGain * (hot - mean)
}

// minOf returns the smallest entry.
func minOf(v []float64) float64 {
	m := v[0]
	for _, x := range v[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// maxAt returns the max entry and its index.
func maxAt(v []float64) (float64, int) {
	m, idx := v[0], 0
	for i, x := range v[1:] {
		if x > m {
			m, idx = x, i+1
		}
	}
	return m, idx
}

// predictedPowers builds the power vector used for prediction: the big
// cluster at the candidate frequency (with the activity estimated by the
// run-time model), other domains at their current measured draw (Fig. 3.1:
// "the proposed power model uses the choice made by the default
// configuration to predict the power consumption before taking any
// action"). pm is the active cluster's power model at the hottest sensed
// temperature.
func (c *Controller) predictedPowers(chip *platform.Chip, in Inputs, f platform.KHz, pm power.ModelAt) []float64 {
	p := c.pvec[:]
	copy(p, in.Powers[:])
	if chip.ActiveKind() == platform.BigCluster {
		v, err := chip.BigCluster.Domain.VoltAt(f)
		if err == nil {
			p[platform.Big] = pm.PredictTotal(v, f)
		}
	}
	return p
}

// Update runs one control interval. The chip is inspected, never mutated;
// the caller (kernel glue) applies the returned limits.
func (c *Controller) Update(chip *platform.Chip, in Inputs) Decision {
	if c.limits.MaxBigCores == 0 {
		// First interval: no core limit in force yet.
		c.limits.MaxBigCores = chip.BigCluster.NumCores()
	}
	dec := Decision{Limits: c.limits}
	dec.Limits.OfflineCore = -1
	c.limits.OfflineCore = -1

	// Every power-model question of this interval is about the active
	// cluster at the hottest sensed temperature, so its leakage law is
	// evaluated there once (the observation, the prediction vector, the
	// budget's leakage share and every DVFS step the ladder probes).
	tmax, _ := maxAt(in.Temps)
	res, cl := platform.Big, chip.BigCluster
	if chip.ActiveKind() != platform.BigCluster {
		res, cl = platform.Little, chip.LittleCluster
	}
	pm := c.Power.At(res, tmax)

	// Run-time power model update (Figure 4.4) for the active cluster.
	pm.Observe(in.Powers[res], cl.Volt(), cl.Freq())

	// Predict under the governor's intended configuration, with the
	// asymmetry margin compensating the aggregate power attribution.
	intended := in.GovernorFreq
	pvec := c.predictedPowers(chip, in, intended, pm)
	pred := c.predictor.PredictConstInto(c.pred, in.Temps, pvec, c.Cfg.HorizonIntervals)
	dec.PredictedMax, dec.HottestCore = maxAt(pred)
	dec.PredictedMax += c.asymMargin(in.Temps)

	// The intervention threshold matches the budget target (TMax - Guard;
	// the asymmetry margin is already inside PredictedMax): triggering at
	// the same level the budget steers to is what lets the controller
	// degrade smoothly instead of demanding an instantaneous temperature
	// drop on the first violation.
	if dec.PredictedMax <= c.Cfg.TMax-c.Cfg.Guard {
		// No violation predicted. While a frequency cap is in force, keep
		// it tracking the budget upward so the performance is throttled
		// "only as much as needed" (§6.3.2) — without this the cap would
		// freeze below the budget until the relax path crawls it back up.
		if c.limits.BigFreqCap != 0 || c.limits.LittleFreqCap != 0 {
			c.computeBudget(chip, in, pred, &dec, pm)
			c.trackBudgetUp(chip, &dec, pm)
		}
		c.relax(chip, dec.PredictedMax)
		dec.Limits = c.limits
		return dec
	}

	// Thermal violation predicted: compute the power budget (§5.1).
	dec.Violation = true
	c.safeCount = 0
	c.computeBudget(chip, in, pred, &dec, pm)
	c.applyLadder(chip, in, &dec, pm)
	dec.Limits = c.limits
	return dec
}

// computeBudget solves the horizon form of Eq. 5.5 for the active cluster's
// power given the hottest predicted core's row:
//
//	Bn_i . P = (TMax - amb) - An_i . dT[k]
//
// with An = A^n, Bn = Σ A^i B (sysid.ThermalModel.HorizonGains) and the
// other domains held at their measured powers. This is Eq. 5.5 applied at
// the prediction horizon rather than one sample ahead: holding the budgeted
// power for the whole horizon lands exactly on the constraint, so the cap
// tightens smoothly as headroom shrinks instead of swinging between a
// too-generous one-step budget and zero. pm is the active cluster's power
// model at the hottest sensed temperature.
func (c *Controller) computeBudget(chip *platform.Chip, in Inputs, pred []float64, dec *Decision, pm power.ModelAt) {
	_, row := maxAt(pred)
	active := int(platform.Big)
	if chip.ActiveKind() == platform.LittleCluster {
		active = int(platform.Little)
	}
	hn := c.Cfg.HorizonIntervals
	if c.Cfg.OneStepBudget {
		hn = 1
	}
	if c.an == nil || c.gainsN != hn {
		c.an, c.bn = c.Model.HorizonGains(hn)
		c.gainsN = hn
	}
	an, bn := c.an, c.bn
	// Right-hand side in relative coordinates, with the guard band and the
	// asymmetry margin.
	rhs := c.Cfg.TMax - c.Cfg.Guard - c.asymMargin(in.Temps) - c.Model.Ambient
	for j := 0; j < c.Model.States(); j++ {
		rhs -= an.At(row, j) * (in.Temps[j] - c.Model.Ambient)
	}
	// Subtract the uncontrolled domains' contributions.
	for j := 0; j < sysid.NumInputs; j++ {
		if j == active {
			continue
		}
		rhs -= bn.At(row, j) * in.Powers[j]
	}
	bii := bn.At(row, active)
	if bii <= 1e-9 {
		// Degenerate model entry: fall back to a conservative zero budget.
		dec.TotalBudget = 0
		dec.DynamicBudget = 0
		return
	}
	budget := rhs / bii
	if budget < 0 {
		budget = 0
	}
	// A near-zero model entry can blow the quotient up; anything beyond
	// the platform's physical envelope means "uncapped".
	if budget > maxPlausibleBudget {
		budget = maxPlausibleBudget
	}
	dec.TotalBudget = budget

	res := platform.Resource(active)
	var volt float64
	if res == platform.Big {
		volt = chip.BigCluster.Volt()
	} else {
		volt = chip.LittleCluster.Volt()
	}
	leak := pm.LeakagePower(volt)
	dyn := budget - leak
	if dyn < 0 {
		dyn = 0
	}
	dec.DynamicBudget = dyn
	if f, err := c.Power.FBudget(res, dyn, volt); err == nil {
		dec.FBudget = f
	}
}

// maxPlausibleBudget (W) caps the computed power budget; no configuration
// of the platform draws more, so a larger value means "effectively
// unconstrained" and only arises from degenerate model entries.
const maxPlausibleBudget = 50

// trackBudgetUp raises the active cluster's frequency cap toward the
// current budget (never above it), removing the cap once the budget admits
// the maximum frequency. pm is the active cluster's power model at the
// hottest sensed temperature.
func (c *Controller) trackBudgetUp(chip *platform.Chip, dec *Decision, pm power.ModelAt) {
	if chip.ActiveKind() == platform.BigCluster && c.limits.BigFreqCap != 0 {
		d := chip.BigCluster.Domain
		f, ok := pm.QuantizeBudgetFreq(d, dec.TotalBudget)
		if ok && f > c.limits.BigFreqCap {
			if f >= d.MaxFreq() {
				c.limits.BigFreqCap = 0
			} else {
				c.limits.BigFreqCap = f
			}
		}
	}
	if chip.ActiveKind() == platform.LittleCluster && c.limits.LittleFreqCap != 0 {
		d := chip.LittleCluster.Domain
		f, ok := pm.QuantizeBudgetFreq(d, dec.TotalBudget)
		if ok && f > c.limits.LittleFreqCap {
			if f >= d.MaxFreq() {
				c.limits.LittleFreqCap = 0
			} else {
				c.limits.LittleFreqCap = f
			}
		}
	}
}

// applyLadder updates the limits to satisfy the budget: frequency first,
// then hottest-core shutdown, then cluster migration, then GPU throttling.
// pm is the active cluster's power model at the hottest sensed temperature.
func (c *Controller) applyLadder(chip *platform.Chip, in Inputs, dec *Decision, pm power.ModelAt) {
	tmaxNow, hotNow := maxAt(in.Temps)
	if chip.ActiveKind() == platform.BigCluster {
		d := chip.BigCluster.Domain
		f, ok := pm.QuantizeBudgetFreq(d, dec.TotalBudget)
		if ok {
			// Eq. 5.8 satisfied: cap the big cluster at the budget step.
			// The cap tracks the budget in both directions so the cluster
			// runs as fast as the thermal headroom allows ("only as much
			// as needed", §6.3.2).
			c.limits.BigFreqCap = f
			c.unmetCount = 0
			return
		}
		// Budget unmet even at f_min: hold f_min and escalate only if the
		// deficit persists (a single transient, e.g. right after the first
		// trigger, must not cost a core).
		c.limits.BigFreqCap = d.MinFreq()
		c.unmetCount++
		if c.unmetCount < c.Cfg.EscalateIntervals {
			return
		}
		c.unmetCount = 0
		// Shed a core before leaving the big cluster (§5.2). The effective
		// online count is the smaller of the chip state and the commanded
		// limit, so the ladder still progresses if the kernel's hotplug
		// lags the previous command.
		online := chip.BigCluster.OnlineCount()
		if c.limits.MaxBigCores < online {
			online = c.limits.MaxBigCores
		}
		minBig := c.Cfg.MinBigCores
		if n := chip.BigCluster.NumCores(); minBig > n {
			minBig = n
		}
		if online > minBig {
			// Eq. 5.9: the HOTTEST core is put to sleep only when it is a
			// runaway — when "applications tend to be scheduled such that
			// they utilize a particular core and increase its temperature
			// more than the other cores" (T_hot - T_i >= Delta). Otherwise
			// the kernel glue sheds a core of its own deterministic choice
			// (OfflineCore stays -1).
			c.limits.MaxBigCores = online - 1
			if tmin := minOf(in.Temps); tmaxNow-tmin >= c.Cfg.Delta {
				c.limits.OfflineCore = hotNow
			}
			dec.Limits = c.limits
			return
		}
		// Last resort: migrate to the little cluster (§5.2) — when the
		// platform has one. Single-cluster SoCs skip this rung and fall
		// through to GPU throttling.
		if chip.HasLittle() {
			c.limits.ForceLittle = true
		}
	} else {
		// Already on little: cap its frequency against the budget.
		d := chip.LittleCluster.Domain
		f, _ := pm.QuantizeBudgetFreq(d, dec.TotalBudget)
		c.limits.LittleFreqCap = f
	}
	// GPU throttling, only when the GPU is in use (§5.2, §7).
	if in.GPUActive {
		cur := chip.GPUFreq()
		down := chip.GPUDomain.StepDown(cur)
		if c.limits.GPUFreqCap == 0 || down < c.limits.GPUFreqCap {
			c.limits.GPUFreqCap = down
		}
	}
}

// relax lifts limits one step at a time after sustained safe predictions,
// in the inverse order of the degradation ladder. Frequency caps are
// stepped up one DVFS level at a time (not removed outright): smooth
// release is what keeps the temperature trace flat instead of bouncing
// between the cap and the constraint (§6.3.2 "superior and smoother
// operation").
func (c *Controller) relax(chip *platform.Chip, predictedMax float64) {
	if predictedMax > c.Cfg.TMax-c.Cfg.ReleaseMargin {
		c.safeCount = 0
		return
	}
	c.safeCount++
	if c.safeCount < c.Cfg.ReleaseIntervals {
		return
	}
	c.safeCount = 0
	switch {
	case c.limits.GPUFreqCap != 0:
		d := chip.GPUDomain
		if up := d.StepUp(c.limits.GPUFreqCap); up >= d.MaxFreq() {
			c.limits.GPUFreqCap = 0
		} else {
			c.limits.GPUFreqCap = up
		}
	case c.limits.ForceLittle:
		c.limits.ForceLittle = false
	case c.limits.MaxBigCores != 0 && c.limits.MaxBigCores < chip.BigCluster.NumCores():
		c.limits.MaxBigCores++
	case c.limits.LittleFreqCap != 0:
		d := chip.LittleCluster.Domain
		if up := d.StepUp(c.limits.LittleFreqCap); up >= d.MaxFreq() {
			c.limits.LittleFreqCap = 0
		} else {
			c.limits.LittleFreqCap = up
		}
	case c.limits.BigFreqCap != 0:
		d := chip.BigCluster.Domain
		if up := d.StepUp(c.limits.BigFreqCap); up >= d.MaxFreq() {
			c.limits.BigFreqCap = 0
		} else {
			c.limits.BigFreqCap = up
		}
	}
}
