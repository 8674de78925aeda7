package sysid

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/sensor"
	"repro/internal/thermal"
)

// Rig bundles the simulated measurement setup of Figure 6.1: the device
// (ground-truth power + thermal models standing in for the silicon), the
// sensors, and the sampling period.
type Rig struct {
	// Ctx, when set, aborts the characterization between its stages: each
	// furnace point and each PRBS experiment checks it before it starts.
	// nil means context.Background.
	Ctx context.Context
	// Desc selects the platform under characterization (nil = the default
	// Exynos 5410 board).
	Desc    *platform.Descriptor
	GT      *power.GroundTruth
	Thermal thermal.Params
	Sensors *sensor.Bank
	Ts      float64 // sampling period, seconds (the kernel's 100 ms)
}

// cancelled reports the rig context's error, if any.
func (r *Rig) cancelled() error {
	if r.Ctx == nil {
		return nil
	}
	return r.Ctx.Err()
}

// NewRig returns the default experimental setup.
func NewRig(seed int64) *Rig {
	return &Rig{
		GT:      power.DefaultGroundTruth(),
		Thermal: thermal.DefaultParams(),
		Sensors: sensor.NewBank(sensor.DefaultConfig(), seed),
		Ts:      0.1,
	}
}

// desc resolves the platform descriptor.
func (r *Rig) desc() *platform.Descriptor {
	if r.Desc != nil {
		return r.Desc
	}
	return platform.Default()
}

// lightActivity is the furnace characterization workload (§4.1.1): a light
// load on one big core at a fixed operating point, so dynamic power is small
// and constant and the temperature tracks the furnace setpoint.
func lightActivity(cores int) power.ChipActivity {
	util := make([]float64, cores)
	util[0] = 0.03
	return power.ChipActivity{
		CoreUtil:    util,
		CPUActivity: 1,
		MemTraffic:  0.02,
	}
}

// prbsCoreUtil returns the core load pattern during CPU PRBS excitation:
// fully loaded but slightly imbalanced, like a real run with the Android
// stack's background threads (§6.1.3). The imbalance keeps the hotspot
// responses linearly independent. The first four entries reproduce the
// paper platform's pattern exactly; wider clusters extend it with a small
// per-repeat decrement so no two cores ever load identically.
func prbsCoreUtil(cores int) []float64 {
	base := [4]float64{1.0, 0.96, 0.99, 0.93}
	out := make([]float64, cores)
	for i := range out {
		out[i] = base[i%4] - 0.015*float64(i/4)
	}
	return out
}

// singleCoreUtil returns a pattern with only core 0 loaded at u (driver
// overhead / traffic-generator threads during GPU and memory PRBS).
func singleCoreUtil(cores int, u float64) []float64 {
	util := make([]float64, cores)
	util[0] = u
	return util
}

// Settle returns the coupled power<->temperature steady state of a device
// with network p (every node starting at p.Ambient) holding chip and act:
// leakage depends on temperature and temperature on power (§4.1.1), so
// the ground-truth powers and the network's steady state are alternated
// iters times. The furnace sweeps settle 5 times and the idle warm start
// 4; the committed characterization and kernel digests pin both counts.
func Settle(gt *power.GroundTruth, p thermal.Params, chip *platform.Chip, act power.ChipActivity, iters int) thermal.State {
	bs := thermal.NewBatchSim(p, 1)
	st := thermal.NewState(p.Cores(), p.Ambient)
	for i := 0; i < iters; i++ {
		_, board := gt.StepInto(bs.CoreInput(0), chip, act, st.Core, st.Board)
		st = bs.SteadyState(0, board, 0)
		bs.SetState(0, st)
	}
	return st
}

// furnacePoint is one furnace operating point: the light workload with
// the big cluster at freq, in a furnace at ambient amb (°C).
type furnacePoint struct {
	freq platform.KHz
	amb  float64
}

// furnaceTruth is what the sensors read at a settled furnace point: the
// hottest core's temperature and the big rail's power, at supply volt.
type furnaceTruth struct {
	hotspot, bigPower, volt float64
}

// settleFurnace settles the device at one furnace point on a chip of its
// own. The result is a pure function of the rig's ground truth, network
// and platform and of the point, so points settle concurrently.
func (r *Rig) settleFurnace(pt furnacePoint) (furnaceTruth, error) {
	chip := platform.NewChipFor(r.desc())
	if err := chip.Active().SetFreq(pt.freq); err != nil {
		return furnaceTruth{}, err
	}
	act := lightActivity(chip.BigCluster.NumCores())
	tp := r.Thermal
	tp.Ambient = pt.amb
	st := Settle(r.GT, tp, chip, act, 5)
	truth, _ := r.GT.StepInto(make([]float64, chip.BigCluster.NumCores()), chip, act, st.Core, st.Board)
	return furnaceTruth{hotspot: st.MaxCore(), bigPower: truth.Domain[platform.Big], volt: chip.Active().Volt()}, nil
}

// sweep is one furnace experiment: the points it settles, in order, and
// the sensor readings it logs per point.
type sweep struct {
	points     []furnacePoint
	samplesPer int
}

// tempSweep is the Figure 4.2 experiment's plan (see FurnaceTempSweep).
func tempSweep(setpointsC []float64, freq platform.KHz, samplesPer int) sweep {
	points := make([]furnacePoint, len(setpointsC))
	for i, amb := range setpointsC {
		points[i] = furnacePoint{freq: freq, amb: amb}
	}
	return sweep{points: points, samplesPer: samplesPer}
}

// freqSweep is the Figure 4.6 experiment's plan (see FurnaceFreqSweep).
func (r *Rig) freqSweep(setpointC float64, samplesPer int) sweep {
	opps := r.desc().Big.Domain.OPPs
	points := make([]furnacePoint, len(opps))
	for i, opp := range opps {
		points[i] = furnacePoint{freq: opp.Freq, amb: setpointC}
	}
	return sweep{points: points, samplesPer: samplesPer}
}

// run performs the furnace experiments of sweeps. It settles every point
// of every sweep concurrently (each is a pure function of the rig's device
// and the point), then reads the sensors serially: the sweeps in order,
// point by point, and per point samplesPer (hotspot temperature, big-rail
// power) pairs. That is the order a serial run draws its noise in, so no
// reading depends on which point settled first.
func (r *Rig) run(sweeps ...sweep) ([][]FurnaceSample, error) {
	var points []furnacePoint
	for _, sw := range sweeps {
		points = append(points, sw.points...)
	}
	truths := make([]furnaceTruth, len(points))
	if _, err := r.parallel(len(points), func(i int) (err error) {
		truths[i], err = r.settleFurnace(points[i])
		return err
	}); err != nil {
		return nil, err
	}

	samples := make([][]FurnaceSample, len(sweeps))
	for j, sw := range sweeps {
		out := make([]FurnaceSample, 0, len(sw.points)*sw.samplesPer)
		for _, pt := range sw.points {
			tr := truths[0]
			truths = truths[1:]
			for s := 0; s < sw.samplesPer; s++ {
				out = append(out, FurnaceSample{
					TempC: r.Sensors.ReadTemp(tr.hotspot),
					Power: r.Sensors.ReadPower(tr.bigPower),
					Volt:  tr.volt,
					FHz:   pt.freq.Hz(),
				})
			}
		}
		samples[j] = out
	}
	return samples, nil
}

// FurnaceTempSweep reproduces the Figure 4.2 experiment: the platform sits
// in the furnace at each ambient setpoint running the light workload at the
// given big-cluster frequency; after settling, samplesPer sensor readings of
// (hotspot temperature, big-rail power) are logged per setpoint.
func (r *Rig) FurnaceTempSweep(setpointsC []float64, freq platform.KHz, samplesPer int) ([]FurnaceSample, error) {
	samples, err := r.run(tempSweep(setpointsC, freq, samplesPer))
	if err != nil {
		return nil, err
	}
	return samples[0], nil
}

// FurnaceFreqSweep reproduces the Figure 4.6 experiment: at a constant
// furnace temperature, the light workload runs once per big-cluster DVFS
// step; samplesPer readings are logged per step. The result feeds FitAlphaC.
func (r *Rig) FurnaceFreqSweep(setpointC float64, samplesPer int) ([]FurnaceSample, error) {
	samples, err := r.run(r.freqSweep(setpointC, samplesPer))
	if err != nil {
		return nil, err
	}
	return samples[0], nil
}

// CharacterizeLeakage runs the full §4.1 procedure for the big cluster:
// a frequency sweep at the coolest setpoint pins down the light workload's
// dynamic power, then the temperature sweep and the Gauss-Newton fit. The
// two sweeps' points settle as one concurrent batch. The two fits are
// alternated a few times: the leakage law evaluated at each
// frequency-sweep sample's MEASURED temperature removes the self-heating
// bias from the alphaC estimate, which in turn sharpens the leakage fit.
func (r *Rig) CharacterizeLeakage() (power.LeakageParams, error) {
	vNom := r.GT.Res[platform.Big].Leak.VNom
	bigDomain := &r.desc().Big.Domain
	fixed := bigDomain.MaxFreq() // Figure 4.5 uses the top step (1.6 GHz on the Odroid)
	samples, err := r.run(
		r.freqSweep(40, 8),
		tempSweep([]float64{40, 50, 60, 70, 80}, fixed, 12), // §4.1.1: 40-80 °C in 10 °C steps
	)
	if err != nil {
		return power.LeakageParams{}, err
	}
	freqSamples, tempSamples := samples[0], samples[1]

	alphaC, _, err := FitAlphaC(freqSamples, vNom)
	if err != nil {
		return power.LeakageParams{}, err
	}
	v, _ := bigDomain.VoltAt(fixed)

	// Stage estimates seed the joint fit over both experiments.
	pDyn := alphaC * v * v * fixed.Hz()
	init, err := FitLeakage(tempSamples, pDyn, vNom)
	if err != nil {
		return power.LeakageParams{}, err
	}
	all := append(append([]FurnaceSample(nil), freqSamples...), tempSamples...)
	_, fit, err := FitPowerModelJoint(all, vNom, init, alphaC)
	return fit, err
}

// PRBSConfig configures one identification experiment.
type PRBSConfig struct {
	Resource platform.Resource // which power source to oscillate
	Duration float64           // seconds (the paper uses ~1050 s, Fig. 4.8)
	HoldSec  float64           // seconds each PRBS bit is held
	Seed     uint16            // LFSR seed
}

// DefaultPRBSConfig mirrors the Figure 4.8 experiment for a resource.
func DefaultPRBSConfig(res platform.Resource) PRBSConfig {
	return PRBSConfig{Resource: res, Duration: 1050, HoldSec: 3, Seed: 0x2F3}
}

// CollectPRBS runs one PRBS identification experiment: the chosen resource
// oscillates between its minimum and maximum operating point while the
// others stay constant or minimal (§4.2.1), and synchronized sensor samples
// of T[k] and P[k] are recorded every Ts.
func (r *Rig) CollectPRBS(cfg PRBSConfig) (*Dataset, error) {
	if err := r.cancelled(); err != nil {
		return nil, err
	}
	ds, err := r.simulatePRBS(cfg)
	if err != nil {
		return nil, err
	}
	r.sense(ds)
	return ds, nil
}

// simulatePRBS runs one PRBS experiment's ground truth: the true hotspot
// temperatures and domain powers of every interval, written into a dataset
// that sense turns into sensor readings in place. The drive is open loop
// (sensor readings never feed back into it), so the truth is a pure
// function of the rig's device and cfg and experiments simulate
// concurrently.
func (r *Rig) simulatePRBS(cfg PRBSConfig) (*Dataset, error) {
	if cfg.Duration <= 0 || cfg.HoldSec <= 0 {
		return nil, fmt.Errorf("sysid: invalid PRBS config %+v", cfg)
	}
	desc := r.desc()
	chip := platform.NewChipFor(desc)
	sim := thermal.NewBatchSim(r.Thermal, 1)
	n := int(cfg.Duration / r.Ts)
	bits := NewPRBS(cfg.Seed).HoldSequence(n, int(cfg.HoldSec/r.Ts))
	ds := newDataset(r.Ts, r.Thermal.Ambient, chip.BigCluster.NumCores(), n)

	// Baseline configuration: everything minimal.
	if err := chip.Active().SetFreq(chip.Active().Domain.MinFreq()); err != nil {
		return nil, err
	}
	if cfg.Resource == platform.Little {
		if !chip.HasLittle() {
			return nil, fmt.Errorf("sysid: platform %s has no little cluster to excite", desc.Name)
		}
		chip.SwitchCluster(platform.LittleCluster)
	}
	// The core load pattern is constant per experiment; the PRBS bit moves
	// only the excited resource's operating point.
	act := power.ChipActivity{CPUActivity: 1, GPUActivity: 1, MemTraffic: 0.05}
	switch cfg.Resource {
	case platform.Big, platform.Little:
		act.CoreUtil = prbsCoreUtil(chip.Active().NumCores())
	case platform.GPU:
		act.CoreUtil = singleCoreUtil(ds.States, 0.1) // driver overhead only
	case platform.Mem:
		act.CoreUtil = singleCoreUtil(ds.States, 0.15) // traffic generator
	default:
		return nil, fmt.Errorf("sysid: unknown resource %v", cfg.Resource)
	}

	var st thermal.State
	for k, high := range bits {
		switch cfg.Resource {
		case platform.Big, platform.Little:
			f := chip.Active().Domain.MinFreq()
			if high {
				f = chip.Active().Domain.MaxFreq()
			}
			if err := chip.Active().SetFreq(f); err != nil {
				return nil, err
			}
		case platform.GPU:
			f := chip.GPUDomain.MinFreq()
			act.GPUUtil = 0.05
			if high {
				f = chip.GPUDomain.MaxFreq()
				act.GPUUtil = 1.0
			}
			if err := chip.SetGPUFreq(f); err != nil {
				return nil, err
			}
		case platform.Mem:
			act.MemTraffic = 0.05
			if high {
				act.MemTraffic = 1.8
			}
		}

		// The state is read straight into the sample's row; one fused
		// pass yields the breakdown the sensors will read and the node
		// powers the network integrates.
		st.Core = ds.Temps[k]
		sim.StateInto(0, &st)
		truth, board := r.GT.StepInto(sim.CoreInput(0), chip, act, st.Core, st.Board)
		copy(ds.Powers[k], truth.Domain[:])

		sim.Step(0, r.Ts, board, 0)
	}
	return ds, nil
}

// sense replaces a simulated dataset's true values with sensor readings in
// place, in the order the rig samples them: per interval, every hotspot
// temperature, then the four rail powers.
func (r *Rig) sense(ds *Dataset) {
	for k, temps := range ds.Temps {
		r.Sensors.ReadCoreTempsInto(temps, temps)
		p := r.Sensors.ReadDomainPowers([platform.NumResources]float64(ds.Powers[k]))
		copy(ds.Powers[k], p[:])
	}
}

// CharacterizeThermal runs the paper's complete thermal identification:
// one PRBS experiment per power resource, then staged least squares. The
// experiments simulate concurrently and are sensed afterwards in resource
// order, the order a serial run reads them in. On single-cluster
// platforms the little-cluster experiment is skipped (its B column stays
// zero: the domain never draws power). It returns the model and the
// datasets indexed by resource (nil for a skipped experiment).
func (r *Rig) CharacterizeThermal() (*ThermalModel, []*Dataset, error) {
	var cfgs []PRBSConfig
	for res := platform.Big; res < platform.NumResources; res++ {
		if res == platform.Little && !r.desc().HasLittle() {
			continue
		}
		cfg := DefaultPRBSConfig(res)
		cfg.Seed += uint16(res) * 97
		cfgs = append(cfgs, cfg)
	}
	sets := make([]*Dataset, len(cfgs))
	if i, err := r.parallel(len(cfgs), func(i int) (err error) {
		sets[i], err = r.simulatePRBS(cfgs[i])
		return err
	}); err != nil {
		return nil, nil, fmt.Errorf("sysid: PRBS for %s: %w", cfgs[i].Resource, err)
	}

	datasets := make([]*Dataset, NumInputs)
	for i, cfg := range cfgs {
		r.sense(sets[i])
		datasets[cfg.Resource] = sets[i]
	}
	model, err := IdentifyStaged(datasets)
	if err != nil {
		return nil, nil, err
	}
	model.Platform = r.desc().Name
	return model, datasets, nil
}

// parallel runs unit(0), ..., unit(n-1) on up to GOMAXPROCS goroutines,
// the caller's among them, and returns once every unit has finished. Each
// unit checks the rig context before it starts; a cancelled unit records
// the context's error instead of running. The lowest-index failure is
// returned with its index, so the error does not depend on scheduling. A
// unit's panic is re-raised on the caller's goroutine.
func (r *Rig) parallel(n int, unit func(i int) error) (int, error) {
	errs := make([]error, n)
	var (
		next   atomic.Int64
		wg     sync.WaitGroup
		mu     sync.Mutex
		failed any
	)
	work := func() {
		defer func() {
			if p := recover(); p != nil {
				mu.Lock()
				if failed == nil {
					failed = p
				}
				mu.Unlock()
			}
		}()
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			if err := r.cancelled(); err != nil {
				errs[i] = err
				continue
			}
			errs[i] = unit(i)
		}
	}
	for w := 1; w < min(runtime.GOMAXPROCS(0), n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if failed != nil {
		panic(failed)
	}
	for i, err := range errs {
		if err != nil {
			return i, err
		}
	}
	return -1, nil
}
