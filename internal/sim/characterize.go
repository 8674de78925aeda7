package sim

import (
	"context"

	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/sensor"
	"repro/internal/sysid"
)

// Characterization is the output of the full §4 modeling flow on a device.
type Characterization struct {
	Thermal *sysid.ThermalModel
	Leakage power.LeakageParams // fitted big-cluster leakage law
	Power   *power.Model
}

// Characterize runs the complete modeling methodology of Chapter 4 against
// the runner's simulated device: the furnace leakage characterization and
// the per-resource PRBS thermal identification. The returned models are the
// ones the DTPM controller deploys (they come from noisy sensor data, not
// from the ground truth). Within each stage the simulations (the furnace
// points, then the PRBS experiments) run concurrently on up to GOMAXPROCS
// goroutines; the context stops the flow before any simulation that has
// not started yet.
func (r *Runner) Characterize(ctx context.Context, seed int64) (*Characterization, error) {
	return r.CharacterizeWithTs(ctx, seed, 0.1)
}

// CharacterizeWithTs is Characterize with an explicit sampling period, for
// running the control loop at periods other than the paper's 100 ms.
func (r *Runner) CharacterizeWithTs(ctx context.Context, seed int64, ts float64) (*Characterization, error) {
	rig := &sysid.Rig{
		Ctx:     ctx,
		Desc:    r.Desc,
		GT:      r.GT,
		Thermal: r.Thermal,
		Sensors: sensor.NewBank(r.Sensors, seed),
		Ts:      ts,
	}
	leak, err := rig.CharacterizeLeakage()
	if err != nil {
		return nil, err
	}
	model, _, err := rig.CharacterizeThermal()
	if err != nil {
		return nil, err
	}
	// The power model uses the fitted big-cluster law; the small domains
	// reuse scaled ground-truth laws (the same furnace procedure applies
	// per resource; §4.1.1: "this procedure was repeated for each power
	// resource of the heterogeneous processor").
	var params [platform.NumResources]power.LeakageParams
	for i := range params {
		params[i] = r.GT.Res[i].Leak
	}
	params[platform.Big] = leak
	pm := power.NewModel(params)
	return &Characterization{Thermal: model, Leakage: leak, Power: pm}, nil
}
