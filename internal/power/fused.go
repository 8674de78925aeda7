package power

import "repro/internal/platform"

// StepInto computes, in one pass, everything the per-interval simulation
// loop needs from the ground-truth model: the full Breakdown (what
// Evaluate returns) plus the per-hotspot core powers and the board-node
// power. Calling Evaluate and then the per-core reference fused_test.go
// keeps (corePowersInto, which re-runs Evaluate) takes three passes over
// the exponential leakage law per interval where one suffices. With four
// big cores that is 20 Exp evaluations reduced to 7.
//
// The contract is bit-identity with the two-call sequence: every Dynamic
// and Leakage term is computed by the same expressions on the same
// arguments, each exactly once, and combined in the same order — when the
// big cluster is active, nc == nBig, so Evaluate's leak share li/nc and
// the reference's li/nBig are the same division. The simulation kernel
// is built on this; fused_test.go enforces it against the oracle pair.
func (g *GroundTruth) StepInto(core []float64, chip *platform.Chip, act ChipActivity, coreTemps []float64, boardTemp float64) (Breakdown, float64) {
	var b Breakdown
	b.Base = g.Base
	b.Fan = g.FanPower(act.FanSpeed)

	active := chip.Active()
	v := active.Volt()
	f := active.Freq()

	res := platform.Big
	if active.Kind == platform.LittleCluster {
		res = platform.Little
	}
	nc := active.NumCores()
	nBig := chip.BigCluster.NumCores()
	bigActive := chip.ActiveKind() == platform.BigCluster

	// Active cluster: per-core dynamic power plus per-core leakage share.
	// When the big cluster is active each core's dyn and leak terms also
	// form its hotspot power, so both outputs come from one evaluation.
	var dyn, leak float64
	for i := 0; i < nc; i++ {
		if !active.CoreOnline(i) {
			if bigActive {
				core[i] = 0
			}
			continue
		}
		di := g.Dynamic(res, v, f, act.CoreUtil[i], act.CPUActivity)
		t := boardTemp
		if res == platform.Big {
			t = coreTemps[i]
		}
		li := g.Leakage(res, t, v)
		dyn += di
		leak += li / float64(nc)
		if bigActive {
			core[i] = di + li/float64(nBig)
		}
	}
	b.Domain[res] = dyn + leak
	b.Leakage[res] = leak

	// Inactive cluster is power gated: a tiny residual leakage remains.
	inactive := platform.Little
	if res == platform.Little {
		inactive = platform.Big
	}
	residual := 0.02 * g.Leakage(inactive, boardTemp, g.Res[inactive].Leak.VNom)
	b.Domain[inactive] = residual
	b.Leakage[inactive] = residual

	// GPU.
	gv := chip.GPUVolt()
	gleak := g.Leakage(platform.GPU, boardTemp, gv)
	b.Domain[platform.GPU] = g.Dynamic(platform.GPU, gv, chip.GPUFreq(), act.GPUUtil, act.GPUActivity) + gleak
	b.Leakage[platform.GPU] = gleak

	// Memory: MemPower recomputes the same leakage term internally; reuse
	// it with the identical expression shape (static + traffic + leak).
	mleak := g.Res[platform.Mem].Leak.Power(boardTemp, g.Res[platform.Mem].Leak.VNom)
	traffic := act.MemTraffic
	if traffic < 0 {
		traffic = 0
	}
	b.Domain[platform.Mem] = g.MemStatic + g.MemPerActivity*traffic + mleak
	b.Leakage[platform.Mem] = mleak

	// Big cores gated: split the residual evenly across the hotspots.
	if !bigActive {
		for i := 0; i < nBig; i++ {
			core[i] = b.Domain[platform.Big] / float64(nBig)
		}
	}
	board := b.Domain[platform.Little] + b.Domain[platform.GPU] + b.Domain[platform.Mem] + g.BaseBoardHeat
	return b, board
}
