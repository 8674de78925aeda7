package power

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/platform"
)

// TestStepIntoMatchesEvaluatePair pins the fused evaluation's contract:
// StepInto returns exactly what the Evaluate + corePowersInto pair
// returns — same bits, not same values — across active clusters, offline
// cores, fan speeds, and activity mixes on every registered platform.
func TestStepIntoMatchesEvaluatePair(t *testing.T) {
	for _, name := range platform.Names() {
		desc, err := platform.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			g := GroundTruthFor(desc)
			chip := platform.NewChipFor(desc)
			nBig := chip.BigCluster.NumCores()
			rng := rand.New(rand.NewSource(7))

			check := func(label string, act ChipActivity, coreTemps []float64, boardTemp float64) {
				t.Helper()
				wantCore := make([]float64, nBig)
				gotCore := make([]float64, nBig)
				wantB := g.Evaluate(chip, act, coreTemps, boardTemp)
				wantBoard := g.corePowersInto(wantCore, chip, act, coreTemps, boardTemp)
				gotB, gotBoard := g.StepInto(gotCore, chip, act, coreTemps, boardTemp)
				if gotB != wantB {
					t.Fatalf("%s: breakdown diverges:\nfused %+v\npair  %+v", label, gotB, wantB)
				}
				if math.Float64bits(gotBoard) != math.Float64bits(wantBoard) {
					t.Fatalf("%s: board power %v vs %v", label, gotBoard, wantBoard)
				}
				for i := range wantCore {
					if math.Float64bits(gotCore[i]) != math.Float64bits(wantCore[i]) {
						t.Fatalf("%s: core %d power %v vs %v", label, i, gotCore[i], wantCore[i])
					}
				}
			}

			randomCase := func(label string) {
				util := make([]float64, nBig)
				for i := range util {
					util[i] = rng.Float64()
				}
				temps := make([]float64, nBig)
				for i := range temps {
					temps[i] = 30 + 50*rng.Float64()
				}
				act := ChipActivity{
					CoreUtil:    util,
					CPUActivity: 0.5 + rng.Float64(),
					GPUUtil:     rng.Float64(),
					GPUActivity: rng.Float64(),
					MemTraffic:  2 * rng.Float64(),
					FanSpeed:    rng.Float64(),
				}
				check(label, act, temps, 25+30*rng.Float64())
			}

			for i := 0; i < 20; i++ {
				randomCase("big-active")
			}
			// Offline big cores (DTPM hotplug) must stay zeroed.
			if nBig > 1 {
				_ = chip.BigCluster.SetCoreOnline(nBig-1, false)
				for i := 0; i < 10; i++ {
					randomCase("big-hotplugged")
				}
				_ = chip.BigCluster.SetCoreOnline(nBig-1, true)
			}
			// Little cluster active (thermal emergency migration). Its
			// cores sit at the board temperature: the hotspot
			// temperatures (random, far from the board's) must not leak
			// in, and a hotplugged little core must contribute nothing.
			chip.SwitchCluster(platform.LittleCluster)
			for i := 0; i < 10; i++ {
				randomCase("little-active")
			}
			if little := chip.LittleCluster; little != nil {
				if err := little.SetFreq(little.Domain.MaxFreq()); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 10; i++ {
					randomCase("little-active-max-freq")
				}
				if little.NumCores() > 1 {
					_ = little.SetCoreOnline(0, false)
					for i := 0; i < 10; i++ {
						randomCase("little-hotplugged")
					}
					_ = little.SetCoreOnline(0, true)
				}
				check("little-idle", ChipActivity{CoreUtil: make([]float64, nBig), CPUActivity: 1}, make([]float64, nBig), 22)
			}
			chip.SwitchCluster(platform.BigCluster)
			// Degenerate activities: all idle, clamped traffic.
			check("idle", ChipActivity{CoreUtil: make([]float64, nBig), CPUActivity: 1}, make([]float64, nBig), 22)
			check("neg-traffic", ChipActivity{CoreUtil: make([]float64, nBig), CPUActivity: 1, MemTraffic: -3}, make([]float64, nBig), 22)
		})
	}
}

// corePowersInto writes the per-core power (W) of the big-cluster hotspot
// nodes into core (length = big-cluster core count) and returns the
// aggregate board-node power (little + GPU + mem + gated residuals) for
// the thermal network. When the little cluster is active the big cores
// dissipate only their gated residual and the little cluster's power
// heats the board node. It is the two-pass reference, built on Evaluate,
// that StepInto's fused pass is checked against.
func (g *GroundTruth) corePowersInto(core []float64, chip *platform.Chip, act ChipActivity, coreTemps []float64, boardTemp float64) (board float64) {
	b := g.Evaluate(chip, act, coreTemps, boardTemp)
	nBig := chip.BigCluster.NumCores()
	if chip.ActiveKind() == platform.BigCluster {
		active := chip.Active()
		v := active.Volt()
		f := active.Freq()
		for i := 0; i < nBig; i++ {
			if !active.CoreOnline(i) {
				core[i] = 0
				continue
			}
			core[i] = g.Dynamic(platform.Big, v, f, act.CoreUtil[i], act.CPUActivity) +
				g.Leakage(platform.Big, coreTemps[i], v)/float64(nBig)
		}
	} else {
		// Big cores gated: split the residual evenly across the hotspots.
		for i := 0; i < nBig; i++ {
			core[i] = b.Domain[platform.Big] / float64(nBig)
		}
	}
	board = b.Domain[platform.Little] + b.Domain[platform.GPU] + b.Domain[platform.Mem] + g.BaseBoardHeat
	return board
}
