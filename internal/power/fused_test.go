package power

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/platform"
)

// TestStepIntoMatchesEvaluatePair pins the fused evaluation's contract:
// StepInto returns exactly what the Evaluate + CorePowersInto pair
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
				wantBoard := g.CorePowersInto(wantCore, chip, act, coreTemps, boardTemp)
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
