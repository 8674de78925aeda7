package governor

import (
	"testing"

	"repro/internal/platform"
)

func bigD() *platform.Domain { return platform.BigDomain() }

func u(v float64) []float64 { return []float64{v, v / 2, v / 3, 0} }

func TestOndemandJumpsToMaxOnHighLoad(t *testing.T) {
	g := NewOndemand()
	f := g.Decide(u(0.95), 800000, bigD())
	if f != 1600000 {
		t.Fatalf("ondemand at 95%% load = %v, want max", f)
	}
}

func TestOndemandScalesDownUnderLightLoad(t *testing.T) {
	g := NewOndemand()
	// No holdoff: directly evaluate light load at max frequency.
	f := g.Decide(u(0.3), 1600000, bigD())
	if f >= 1600000 {
		t.Fatalf("ondemand at 30%% load should downscale, got %v", f)
	}
	// target = 1600 * 0.3/0.8 = 600 -> ceil to 800 MHz.
	if f != 800000 {
		t.Fatalf("ondemand target = %v, want 800000", f)
	}
}

func TestOndemandSamplingDownFactor(t *testing.T) {
	g := NewOndemand()
	g.Decide(u(0.95), 800000, bigD()) // jump, holdoff=3
	for i := 0; i < 3; i++ {
		if f := g.Decide(u(0.1), 1600000, bigD()); f != 1600000 {
			t.Fatalf("holdoff interval %d: freq = %v, want max held", i, f)
		}
	}
	if f := g.Decide(u(0.1), 1600000, bigD()); f == 1600000 {
		t.Fatal("after holdoff the governor must downscale")
	}
}

func TestOndemandUsesMaxCoreLoad(t *testing.T) {
	g := NewOndemand()
	// One hot core among idle ones must still trigger the jump.
	f := g.Decide([]float64{0.05, 0.95, 0.0, 0.1}, 800000, bigD())
	if f != 1600000 {
		t.Fatalf("ondemand must react to the busiest core, got %v", f)
	}
}

func TestOndemandReset(t *testing.T) {
	g := NewOndemand()
	g.Decide(u(0.95), 800000, bigD())
	g.Reset()
	if f := g.Decide(u(0.1), 1600000, bigD()); f == 1600000 {
		t.Fatal("reset should clear the holdoff")
	}
}

func TestInteractiveHispeedFirst(t *testing.T) {
	g := NewInteractive()
	f := g.Decide(u(0.9), 800000, bigD())
	if f != 1200000 {
		t.Fatalf("interactive burst from min = %v, want hispeed 1.2 GHz", f)
	}
	// Sustained high load ramps beyond hispeed step by step.
	g.Decide(u(0.9), f, bigD())
	f2 := g.Decide(u(0.9), f, bigD())
	if f2 <= f {
		t.Fatalf("sustained load should ramp past hispeed, got %v", f2)
	}
}

func TestInteractiveLazyRampDown(t *testing.T) {
	g := NewInteractive()
	f := g.Decide(u(0.1), 1600000, bigD())
	if f != 1500000 {
		t.Fatalf("interactive should step down one level, got %v", f)
	}
}

func TestPerformanceAndPowersave(t *testing.T) {
	if (Performance{}).Decide(u(0), 800000, bigD()) != 1600000 {
		t.Fatal("performance must pin max")
	}
	if (Powersave{}).Decide(u(1), 1600000, bigD()) != 800000 {
		t.Fatal("powersave must pin min")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"ondemand", "interactive", "performance", "powersave"} {
		govs, err := ByNameN(name, 1)
		if err != nil || len(govs) != 1 || govs[0].Name() != name {
			t.Fatalf("ByNameN(%s, 1) = %v, %v", name, govs, err)
		}
	}
	if _, err := ByNameN("warp", 1); err == nil {
		t.Fatal("unknown governor should error")
	}
}

func TestGovernorsAlwaysReturnTableFrequencies(t *testing.T) {
	d := bigD()
	govs := []CPUGovernor{NewOndemand(), NewInteractive(), Performance{}, Powersave{}}
	loads := [][]float64{u(0), u(0.2), u(0.5), u(0.85), u(1.0)}
	for _, g := range govs {
		cur := d.MinFreq()
		for step := 0; step < 40; step++ {
			f := g.Decide(loads[step%len(loads)], cur, d)
			if d.IndexOf(f) < 0 {
				t.Fatalf("%s returned off-table frequency %v", g.Name(), f)
			}
			cur = f
		}
	}
}

func TestGPUGovernor(t *testing.T) {
	g := NewGPU()
	d := platform.GPUDomainTable()
	if f := g.Decide(0.9, 177000, d); f != 266000 {
		t.Fatalf("GPU busy should step up, got %v", f)
	}
	if f := g.Decide(0.1, 533000, d); f != 480000 {
		t.Fatalf("GPU idle should step down, got %v", f)
	}
	if f := g.Decide(0.5, 350000, d); f != 350000 {
		t.Fatalf("GPU mid load should hold, got %v", f)
	}
	// Clamps at the ends.
	if f := g.Decide(0.9, 533000, d); f != 533000 {
		t.Fatal("GPU at max should stay at max")
	}
	if f := g.Decide(0.0, 177000, d); f != 177000 {
		t.Fatal("GPU at min should stay at min")
	}
}
