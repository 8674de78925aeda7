package kernel

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/platform"
	"repro/internal/workload"
)

// runToCompletion executes one task to completion on a cluster at a fixed
// frequency and returns the elapsed time.
func runToCompletion(t *testing.T, memBound, demand float64, f platform.KHz) float64 {
	t.Helper()
	chip := platform.NewChip()
	cl := chip.BigCluster
	if err := cl.SetFreq(f); err != nil {
		t.Fatal(err)
	}
	s := NewSched()
	s.Add(&Task{
		Name:     "t",
		Demand:   func(float64) float64 { return demand },
		MemBound: memBound,
		WorkLeft: demand * workload.RefCapacity * 10, // 10 s at full speed
	})
	for i := 0; i < 100000; i++ {
		s.Tick(0.1, cl)
		if s.AllForegroundDone() {
			return s.LastFinish()
		}
	}
	t.Fatal("task never finished")
	return 0
}

// TestRooflineComputeBound: a fully compute-bound task slows down linearly
// with frequency.
func TestRooflineComputeBound(t *testing.T) {
	full := runToCompletion(t, 0, 0.95, platform.MHzToKHz(1600))
	half := runToCompletion(t, 0, 0.95, platform.MHzToKHz(800))
	ratio := half / full
	if math.Abs(ratio-2.0) > 0.1 {
		t.Errorf("compute-bound slowdown at half frequency = %.2fx, want ~2x", ratio)
	}
}

// TestRooflineMemoryBound: a task that stalls on memory half the time slows
// down far less than linearly.
func TestRooflineMemoryBound(t *testing.T) {
	full := runToCompletion(t, 0.5, 0.95, platform.MHzToKHz(1600))
	half := runToCompletion(t, 0.5, 0.95, platform.MHzToKHz(800))
	ratio := half / full
	// Expected: (1-0.5)/0.5 + 0.5 = 1.5x, not 2x.
	if math.Abs(ratio-1.5) > 0.1 {
		t.Errorf("memory-bound slowdown at half frequency = %.2fx, want ~1.5x", ratio)
	}
}

// TestRooflineMonotoneInMemBound: at a reduced frequency, more memory-bound
// tasks always finish sooner (property-based).
func TestRooflineMonotoneInMemBound(t *testing.T) {
	check := func(a, b uint8) bool {
		m1 := float64(a%90) / 100 // [0, 0.89]
		m2 := float64(b%90) / 100
		if m1 > m2 {
			m1, m2 = m2, m1
		}
		if m1 == m2 {
			return true
		}
		t1 := runToCompletion(t, m1, 0.95, platform.MHzToKHz(1000))
		t2 := runToCompletion(t, m2, 0.95, platform.MHzToKHz(1000))
		return t2 <= t1+1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestUtilizationInflatesWhenThrottled: the same demand needs more core
// time at a lower frequency, which is what the ondemand governor reacts to.
func TestUtilizationInflatesWhenThrottled(t *testing.T) {
	chip := platform.NewChip()
	cl := chip.BigCluster
	util := func(f platform.KHz) float64 {
		if err := cl.SetFreq(f); err != nil {
			t.Fatal(err)
		}
		s := NewSched()
		s.Add(&Task{
			Name:     "t",
			Demand:   func(float64) float64 { return 0.4 },
			MemBound: 0.2,
			WorkLeft: math.Inf(1),
		})
		var res TickResult
		for i := 0; i < 10; i++ {
			res = s.Tick(0.1, cl)
		}
		total := 0.0
		for _, u := range res.CoreUtil {
			total += u
		}
		return total
	}
	if uLow, uHigh := util(platform.MHzToKHz(800)), util(platform.MHzToKHz(1600)); uLow <= uHigh {
		t.Errorf("utilization at 800 MHz (%.2f) not above 1.6 GHz (%.2f)", uLow, uHigh)
	}
}

// TestSaturationHalvesEqualTasks: two equal finite tasks on one core each
// get half the core when it saturates and retire equal work.
func TestSaturationHalvesEqualTasks(t *testing.T) {
	chip := platform.NewChip()
	cl := chip.BigCluster
	// Only one core online forces both tasks onto it.
	for i := 1; i < platform.CoresPerCluster; i++ {
		if err := cl.SetCoreOnline(i, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.SetFreq(cl.Domain.MaxFreq()); err != nil {
		t.Fatal(err)
	}
	s := NewSched()
	work := 0.9 * workload.RefCapacity * 5
	for i := 0; i < 2; i++ {
		s.Add(&Task{
			Name:     "t",
			Demand:   func(float64) float64 { return 0.9 },
			WorkLeft: work,
		})
	}
	res := s.Tick(0.1, cl)
	if !res.Saturated {
		t.Fatal("two 0.9-demand tasks on one core should saturate it")
	}
	left0 := s.tasks[0].WorkLeft
	left1 := s.tasks[1].WorkLeft
	if math.Abs(left0-left1) > 1e-6 {
		t.Errorf("unequal progress under saturation: %.0f vs %.0f", left0, left1)
	}
	// Each got ~half the core's throughput.
	retired := work - left0
	wantHalf := 0.5 * workload.RefCapacity * 0.1
	if math.Abs(retired-wantHalf)/wantHalf > 0.05 {
		t.Errorf("task retired %.2e cycles, want ~%.2e (half the core)", retired, wantHalf)
	}
}
