package kernel

import (
	"math"
	"testing"

	"repro/internal/platform"
	"repro/internal/workload"
)

func constDemand(d float64) func(float64) float64 {
	return func(float64) float64 { return d }
}

func bigCluster() *platform.Cluster {
	c := platform.NewChip().BigCluster
	if err := c.SetFreq(1600000); err != nil {
		panic(err)
	}
	return c
}

func TestSingleTaskUtilization(t *testing.T) {
	s := NewSched()
	s.Add(&Task{Name: "t", Demand: constDemand(0.5), WorkLeft: math.Inf(1)})
	res := s.Tick(0.1, bigCluster())
	// Demand 0.5 of RefCapacity on a core at RefCapacity -> util 0.5.
	total := 0.0
	for _, u := range res.CoreUtil {
		total += u
	}
	if math.Abs(total-0.5) > 1e-9 {
		t.Fatalf("total util = %v, want 0.5", total)
	}
	if res.Saturated {
		t.Fatal("should not saturate at 50% load")
	}
}

func TestUtilScalesWithFrequency(t *testing.T) {
	s := NewSched()
	s.Add(&Task{Name: "t", Demand: constDemand(0.5), WorkLeft: math.Inf(1)})
	c := bigCluster()
	if err := c.SetFreq(800000); err != nil {
		t.Fatal(err)
	}
	res := s.Tick(0.1, c)
	// Same demand at half frequency -> double utilization.
	total := 0.0
	for _, u := range res.CoreUtil {
		total += u
	}
	if math.Abs(total-1.0) > 1e-9 {
		t.Fatalf("total util = %v, want 1.0", total)
	}
}

func TestWorkAccountingAndCompletion(t *testing.T) {
	s := NewSched()
	work := 0.5 * workload.RefCapacity // 0.5 s of full-speed work
	task := &Task{Name: "t", Demand: constDemand(1.0), WorkLeft: work}
	s.Add(task)
	c := bigCluster()
	for i := 0; i < 20 && !s.AllForegroundDone(); i++ {
		s.Tick(0.1, c)
	}
	if !task.Done {
		t.Fatal("task never finished")
	}
	if math.Abs(task.FinishedAt-0.5) > 0.11 {
		t.Fatalf("finish time = %v, want ~0.5", task.FinishedAt)
	}
	if s.LastFinish() != task.FinishedAt {
		t.Fatal("LastFinish mismatch")
	}
}

func TestThrottlingSlowsCompletion(t *testing.T) {
	run := func(freq platform.KHz) float64 {
		s := NewSched()
		s.Add(&Task{Name: "t", Demand: constDemand(1.0), WorkLeft: 1.0 * workload.RefCapacity})
		c := bigCluster()
		if err := c.SetFreq(freq); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100 && !s.AllForegroundDone(); i++ {
			s.Tick(0.1, c)
		}
		return s.LastFinish()
	}
	fast := run(1600000)
	slow := run(800000)
	if slow <= fast {
		t.Fatalf("throttled run (%v) should be slower than full speed (%v)", slow, fast)
	}
	if math.Abs(slow/fast-2.0) > 0.25 {
		t.Fatalf("half frequency should roughly double runtime: %v vs %v", slow, fast)
	}
}

func TestLowDemandUnaffectedByModestThrottle(t *testing.T) {
	// A 40%-demand task completes at the same time at 1.6 GHz and 800 MHz:
	// demand still fits capacity (this is why DTPM costs low-activity
	// benchmarks <1% performance, §6.3.3).
	run := func(freq platform.KHz) float64 {
		s := NewSched()
		s.Add(&Task{Name: "t", Demand: constDemand(0.4), WorkLeft: 0.4 * workload.RefCapacity * 10})
		c := bigCluster()
		if err := c.SetFreq(freq); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 300 && !s.AllForegroundDone(); i++ {
			s.Tick(0.1, c)
		}
		return s.LastFinish()
	}
	if f, s := run(1600000), run(800000); math.Abs(f-s) > 0.11 {
		t.Fatalf("low-demand completion should be frequency independent: %v vs %v", f, s)
	}
}

func TestLoadBalancerSpreadsThreads(t *testing.T) {
	s := NewSched()
	for i := 0; i < 4; i++ {
		s.Add(&Task{Name: "w", Demand: constDemand(0.9), WorkLeft: math.Inf(1)})
	}
	res := s.Tick(0.1, bigCluster())
	for c, u := range res.CoreUtil {
		if math.Abs(u-0.9) > 1e-9 {
			t.Fatalf("core %d util = %v, want 0.9 (one thread per core)", c, u)
		}
	}
}

func TestHotplugMigration(t *testing.T) {
	s := NewSched()
	for i := 0; i < 4; i++ {
		s.Add(&Task{Name: "w", Demand: constDemand(0.5), WorkLeft: math.Inf(1)})
	}
	c := bigCluster()
	s.Tick(0.1, c)
	// Offline core 3: its task must migrate and core 3 must go idle.
	if err := c.SetCoreOnline(3, false); err != nil {
		t.Fatal(err)
	}
	res := s.Tick(0.1, c)
	if res.CoreUtil[3] != 0 {
		t.Fatalf("offline core still has load: %v", res.CoreUtil)
	}
	online := 0.0
	for _, u := range res.CoreUtil {
		online += u
	}
	if math.Abs(online-2.0) > 1e-9 {
		t.Fatalf("total util after migration = %v, want 2.0", online)
	}
	for _, task := range s.tasks {
		if task.core == 3 {
			t.Fatal("task still assigned to offline core")
		}
	}
}

func TestSaturationSharesProportionally(t *testing.T) {
	s := NewSched()
	a := &Task{Name: "a", Demand: constDemand(0.8), WorkLeft: math.Inf(1)}
	b := &Task{Name: "b", Demand: constDemand(0.8), WorkLeft: math.Inf(1)}
	s.Add(a)
	s.Add(b)
	c := bigCluster()
	// Offline all but one core so both tasks share core capacity.
	for i := 1; i < 4; i++ {
		if err := c.SetCoreOnline(i, false); err != nil {
			t.Fatal(err)
		}
	}
	res := s.Tick(0.1, c)
	if !res.Saturated {
		t.Fatal("1.6 demand on one core must saturate")
	}
	if res.CoreUtil[0] != 1 {
		t.Fatalf("saturated core util = %v, want 1", res.CoreUtil[0])
	}
	// Work done is capacity-limited: 1.6e9 cycles/s * 0.1 s.
	if math.Abs(res.WorkDone-1.6e8) > 1e3 {
		t.Fatalf("work done = %v, want 1.6e8", res.WorkDone)
	}
}

func TestMigrateAllReassigns(t *testing.T) {
	s := NewSched()
	task := &Task{Name: "t", Demand: constDemand(0.5), WorkLeft: math.Inf(1)}
	s.Add(task)
	s.Tick(0.1, bigCluster())
	before := task.core
	if before < 0 {
		t.Fatal("task should be placed after a tick")
	}
	s.MigrateAll()
	if task.core != -1 {
		t.Fatal("MigrateAll should unassign tasks")
	}
	little := platform.NewChip().LittleCluster
	s.Tick(0.1, little)
	if task.core < 0 {
		t.Fatal("task not re-placed after migration")
	}
}

func TestLittleClusterLowerCapacity(t *testing.T) {
	s := NewSched()
	s.Add(&Task{Name: "t", Demand: constDemand(0.3), WorkLeft: math.Inf(1)})
	little := platform.NewChip().LittleCluster
	if err := little.SetFreq(1200000); err != nil {
		t.Fatal(err)
	}
	res := s.Tick(0.1, little)
	// Capacity = 1.2e9*0.4 = 0.48e9; demand = 0.3*1.6e9 = 0.48e9 -> util 1.
	total := 0.0
	for _, u := range res.CoreUtil {
		total += u
	}
	if math.Abs(total-1.0) > 1e-9 {
		t.Fatalf("little util = %v, want 1.0", total)
	}
}

func TestLastFinishWithRunningTask(t *testing.T) {
	s := NewSched()
	s.Add(&Task{Name: "t", Demand: constDemand(1), WorkLeft: 1e18})
	s.Tick(0.1, bigCluster())
	if s.LastFinish() != -1 {
		t.Fatal("LastFinish should be -1 while tasks run")
	}
}

func TestZeroDtNoop(t *testing.T) {
	s := NewSched()
	s.Add(&Task{Name: "t", Demand: constDemand(1), WorkLeft: 100})
	res := s.Tick(0, bigCluster())
	if res.WorkDone != 0 || s.now != 0 {
		t.Fatal("zero dt should be a no-op")
	}
}

func TestBackgroundTasksNeverFinish(t *testing.T) {
	s := NewSched()
	bg := &Task{Name: "bg", Demand: constDemand(0.05), WorkLeft: math.Inf(1)}
	s.Add(bg)
	c := bigCluster()
	for i := 0; i < 100; i++ {
		s.Tick(0.1, c)
	}
	if bg.Done || bg.Foreground() {
		t.Fatal("background task must never finish")
	}
	if !s.AllForegroundDone() {
		t.Fatal("background-only scheduler should report foreground done")
	}
}
