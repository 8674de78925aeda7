package kernel

import (
	"math"
	"testing"
)

// pureDemand is a deterministic pure demand waveform, the class of demand
// function TickWith's caching contract covers (scripted scenarios).
func pureDemand(base float64, i int) func(float64) float64 {
	return func(t float64) float64 {
		return base * (0.6 + 0.4*math.Sin(t+float64(i)))
	}
}

// TestTickWithMatchesTick drives two identical schedulers through a
// frequency/hotplug/migration-heavy history — one via Tick (closure
// evaluation), one via TickWith (cached demands) — and demands bitwise
// agreement on every TickResult field, core assignment, and work account.
// This is the byte-identity contract the batched fleet kernel rests on.
func TestTickWithMatchesTick(t *testing.T) {
	const n = 6 // more tasks than cores: displacement sort has real work
	mk := func() (*Sched, []*Task) {
		s := NewSched()
		tasks := make([]*Task, n)
		pool := make([]Task, n)
		for i := 0; i < n; i++ {
			pool[i] = Task{
				Name:     "w",
				Demand:   pureDemand(0.9, i),
				MemBound: 0.1 * float64(i%3),
				WorkLeft: math.Inf(1),
			}
			if i == n-1 {
				pool[i].WorkLeft = 1e9 // one finite task exercises completion
			}
			tasks[i] = &pool[i]
			s.Add(tasks[i])
		}
		return s, tasks
	}
	sA, tasksA := mk()
	sB, tasksB := mk()
	cA, cB := bigCluster(), bigCluster()

	demands := make([]float64, n)
	dt := 0.1
	for step := 0; step < 300; step++ {
		// Shake the topology the way a DTPM run does.
		switch step % 50 {
		case 10:
			_ = cA.SetCoreOnline(3, false)
			_ = cB.SetCoreOnline(3, false)
		case 20:
			_ = cA.SetCoreOnline(1, false)
			_ = cB.SetCoreOnline(1, false)
		case 30:
			_ = cA.SetCoreOnline(3, true)
			_ = cB.SetCoreOnline(3, true)
			_ = cA.SetCoreOnline(1, true)
			_ = cB.SetCoreOnline(1, true)
		case 40:
			sA.MigrateAll()
			sB.MigrateAll()
		}
		if step%70 == 35 {
			_ = cA.SetFreq(800000)
			_ = cB.SetFreq(800000)
		} else if step%70 == 0 {
			_ = cA.SetFreq(1600000)
			_ = cB.SetFreq(1600000)
		}

		resA := sA.Tick(dt, cA)
		for j, tk := range tasksB {
			demands[j] = tk.Demand(sB.now)
		}
		resB := sB.TickWith(dt, cB, demands)

		if resA.Saturated != resB.Saturated {
			t.Fatalf("step %d: Saturated %v vs %v", step, resA.Saturated, resB.Saturated)
		}
		if math.Float64bits(resA.WorkDone) != math.Float64bits(resB.WorkDone) {
			t.Fatalf("step %d: WorkDone %v vs %v", step, resA.WorkDone, resB.WorkDone)
		}
		if len(resA.CoreUtil) != len(resB.CoreUtil) {
			t.Fatalf("step %d: CoreUtil width %d vs %d", step, len(resA.CoreUtil), len(resB.CoreUtil))
		}
		for c := range resA.CoreUtil {
			if math.Float64bits(resA.CoreUtil[c]) != math.Float64bits(resB.CoreUtil[c]) {
				t.Fatalf("step %d core %d: util %v vs %v", step, c, resA.CoreUtil[c], resB.CoreUtil[c])
			}
		}
		for j := range tasksA {
			a, b := tasksA[j], tasksB[j]
			if a.core != b.core || a.Done != b.Done ||
				math.Float64bits(a.WorkLeft) != math.Float64bits(b.WorkLeft) ||
				math.Float64bits(a.FinishedAt) != math.Float64bits(b.FinishedAt) {
				t.Fatalf("step %d task %d: core %d/%d done %v/%v work %v/%v finished %v/%v",
					step, j, a.core, b.core, a.Done, b.Done, a.WorkLeft, b.WorkLeft, a.FinishedAt, b.FinishedAt)
			}
		}
		if math.Float64bits(sA.now) != math.Float64bits(sB.now) {
			t.Fatalf("step %d: clock %v vs %v", step, sA.now, sB.now)
		}
	}
}

// TestTickWithDemandCountPanics pins the contract violation loudly: a
// demand slice that does not cover the task list is a programming error,
// not a silent truncation.
func TestTickWithDemandCountPanics(t *testing.T) {
	s := NewSched()
	s.Add(&Task{Name: "t", Demand: constDemand(0.5), WorkLeft: math.Inf(1)})
	defer func() {
		if recover() == nil {
			t.Fatal("TickWith with a short demand slice should panic")
		}
	}()
	s.TickWith(0.1, bigCluster(), nil)
}
