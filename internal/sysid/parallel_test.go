package sysid

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/sensor"
)

// cancelAfter is a context that reports no error for its first n Err
// calls and context.Canceled from then on: a cancellation that lands after
// exactly n of the flow's concurrent units have checked the context.
type cancelAfter struct {
	context.Context
	left atomic.Int64
}

func newCancelAfter(n int64) *cancelAfter {
	c := &cancelAfter{Context: context.Background()}
	c.left.Store(n)
	return c
}

func (c *cancelAfter) Err() error {
	if c.left.Add(-1) >= 0 {
		return nil
	}
	return context.Canceled
}

func platformRig(t *testing.T, name string, seed int64) *Rig {
	t.Helper()
	desc, err := platform.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return &Rig{
		Desc:    desc,
		GT:      power.GroundTruthFor(desc),
		Thermal: desc.Thermal,
		Sensors: sensor.NewBank(sensor.DefaultConfig(), seed),
		Ts:      0.1,
	}
}

// TestCharacterizeThermalCancelledMidway cancels the context once the
// first PRBS simulation has started: every experiment that has not started
// must see the cancellation, and the flow must return it wrapped.
func TestCharacterizeThermalCancelledMidway(t *testing.T) {
	rig := platformRig(t, platform.DefaultName, 1)
	rig.Ctx = newCancelAfter(1)
	model, datasets, err := rig.CharacterizeThermal()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled identification returned %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "PRBS for") {
		t.Errorf("error %q does not name the cancelled experiment", err)
	}
	if model != nil || datasets != nil {
		t.Fatal("a cancelled identification returned a model")
	}
}

// TestCharacterizeLeakageCancelledMidway does the same for the furnace
// sweeps, with the cancellation landing once the first point has started.
func TestCharacterizeLeakageCancelledMidway(t *testing.T) {
	rig := platformRig(t, platform.DefaultName, 1)
	rig.Ctx = newCancelAfter(1)
	if fit, err := rig.CharacterizeLeakage(); !errors.Is(err, context.Canceled) || fit != (power.LeakageParams{}) {
		t.Fatalf("cancelled leakage characterization returned %+v, error %v; want context.Canceled", fit, err)
	}
}

// TestCharacterizeLeavesNoGoroutines checks that every simulation
// goroutine has exited when a stage returns, after a completed run and
// after cancelled ones.
func TestCharacterizeLeavesNoGoroutines(t *testing.T) {
	// settled polls until at most limit goroutines remain (or 20 ms pass)
	// and returns the count, so goroutines that are exiting are not
	// counted as leaked.
	settled := func(limit int) int {
		n := runtime.NumGoroutine()
		for i := 0; i < 20 && n > limit; i++ {
			time.Sleep(time.Millisecond)
			n = runtime.NumGoroutine()
		}
		return n
	}
	before := settled(0)
	check := func(what string) {
		t.Helper()
		if n := settled(before); n > before {
			t.Fatalf("%d goroutines after %s, %d before", n, what, before)
		}
	}
	rig := platformRig(t, "tablet-8big", 1)
	if _, err := rig.CharacterizeLeakage(); err != nil {
		t.Fatal(err)
	}
	check("CharacterizeLeakage")
	if _, _, err := rig.CharacterizeThermal(); err != nil {
		t.Fatal(err)
	}
	check("CharacterizeThermal")

	rig = platformRig(t, "tablet-8big", 1)
	rig.Ctx = newCancelAfter(3)
	if _, err := rig.CharacterizeLeakage(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled leakage characterization returned %v, want context.Canceled", err)
	}
	check("a cancelled CharacterizeLeakage")
	rig.Ctx = newCancelAfter(1)
	if _, _, err := rig.CharacterizeThermal(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled identification returned %v, want context.Canceled", err)
	}
	check("a cancelled CharacterizeThermal")
}

// TestParallelReraisesPanics checks that a unit's panic, on whichever
// goroutine it ran, reaches the caller's goroutine.
func TestParallelReraisesPanics(t *testing.T) {
	defer func() {
		if p := recover(); p != "unit 3" {
			t.Fatalf("recovered %v, want the unit's panic", p)
		}
	}()
	(&Rig{}).parallel(8, func(i int) error {
		if i == 3 {
			panic("unit 3")
		}
		return nil
	})
	t.Fatal("parallel returned after a unit panicked")
}

// TestParallelReturnsLowestIndexError checks that the reported failure
// does not depend on which unit failed first in time.
func TestParallelReturnsLowestIndexError(t *testing.T) {
	i, err := (&Rig{}).parallel(16, func(i int) error {
		if i%5 == 2 {
			return fmt.Errorf("unit %d", i)
		}
		return nil
	})
	if i != 2 || err == nil || err.Error() != "unit 2" {
		t.Fatalf("parallel returned (%d, %v), want (2, unit 2)", i, err)
	}
	if i, err := (&Rig{}).parallel(0, nil); i != -1 || err != nil {
		t.Fatalf("empty batch returned (%d, %v)", i, err)
	}
}

// goroutineID returns the calling goroutine's id, parsed from its stack
// header ("goroutine 7 [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(string(buf))[1]
}

// TestParallelWaitsForEveryUnit checks that parallel returns only after
// every unit has finished and its goroutines have exited. Units on the
// other goroutines sleep; the caller's wait until one of those has
// started and then return at once, so whenever GOMAXPROCS > 1 the caller
// runs out of work while the others still sleep.
func TestParallelWaitsForEveryUnit(t *testing.T) {
	before := runtime.NumGoroutine()
	caller := goroutineID()
	others := make(chan struct{})
	var once sync.Once
	var done atomic.Int64
	const n = 32
	(&Rig{}).parallel(n, func(i int) error {
		if goroutineID() != caller {
			once.Do(func() { close(others) })
			time.Sleep(5 * time.Millisecond)
		} else if runtime.GOMAXPROCS(0) > 1 {
			<-others
		}
		done.Add(1)
		return nil
	})
	if got := done.Load(); got != n {
		t.Fatalf("parallel returned with %d of %d units finished", got, n)
	}
	for i := 0; i < 20 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("%d goroutines after parallel, %d before", got, before)
	}
}
