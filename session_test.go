package repro

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// sampleSeries maps every recorded output series to the Sample field that
// feeds it — the bit-identity contract between the stream and the trace.
var sampleSeries = map[string]func(Sample) float64{
	"maxtemp":    func(s Sample) float64 { return s.MaxTemp },
	"freq_ghz":   func(s Sample) float64 { return s.FreqGHz },
	"power_w":    func(s Sample) float64 { return s.Power },
	"fan":        func(s Sample) float64 { return s.FanSpeed },
	"cores":      func(s Sample) float64 { return s.Cores },
	"cluster":    func(s Sample) float64 { return s.Cluster },
	"gpu_mhz":    func(s Sample) float64 { return s.GPUMHz },
	"board":      func(s Sample) float64 { return s.BoardTemp },
	"bigpower_w": func(s Sample) float64 { return s.BigPower },
}

// TestStreamMatchesRecordedTrace pins the stream/batch equivalence
// contract: samples observed live during a recorded scenario run are
// bit-identical to the rows of Result.Rec, and the streamed session ends
// in the same Result a run nobody streams from produces.
func TestStreamMatchesRecordedTrace(t *testing.T) {
	dev := NewDevice()
	spec := NewSpec(
		WithScenario("cold-start"),
		WithPolicy(WithFan),
		WithSeed(11),
		WithRecord(true),
	)
	session, err := dev.Start(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []Sample
	for s := range session.Samples() {
		streamed = append(streamed, s)
	}
	res, err := session.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) == 0 || res.Rec == nil {
		t.Fatalf("streamed %d samples, rec=%v", len(streamed), res.Rec)
	}
	for name, field := range sampleSeries {
		series := res.Rec.Series(name)
		if series == nil {
			t.Fatalf("recorded trace missing series %q", name)
		}
		if series.Len() != len(streamed) {
			t.Fatalf("series %q has %d rows, streamed %d samples", name, series.Len(), len(streamed))
		}
		for i, s := range streamed {
			if series.Vals[i] != field(s) {
				t.Fatalf("series %q row %d: recorded %v, streamed %v", name, i, series.Vals[i], field(s))
			}
			if series.Times[i] != s.Time {
				t.Fatalf("series %q row %d: recorded t=%v, streamed t=%v", name, i, series.Times[i], s.Time)
			}
		}
	}
	for i, s := range streamed {
		if s.Step != i {
			t.Fatalf("sample %d carries step %d", i, s.Step)
		}
	}

	// The session's Result is the batch path's Result: a run whose samples
	// nobody consumes is the identical simulation.
	batch, err := dev.runToCompletion(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if batch.MaxTemp != res.MaxTemp || batch.Energy != res.Energy || batch.ExecTime != res.ExecTime {
		t.Errorf("stream result differs from batch: maxT %g vs %g, energy %g vs %g, exec %g vs %g",
			res.MaxTemp, batch.MaxTemp, res.Energy, batch.Energy, res.ExecTime, batch.ExecTime)
	}
}

// TestObserverCallbackForm pins the WithObserver path: the callback sees
// the same samples the iterator would, without any streaming consumer.
func TestObserverCallbackForm(t *testing.T) {
	dev := NewDevice()
	var observed []Sample
	res, err := dev.runToCompletion(context.Background(), NewSpec(
		WithScenario("cold-start"),
		WithPolicy(WithFan),
		WithSeed(11),
		WithRecord(true),
		WithObserver(func(s Sample) { observed = append(observed, s) }),
	))
	if err != nil {
		t.Fatal(err)
	}
	mt := res.Rec.Series("maxtemp")
	if len(observed) != mt.Len() {
		t.Fatalf("observer saw %d samples, trace has %d rows", len(observed), mt.Len())
	}
	for i, s := range observed {
		if mt.Vals[i] != s.MaxTemp {
			t.Fatalf("observer sample %d: %v, recorded %v", i, s.MaxTemp, mt.Vals[i])
		}
	}
}

// TestCancelledRunIsExactPrefix pins the cancellation contract: a run
// cancelled at step k yields a partial result whose trace is exactly the
// first k+1 rows of the uncancelled run's trace.
func TestCancelledRunIsExactPrefix(t *testing.T) {
	const cancelStep = 50
	dev := NewDevice()
	full, err := runSpec(dev, WithScenario("cold-start"), WithPolicy(WithFan), WithSeed(11), WithRecord(true))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	session, err := dev.Start(ctx, NewSpec(
		WithScenario("cold-start"),
		WithPolicy(WithFan),
		WithSeed(11),
		WithRecord(true),
		WithObserver(func(s Sample) {
			seen++
			if s.Step == cancelStep {
				cancel() // takes effect at the top of the next interval
			}
		}),
	))
	if err != nil {
		t.Fatal(err)
	}
	partial, err := session.Result()
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("cancelled run returned %v, want ErrCancelled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled run error %v does not wrap context.Canceled", err)
	}
	if partial == nil {
		t.Fatal("cancelled run returned nil partial result")
	}
	if partial.Completed {
		t.Error("cancelled run reports Completed")
	}
	if seen != cancelStep+1 {
		t.Fatalf("observer saw %d samples, want %d", seen, cancelStep+1)
	}
	for name := range sampleSeries {
		got, want := partial.Rec.Series(name), full.Rec.Series(name)
		if got.Len() != cancelStep+1 {
			t.Fatalf("partial series %q has %d rows, want %d", name, got.Len(), cancelStep+1)
		}
		for i := 0; i < got.Len(); i++ {
			if got.Vals[i] != want.Vals[i] || got.Times[i] != want.Times[i] {
				t.Fatalf("partial series %q row %d: (%v,%v) vs full (%v,%v)",
					name, i, got.Times[i], got.Vals[i], want.Times[i], want.Vals[i])
			}
		}
	}
}

// TestCancelledSessionsDoNotLeakGoroutines starts sessions and abandons
// them in every legal way — cancelled before streaming, cancelled while
// streaming, stream broken early — and asserts the run goroutines all
// exit.
func TestCancelledSessionsDoNotLeakGoroutines(t *testing.T) {
	dev := NewDevice()
	before := runtime.NumGoroutine()

	// Cancelled without ever streaming.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	session, err := dev.Start(ctx, NewSpec(WithScenario("cold-start"), WithPolicy(WithFan)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := session.Result(); !errors.Is(err, ErrCancelled) && err != nil {
		t.Fatalf("pre-cancelled session: %v", err)
	}

	// Cancelled mid-stream.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	session, err = dev.Start(ctx2, NewSpec(WithScenario("cold-start"), WithPolicy(WithFan)))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for range session.Samples() {
		if n++; n == 10 {
			cancel2()
		}
	}
	if _, err := session.Result(); !errors.Is(err, ErrCancelled) {
		t.Fatalf("mid-stream cancel returned %v, want ErrCancelled", err)
	}

	// Stream broken early without cancellation: the run finishes on its
	// own at full speed.
	session, err = dev.Start(context.Background(), NewSpec(WithScenario("cold-start"), WithPolicy(WithFan)))
	if err != nil {
		t.Fatal(err)
	}
	for range session.Samples() {
		break
	}
	if _, err := session.Result(); err != nil {
		t.Fatalf("broken-stream session: %v", err)
	}

	// All run goroutines must have exited.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutines leaked: %d before, %d after\n%s", before, now, buf[:runtime.Stack(buf, true)])
	}
}

// TestSpecValidation pins the fail-fast contract: invalid specs are
// rejected by Start before any goroutine is spawned, with typed sentinel
// errors where one applies.
func TestSpecValidation(t *testing.T) {
	dev := NewDevice()
	cases := []struct {
		name string
		spec Spec
		want error
	}{
		{"no workload", NewSpec(WithPolicy(WithFan)), nil},
		{"unknown benchmark", NewSpec(WithBenchmark("doom")), ErrUnknownBenchmark},
		{"unknown scenario", NewSpec(WithScenario("no-such")), ErrUnknownScenario},
	}
	for _, c := range cases {
		if _, err := dev.Start(context.Background(), c.spec); err == nil {
			t.Errorf("%s: accepted", c.name)
		} else if c.want != nil && !errors.Is(err, c.want) {
			t.Errorf("%s: error %v does not wrap the sentinel", c.name, err)
		}
	}
	// Platform and model-mismatch sentinels.
	if _, err := NewDeviceFor("no-such-soc"); !errors.Is(err, ErrUnknownPlatform) {
		t.Errorf("NewDeviceFor error %v does not wrap ErrUnknownPlatform", err)
	}
	tablet, err := NewDeviceFor("tablet-8big")
	if err != nil {
		t.Fatal(err)
	}
	// Driving the 8-hotspot tablet with the default platform's 4-state
	// models must fail with the mismatch sentinel.
	if _, err := tablet.runToCompletion(context.Background(), NewSpec(
		WithBenchmark("dijkstra"), WithPolicy(DTPM), WithModels(models(t)))); !errors.Is(err, ErrModelPlatformMismatch) {
		t.Errorf("error %v does not wrap ErrModelPlatformMismatch", err)
	}
}

// TestWithControlPeriod pins the control-period option: samples land on
// the requested grid.
func TestWithControlPeriod(t *testing.T) {
	dev := NewDevice()
	session, err := dev.Start(context.Background(), NewSpec(
		WithScenario("cold-start"),
		WithPolicy(WithoutFan),
		WithControlPeriod(0.5),
	))
	if err != nil {
		t.Fatal(err)
	}
	var times []float64
	for s := range session.Samples() {
		times = append(times, s.Time)
	}
	if _, err := session.Result(); err != nil {
		t.Fatal(err)
	}
	if len(times) < 2 || times[1]-times[0] != 0.5 {
		t.Fatalf("control period not applied: %v", times[:min(3, len(times))])
	}
}

// TestSpecWorkloadExclusivity pins the last-one-wins semantics of the
// workload options and the device/platform accessors.
func TestSpecWorkloadExclusivity(t *testing.T) {
	dev := NewDevice()
	// The later workload option replaces the earlier one.
	res, err := dev.runToCompletion(context.Background(), NewSpec(
		WithBenchmark("doom"), // replaced below; must not error
		WithScenario("cold-start"),
		WithPolicy(WithoutFan),
	))
	if err != nil {
		t.Fatal(err)
	}
	if res.Bench != "cold-start" {
		t.Errorf("ran %q, want the scenario", res.Bench)
	}
	if dev.Platform() != Platforms()[0] {
		t.Errorf("default device platform %q, registry default %q", dev.Platform(), Platforms()[0])
	}
	if models(t).States() != 4 {
		t.Errorf("default models have %d states, want 4", models(t).States())
	}
}

// TestStreamCampaignFacade pins the streamed campaign: collecting the
// stream and ordering by cell index reproduces RunCampaign's report,
// failed cells included.
func TestStreamCampaignFacade(t *testing.T) {
	dev := NewDevice()
	grid := CampaignGrid{
		Policies:   []Policy{WithoutFan, Reactive},
		Benchmarks: []string{"dijkstra", "no-such-bench"},
		Seeds:      []int64{1, 2},
	}
	batch, err := dev.RunCampaign(context.Background(), grid, nil, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Failures()) != 4 {
		t.Fatalf("batch report has %d failed cells, want 4", len(batch.Failures()))
	}
	stream, err := dev.StreamCampaign(context.Background(), grid, nil, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]CellResult, len(batch.Cells))
	n := 0
	for r := range stream {
		got[r.Cell.Index] = r
		n++
	}
	if n != len(batch.Cells) {
		t.Fatalf("stream yielded %d cells, want %d", n, len(batch.Cells))
	}
	if !reflect.DeepEqual(got, batch.Cells) {
		t.Errorf("streamed cells differ from the batch report:\nstream %+v\nbatch  %+v", got, batch.Cells)
	}
}

// TestStreamCampaignEarlyBreak abandons a streamed campaign after one
// cell: the loop returns only once the run has ended, so the goroutine
// count goes back to its baseline, and the device sweeps cleanly
// afterwards.
func TestStreamCampaignEarlyBreak(t *testing.T) {
	dev := NewDevice()
	grid := CampaignGrid{
		Policies:   []Policy{WithoutFan, Reactive},
		Benchmarks: []string{"dijkstra"},
		Seeds:      []int64{1, 2, 3, 4, 5, 6, 7, 8},
	}
	m := models(t)
	before := runtime.NumGoroutine()
	stream, err := dev.StreamCampaign(context.Background(), grid, m, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for range stream {
		break
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutines leaked after an early break: %d before, %d after\n%s", before, now, buf[:runtime.Stack(buf, true)])
	}
	rep, err := dev.RunCampaign(context.Background(), grid, m, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fails := rep.Failures(); len(fails) != 0 {
		t.Fatalf("sweep after an early break failed: %+v", fails)
	}
}
