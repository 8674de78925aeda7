// Scenariosession drives the streaming session API end to end: run a
// library scenario (a full gaming session with menus, gameplay, and a
// pause) while observing its samples live, record its trace, verify the
// streamed samples are bit-identical to the recorded rows, replay the
// trace as the workload demand source, and verify the replay reproduces
// the original run sample for sample. It then cancels a second session
// mid-run to show the well-defined partial result, and sweeps every
// library scenario across two policies with the campaign engine.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"

	"repro"
)

func main() {
	ctx := context.Background()
	dev := repro.NewDevice()

	// Run one named scenario as a streaming session, recording the trace.
	session, err := dev.Start(ctx, repro.NewSpec(
		repro.WithScenario("gaming-session"),
		repro.WithPolicy(repro.WithFan),
		repro.WithSeed(1),
		repro.WithRecord(true),
	))
	if err != nil {
		log.Fatal(err)
	}
	var streamed []repro.Sample
	for s := range session.Samples() {
		streamed = append(streamed, s)
	}
	res, err := session.Result()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Summary())

	// Streamed samples and recorded trace rows are the same values.
	maxtemp := res.Rec.Series("maxtemp")
	if maxtemp.Len() != len(streamed) {
		log.Fatalf("streamed %d samples, recorded %d rows", len(streamed), maxtemp.Len())
	}
	for i, s := range streamed {
		if maxtemp.Vals[i] != s.MaxTemp {
			log.Fatalf("sample %d: streamed %v, recorded %v", i, s.MaxTemp, maxtemp.Vals[i])
		}
	}
	fmt.Printf("streamed %d samples, bit-identical to the recorded trace\n", len(streamed))

	// Replay the recorded trace: zero mismatches expected.
	_, diff, err := dev.ReplayTrace(ctx, res.Rec,
		repro.WithPolicy(repro.WithFan),
		repro.WithSeed(1),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("replay:", diff)
	if !diff.Clean() {
		log.Fatal("replay diverged from the recording")
	}

	// Cancel a session mid-run: the partial result covers exactly the
	// intervals that completed before the cancellation.
	cctx, cancel := context.WithCancel(ctx)
	session, err = dev.Start(cctx, repro.NewSpec(
		repro.WithScenario("gaming-session"),
		repro.WithPolicy(repro.WithFan),
		repro.WithSeed(1),
	))
	if err != nil {
		log.Fatal(err)
	}
	seen := 0
	for range session.Samples() {
		if seen++; seen == 100 { // cancel after 10 simulated seconds
			cancel()
		}
	}
	partial, err := session.Result()
	if !errors.Is(err, repro.ErrCancelled) {
		log.Fatalf("cancelled session returned %v, want ErrCancelled", err)
	}
	fmt.Printf("cancelled after %d samples: partial result covers %.1fs\n", seen, partial.ExecTime)
	cancel()

	// Sweep the whole scenario library across two policies.
	grid := repro.CampaignGrid{
		Policies:  []repro.Policy{repro.WithFan, repro.Reactive},
		Scenarios: repro.Scenarios(),
	}
	fmt.Fprintf(os.Stderr, "sweeping %d scenario cells...\n", grid.Size())
	rep, err := dev.RunCampaign(ctx, grid, nil, 0 /* GOMAXPROCS */, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rep.Summary())
}
