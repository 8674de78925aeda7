package server

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/controlapi"
	"repro/internal/fleet"
	"repro/internal/scenario"
	"repro/internal/store"
)

// TestCheckpoints pins the coalescing rule: a run of up to 64 cells
// reports every cell, a larger one its first and last cell and every
// ceil(total/64)th, never more than 65 events.
func TestCheckpoints(t *testing.T) {
	for _, total := range []int{1, 2, 63, 64, 65, 100, 127, 128, 129, 1000, 1024, 100_003} {
		var c checkpoints
		var got []int
		for done := 1; done <= total; done++ {
			if c.note(done, total, done%7 == 0, done%3 == 0) {
				got = append(got, done)
			}
		}
		if total <= progressEvents && len(got) != total {
			t.Errorf("total %d: %d events, want one per cell", total, len(got))
		}
		if len(got) > progressEvents+1 || got[0] != 1 || got[len(got)-1] != total {
			t.Errorf("total %d: %d events from %d to %d, want at most %d from 1 to %d",
				total, len(got), got[0], got[len(got)-1], progressEvents+1, total)
		}
		ev := c.event("cell", "", false)
		if ev.Done != total || ev.Total != total || ev.DoneCached != total/3 || ev.DoneFailed != total/7 {
			t.Errorf("total %d: final counts %+v, want done %d, cached %d, failed %d",
				total, ev, total, total/3, total/7)
		}
	}
}

// registerTinyScenarios registers the fleet memory test's one-second idle
// scenarios, so a population run is dominated by bookkeeping, not physics.
func registerTinyScenarios(t *testing.T) {
	t.Helper()
	for i, name := range []string{"mem-tiny-a", "mem-tiny-b"} {
		if err := scenario.Register(scenario.Spec{
			Name:   name,
			Seed:   9001 + int64(i),
			Phases: []scenario.Phase{{Name: "idle", DurationS: 1}},
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func tinyFleet(n int) fleet.Spec {
	return fleet.Spec{
		Name:           "mem-bound",
		N:              n,
		Policy:         "without-fan",
		ControlPeriodS: 0.5,
		Scenarios:      []fleet.Weight{{Name: "mem-tiny-a", Weight: 2}, {Name: "mem-tiny-b", Weight: 1}},
		AmbientJitterC: 3,
	}
}

// TestDaemonBoundedMemory is the daemon twin of fleet's
// TestFleetBoundedMemory: a terminal run held in the daemon's history
// retains memory independent of its population. A 100k-device run may
// retain no more than the fleet test's 8 MB ceiling over a 20k-device one
// (one event per device would be ~20 MB), and each run's log holds at most
// 65 progress events plus its done event.
func TestDaemonBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second population runs")
	}
	registerTinyScenarios(t)
	_, _, cl := newTestDaemon(t, Config{Workers: 4})
	ctx := context.Background()
	retained := func(n int) int64 {
		t.Helper()
		info, err := cl.SubmitFleet(ctx, controlapi.SubmitRequest{Spec: specJSON(t, tinyFleet(n)), Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		final := waitTerminal(t, cl, info.ID)
		if final.State != controlapi.StateSucceeded || final.Done != n {
			t.Fatalf("%d-device run ended %s with %d done", n, final.State, final.Done)
		}
		if final.NextSeq > progressEvents+2 {
			t.Errorf("%d-device run logged %d events, want at most %d", n, final.NextSeq, progressEvents+2)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	const small, large = 20_000, 100_000
	heapSmall := retained(small)
	heapLarge := retained(large)
	const ceiling = 8 << 20
	growth := heapLarge - heapSmall
	t.Logf("retained heap grew %d bytes from a %d- to a %d-device run", growth, small, large)
	if growth > ceiling {
		t.Errorf("retained heap grew %d bytes from a %d- to a %d-device run (ceiling %d): the daemon keeps per-device state",
			growth, small, large, int(ceiling))
	}
}

// TestCoalescedProgress: a run above 64 cells streams coalesced
// checkpoints whose cumulative counts add up — cold, store-warm, and
// cancelled part-way — and RunInfo.Done and the done event's hits and
// misses count every cell that ran, whether or not the last one was a
// checkpoint.
func TestCoalescedProgress(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	registerTinyScenarios(t)
	_, _, cl := newTestDaemon(t, Config{Workers: 2, Store: st})
	ctx := context.Background()

	// follow streams a run to its end and checks its checkpoints.
	follow := func(name, id string) (controlapi.Event, []controlapi.Event) {
		t.Helper()
		var progress []controlapi.Event
		done, err := cl.Follow(ctx, id, 0, func(ev controlapi.Event) error {
			if ev.Type == controlapi.EventProgress {
				progress = append(progress, ev)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(progress) == 0 || len(progress) > progressEvents+1 || progress[0].Done != 1 {
			t.Fatalf("%s: %d progress events, want 1 to %d starting at the first cell", name, len(progress), progressEvents+1)
		}
		for i, ev := range progress[1:] {
			prev := progress[i]
			if ev.Done <= prev.Done || ev.DoneCached < prev.DoneCached || ev.DoneFailed < prev.DoneFailed ||
				ev.DoneCached+ev.DoneFailed > ev.Done {
				t.Fatalf("%s: checkpoint %+v does not follow %+v", name, ev, prev)
			}
		}
		return done, progress
	}
	// counts checks the run's cell counts against want cells that ran.
	counts := func(name, id string, done controlapi.Event, want int) {
		t.Helper()
		info, err := cl.Run(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if info.Done != want || done.Hits+done.Misses != uint64(want) {
			t.Errorf("%s: RunInfo done %d, done event %d hits + %d misses; want %d cells",
				name, info.Done, done.Hits, done.Misses, want)
		}
	}

	const n = 300
	for _, pass := range []string{"cold", "warm"} {
		info, err := cl.SubmitFleet(ctx, controlapi.SubmitRequest{Spec: specJSON(t, tinyFleet(n)), Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		done, progress := follow(pass, info.ID)
		last := progress[len(progress)-1]
		if last.Done != n || last.Total != n {
			t.Errorf("%s: last checkpoint %d/%d, want %d/%d", pass, last.Done, last.Total, n, n)
		}
		counts(pass, info.ID, done, n)
		if cached := map[string]int{"cold": 0, "warm": n}[pass]; last.DoneCached != cached || done.Hits != uint64(cached) {
			t.Errorf("%s: %d cells cached at the last checkpoint, %d store hits; want %d",
				pass, last.DoneCached, done.Hits, cached)
		}
	}

	// A campaign does not report the cells a cancellation kept from
	// starting, so its last finished cell need not be a checkpoint. The
	// cells that ran are the grid less those the report marks as never
	// started.
	seeds := make([]string, 200)
	for i := range seeds {
		seeds[i] = fmt.Sprint(i + 1)
	}
	grid := `{"policies":["without-fan"],"benchmarks":["dijkstra"],"seeds":[` + strings.Join(seeds, ",") + `]}`
	info, err := cl.SubmitCampaign(ctx, controlapi.SubmitRequest{Spec: []byte(grid), Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	waitProgress(t, cl, info.ID, 1)
	if err := cl.Cancel(ctx, info.ID); err != nil {
		t.Fatal(err)
	}
	done, progress := follow("cancelled", info.ID)
	if done.State != controlapi.StateCancelled {
		t.Fatalf("cancelled campaign ended %s", done.State)
	}
	csv, err := cl.Report(ctx, info.ID, "csv")
	if err != nil {
		t.Fatal(err)
	}
	ran := len(seeds) - strings.Count(string(csv), "cancelled before start")
	if last := progress[len(progress)-1].Done; last > ran {
		t.Errorf("cancelled: last checkpoint at %d cells, only %d ran", last, ran)
	}
	t.Logf("cancelled campaign: %d of %d cells ran, last checkpoint at %d", ran, len(seeds), progress[len(progress)-1].Done)
	counts("cancelled", info.ID, done, ran)
}
