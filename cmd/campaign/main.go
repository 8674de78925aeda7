// Command campaign runs an arbitrary simulation sweep — the cartesian
// product of {policy × workload × platform × governor × seed × tmax},
// where the workload axis is either benchmarks or named scenarios and the
// platform axis names registered platform profiles — across a worker pool,
// and exports the aggregated per-cell metrics.
//
// Results are deterministic at any parallelism level: the same grid and
// -seed produce byte-identical -json/-csv files whether -workers is 1 or 64.
//
// Usage:
//
//	campaign -list
//	campaign -benches dijkstra,patricia -policies with-fan,dtpm -seeds 1,2
//	campaign -benches all -policies dtpm -tmax 58,63,68 -workers 8 \
//	         -json sweep.json -csv sweep.csv
//	campaign -scenarios all -policies with-fan,reactive -workers 8
//	campaign -benches dijkstra -platforms exynos5410,fanless-phone,tablet-8big -policies dtpm
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/campaign"
	"repro/internal/cli"
	"repro/internal/client"
	"repro/internal/controlapi"
	"repro/internal/governor"
	"repro/internal/platform"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fatal(err)
	}
}

// run is main's testable body; errors come back for main to map onto exit
// codes (the in-terminal exits — 130 on cancel, 1 on failed cells — stay
// here because they are process-level contract, not library behavior).
func run(args []string) error {
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	var (
		policies  = fs.String("policies", "dtpm", "comma-separated policies (with-fan,without-fan,reactive,dtpm)")
		benches   = fs.String("benches", "", `comma-separated benchmark names, or "all" (default templerun unless -scenarios is set)`)
		scenarios = fs.String("scenarios", "", `comma-separated scenario names, or "all" (alternative workload axis)`)
		platforms = fs.String("platforms", "", `comma-separated platform profiles, or "all" (empty = `+platform.DefaultName+`)`)
		platAlias = fs.String("platform", "", "single platform profile (alias for -platforms)")
		governors = fs.String("governors", "", "comma-separated cpufreq governors (empty = ondemand)")
		seeds     = fs.String("seeds", "1", "comma-separated replicate seeds")
		tmax      = fs.String("tmax", "", "comma-separated thermal constraints in C (empty = paper's 63)")
		workers   = fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		baseSeed  = fs.Int64("seed", 1, "campaign base seed (characterization + per-cell derivation)")
		jsonOut   = fs.String("json", "", "write the full report as JSON to this file")
		csvOut    = fs.String("csv", "", "write one CSV row per cell to this file")
		quiet     = fs.Bool("quiet", false, "suppress per-cell progress on stderr")
		addr      = fs.String("addr", "", "submit to a reprod daemon at this address instead of running in-process")
		tenant    = fs.String("tenant", "", "tenant name for daemon submissions (with -addr)")
		list      = fs.Bool("list", false, "list benchmarks and policies, then exit")
		storeDir  = fs.String("store", store.DefaultDir, "content-addressed result store directory")
		noCache   = fs.Bool("no-cache", false, "disable the result store (compute every cell)")
	)
	if err := cli.ParseFlags(fs, args); err != nil {
		return err
	}

	if *list {
		fmt.Println("benchmarks:", strings.Join(workload.Names(), ", "))
		fmt.Println("scenarios: ", strings.Join(scenario.Names(), ", "))
		fmt.Println("platforms: ", strings.Join(platform.Names(), ", "))
		var pols []string
		for _, p := range sim.Policies() {
			pols = append(pols, p.String())
		}
		fmt.Println("policies:  ", strings.Join(pols, ", "))
		return nil
	}

	// SIGINT/SIGTERM cancel the sweep: workers stop picking up cells,
	// in-flight simulations abort between control intervals, and the
	// partial report (completed cells intact) is still summarized and
	// exported before exiting 130.
	ctx, stop := cli.SignalContext()
	defer stop()

	// -platform is a convenience alias for a single-entry -platforms axis
	// (the single-run CLIs use the singular form).
	platAxis := *platforms
	if *platAlias != "" {
		if platAxis != "" {
			return fmt.Errorf("use -platforms or -platform, not both")
		}
		platAxis = *platAlias
	}
	grid, err := buildGrid(*policies, *benches, *scenarios, platAxis, *governors, *seeds, *tmax)
	if err != nil {
		return err
	}

	if *addr != "" {
		return runRemote(ctx, *addr, *tenant, grid, *baseSeed, *workers, *jsonOut, *csvOut, *quiet)
	}

	eng := &campaign.Engine{
		Workers:  *workers,
		BaseSeed: *baseSeed,
	}
	if !*noCache {
		st, err := store.Open(*storeDir)
		if err != nil {
			return err
		}
		eng.Store = st
	}
	// The DTPM policy (and prediction-accuracy accounting) needs the
	// Chapter 4 characterization of the default device; run it up front —
	// but only when some cell will actually use that device. A sweep whose
	// platform axis names only non-default profiles gets each of them
	// characterized lazily inside the engine instead.
	if grid.UsesDefaultPlatform() {
		fmt.Fprintln(os.Stderr, "campaign: characterizing device (furnace + PRBS system identification)...")
		runner := sim.NewRunner()
		models, err := runner.Characterize(ctx, *baseSeed)
		if err != nil {
			return err
		}
		eng.Runner = runner
		eng.Models = models
	}

	// Run the sweep on the streaming engine (RunContext collects the
	// completion-order stream into the deterministic cell-index order the
	// exports rely on); OnCellDone prints live progress per cell.
	if !*quiet {
		eng.OnCellDone = func(done, total int, r campaign.CellResult) {
			status := "ok"
			if r.Err != "" {
				status = "FAILED: " + r.Err
			}
			fmt.Fprintf(os.Stderr, "campaign: [%d/%d] %s %s\n", done, total, r.Cell, status)
		}
	}
	fmt.Fprintf(os.Stderr, "campaign: running %d cells\n", grid.Size())
	rep, err := eng.RunContext(ctx, grid)
	if eng.Store != nil {
		fmt.Fprintf(os.Stderr, "campaign: store %s: %s\n", eng.Store.Dir(), eng.Store.Stats().Summary())
	}
	cancelled := err != nil && cli.Cancelled(err)
	if err != nil && !cancelled {
		return err
	}

	fmt.Print(rep.Summary())
	if *jsonOut != "" {
		if err := writeFile(*jsonOut, rep.WriteJSON); err != nil {
			return err
		}
	}
	if *csvOut != "" {
		if err := writeFile(*csvOut, rep.WriteCSV); err != nil {
			return err
		}
	}
	if cancelled {
		fmt.Fprintln(os.Stderr, "campaign:", err)
		os.Exit(130)
	}
	if len(rep.Failures()) > 0 {
		os.Exit(1)
	}
	return nil
}

func fatal(err error) {
	cli.Exit("campaign", err, "run `campaign -list` for the known names")
}

// runRemote is the -addr thin-client path: submit the grid to a reprod
// daemon, mirror the in-process progress/store/summary output from the
// event stream, fetch the byte-identical exports, and exit with the
// in-process codes. Ctrl-C cancels the run server-side and the partial
// report is still exported before exiting 130.
func runRemote(ctx context.Context, addr, tenant string, grid campaign.Grid, baseSeed int64, workers int, jsonOut, csvOut string, quiet bool) error {
	cl := client.New(addr)
	cl.Tenant = tenant
	gridJSON, err := json.Marshal(grid)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "campaign: running %d cells\n", grid.Size())
	info, err := cl.SubmitCampaign(ctx, controlapi.SubmitRequest{Spec: gridJSON, Seed: baseSeed, Workers: workers})
	if err != nil {
		return err
	}
	go func() {
		<-ctx.Done()
		cl.Cancel(context.Background(), info.ID)
	}()
	done, err := cl.Follow(context.Background(), info.ID, 0, func(ev controlapi.Event) error {
		if quiet || ev.Type != controlapi.EventProgress {
			return nil
		}
		status := "ok"
		if ev.Err != "" {
			status = "FAILED: " + ev.Err
		}
		fmt.Fprintf(os.Stderr, "campaign: [%d/%d] %s %s\n", ev.Done, ev.Total, ev.Cell, status)
		return nil
	})
	if err != nil {
		return err
	}
	if done.StoreDir != "" {
		rate := 0.0
		if done.Hits+done.Misses > 0 {
			rate = float64(done.Hits) / float64(done.Hits+done.Misses)
		}
		fmt.Fprintf(os.Stderr, "campaign: store %s: %d hits, %d misses (%.0f%% hit rate)\n",
			done.StoreDir, done.Hits, done.Misses, 100*rate)
	}
	if done.State == controlapi.StateFailed {
		return errors.New(done.RunErr)
	}
	if done.Summary == "" && done.State == controlapi.StateCancelled {
		fmt.Fprintln(os.Stderr, "campaign:", done.RunErr)
		os.Exit(130)
	}
	fmt.Print(done.Summary)
	writeRemote := func(format, path string) error {
		b, err := cl.Report(context.Background(), info.ID, format)
		if err != nil {
			return err
		}
		return os.WriteFile(path, b, 0o644)
	}
	if jsonOut != "" {
		if err := writeRemote("json", jsonOut); err != nil {
			return err
		}
	}
	if csvOut != "" {
		if err := writeRemote("csv", csvOut); err != nil {
			return err
		}
	}
	if done.State == controlapi.StateCancelled {
		fmt.Fprintln(os.Stderr, "campaign:", done.RunErr)
		os.Exit(130)
	}
	if done.Failures > 0 {
		os.Exit(1)
	}
	return nil
}

// buildGrid parses the axis flags into a campaign grid.
func buildGrid(policies, benches, scenarios, platforms, governors, seeds, tmax string) (campaign.Grid, error) {
	var g campaign.Grid
	for _, name := range splitList(policies) {
		p, err := sim.ParsePolicy(name)
		if err != nil {
			return g, err
		}
		g.Policies = append(g.Policies, p)
	}
	if benches != "" && scenarios != "" {
		return g, fmt.Errorf("-benches and -scenarios are alternative workload axes; set one")
	}
	if benches == "all" {
		g.Benchmarks = workload.Names()
	} else {
		for _, name := range splitList(benches) {
			if _, err := workload.ByName(name); err != nil {
				return g, err
			}
			g.Benchmarks = append(g.Benchmarks, name)
		}
	}
	if scenarios == "all" {
		g.Scenarios = scenario.Names()
	} else {
		for _, name := range splitList(scenarios) {
			if _, err := scenario.ByName(name); err != nil {
				return g, err
			}
			g.Scenarios = append(g.Scenarios, name)
		}
	}
	if platforms == "all" {
		g.Platforms = platform.Names()
	} else {
		for _, name := range splitList(platforms) {
			if _, err := platform.ByName(name); err != nil {
				return g, err
			}
			g.Platforms = append(g.Platforms, name)
		}
	}
	// Validate governor names up front like benchmarks: a typo should fail
	// in milliseconds, not after the expensive characterization as a wall
	// of identical per-cell errors.
	for _, name := range splitList(governors) {
		if _, err := governor.ByName(name); err != nil {
			return g, err
		}
		g.Governors = append(g.Governors, name)
	}
	for _, s := range splitList(seeds) {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return g, fmt.Errorf("bad seed %q: %w", s, err)
		}
		g.Seeds = append(g.Seeds, v)
	}
	for _, s := range splitList(tmax) {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return g, fmt.Errorf("bad tmax %q: %w", s, err)
		}
		g.TMax = append(g.TMax, v)
	}
	return g, nil
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f != "" {
			out = append(out, f)
		}
	}
	return out
}

func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
