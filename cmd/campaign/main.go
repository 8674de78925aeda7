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
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/campaign"
	"repro/internal/cli"
	"repro/internal/controlapi"
	"repro/internal/governor"
	"repro/internal/platform"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		cli.Exit("campaign", err, "run `campaign -list` for the known names")
	}
	if code != 0 {
		os.Exit(code)
	}
}

// run is main's testable body: it returns the exit code of a finished
// sweep (0 ok, 1 failed cells, 130 cancelled) or the error for main to map
// onto one.
func run(args []string) (int, error) {
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
		return 0, err
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
		return 0, nil
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
			return 0, fmt.Errorf("use -platforms or -platform, not both")
		}
		platAxis = *platAlias
	}
	grid, err := buildGrid(*policies, *benches, *scenarios, platAxis, *governors, *seeds, *tmax)
	if err != nil {
		return 0, err
	}

	out := cli.Output{Tool: "campaign", JSON: *jsonOut, CSV: *csvOut, Quiet: *quiet}
	fmt.Fprintf(os.Stderr, "campaign: running %d cells\n", grid.Size())
	if *addr != "" {
		return out.Remote(ctx, *addr, *tenant, controlapi.KindCampaign, grid, *baseSeed, *workers)
	}

	eng := &campaign.Engine{
		Workers:  *workers,
		BaseSeed: *baseSeed,
	}
	if !*noCache {
		st, err := store.Open(*storeDir)
		if err != nil {
			return 0, err
		}
		eng.Store = st
	}
	res, err := server.ExecuteCampaign(ctx, eng, grid, out.Progress())
	return out.Finish(res, err, eng.Store)
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
