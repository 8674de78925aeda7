// Command dtpmsim runs one benchmark under one thermal-management policy on
// the simulated Odroid-XU+E platform and reports the Chapter 6 metrics,
// optionally dumping the full time traces as CSV.
//
// The simulation is context-aware: Ctrl-C stops it between control
// intervals and the partial metrics over the completed intervals are
// reported before exiting with the conventional SIGINT code (130). With
// -progress, live per-interval telemetry streams to stderr.
//
// Usage:
//
//	dtpmsim -bench templerun -policy dtpm
//	dtpmsim -bench matrixmult -policy all
//	dtpmsim -bench basicmath -policy nofan -csv trace.csv
//	dtpmsim -bench dijkstra -platform tablet-8big -policy dtpm -progress
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	fs := flag.NewFlagSet("dtpmsim", flag.ContinueOnError)
	var (
		bench    = fs.String("bench", "templerun", "benchmark name (see -list)")
		policy   = fs.String("policy", "dtpm", "fan | nofan | reactive | dtpm | all")
		seed     = fs.Int64("seed", 1, "sensor-noise / background seed")
		tmax     = fs.Float64("tmax", 0, "temperature constraint in C (0 = paper default 63)")
		governor = fs.String("governor", "", "default cpufreq governor (ondemand, interactive, performance, powersave)")
		csvPath  = fs.String("csv", "", "write full time traces to this CSV file")
		plat     = fs.String("platform", "", "platform profile (empty = "+platform.DefaultName+"; see -list)")
		progress = fs.Bool("progress", false, "stream live per-interval telemetry to stderr")
		list     = fs.Bool("list", false, "list benchmarks and platforms, then exit")
	)
	if err := cli.ParseFlags(fs, os.Args[1:]); err != nil {
		cli.Exit("dtpmsim", err, "")
	}

	if *list {
		for _, b := range workload.Table() {
			fmt.Printf("%-12s %-14s class=%-6s threads=%d nominal=%.0fs\n",
				b.Name, b.Type, b.Class, b.Threads, b.NominalDuration())
		}
		fmt.Println("platforms:", strings.Join(platform.Names(), ", "))
		return
	}

	// SIGINT/SIGTERM cancel the context; the simulator stops between
	// control intervals and returns the partial result.
	ctx, stop := cli.SignalContext()
	defer stop()

	b, err := workload.ByName(*bench)
	if err != nil {
		fatal(err)
	}
	policies, err := parsePolicies(*policy)
	if err != nil {
		fatal(err)
	}

	runner := sim.NewRunner()
	if *plat != "" {
		desc, err := platform.ByName(*plat)
		if err != nil {
			fatal(err)
		}
		runner = sim.NewRunnerFor(desc)
	}
	fmt.Fprintln(os.Stderr, "characterizing device (furnace + PRBS system identification)...")
	ch, err := runner.Characterize(ctx, *seed)
	if err != nil {
		fatal(err)
	}

	var observer func(sim.Sample)
	var progressDone func()
	if *progress {
		observer, progressDone = cli.Progress(os.Stderr, 50) // every 5 simulated seconds at 100 ms
	}

	fmt.Printf("%-12s %8s %8s %8s %7s %7s %8s %9s\n",
		"policy", "exec(s)", "power(W)", "energy(J)", "maxT(C)", "avgT(C)", ">63C(s)", "predErr")
	for _, pol := range policies {
		res, err := cli.RunPartial(ctx, runner, sim.Options{
			Policy: pol, Bench: b, Seed: *seed, TMax: *tmax, Governor: *governor,
			Model: ch.Thermal, PowerModel: ch.Power,
			Record:   *csvPath != "",
			Observer: observer,
		}, progressDone)
		if res == nil {
			fatal(err)
		}
		fmt.Printf("%-12s %8.1f %8.2f %8.0f %7.1f %7.1f %8.1f %8.2f%%\n",
			pol, res.ExecTime, res.AvgPower, res.Energy, res.MaxTemp, res.AvgTemp,
			res.OverTMax, res.PredMeanPct)
		// Written even when the run was interrupted: the partial recording
		// over the completed intervals is exactly what -csv asked for.
		if *csvPath != "" && res.Rec != nil {
			name := *csvPath
			if len(policies) > 1 {
				name = strings.TrimSuffix(name, ".csv") + "-" + pol.String() + ".csv"
			}
			if err := cli.WriteFile(name, res.Rec.WriteCSV); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "traces written to %s\n", name)
		}
		if err != nil { // cancelled: partial metrics and trace reported, SIGINT exit
			fatal(err)
		}
	}
}

func parsePolicies(s string) ([]sim.Policy, error) {
	switch strings.ToLower(s) {
	case "fan", "with-fan", "default":
		return []sim.Policy{sim.PolicyFan}, nil
	case "nofan", "without-fan":
		return []sim.Policy{sim.PolicyNoFan}, nil
	case "reactive":
		return []sim.Policy{sim.PolicyReactive}, nil
	case "dtpm":
		return []sim.Policy{sim.PolicyDTPM}, nil
	case "all":
		return []sim.Policy{sim.PolicyFan, sim.PolicyNoFan, sim.PolicyReactive, sim.PolicyDTPM}, nil
	}
	return nil, fmt.Errorf("unknown policy %q (fan, nofan, reactive, dtpm, all)", s)
}

func fatal(err error) {
	cli.Exit("dtpmsim", err, "run `dtpmsim -list` for the known names")
}
