// Command scenario runs, records, replays, and diffs multi-phase usage
// scenarios on the simulated device.
//
// A scenario strings timed phases together the way a real device is used —
// app switches, idle gaps, ambient changes, governor swaps, thermal-soak
// preludes — and a recorded run captures both the simulator's outputs and
// the scripted inputs, so the trace itself can be re-fed as the workload
// demand source later. Replaying a trace with the parameters of the
// original run reproduces it sample for sample; any mismatch means the
// sim/thermal/dtpm stack changed behaviour, which is exactly what the
// golden-trace regression tests pin.
//
// Usage:
//
//	scenario list
//	scenario platforms
//	scenario run    -s gaming-session [-platform tablet-8big] [-policy with-fan] [-seed 1] [-chart]
//	scenario record -s gaming-session -o trace.csv
//	scenario replay -trace trace.csv [-o fresh.csv] [-tol 0]
//	scenario diff   -a a.csv -b b.csv [-tol 0]
//
// run and record accept -spec file.json in place of -s to execute a custom
// declarative scenario. replay exits non-zero when the diff is not clean.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/platform"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/version"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	// SIGINT/SIGTERM cancel the context; runs stop between control
	// intervals and the process exits with the conventional 130.
	ctx, stop := cli.SignalContext()
	defer stop()
	var err error
	switch os.Args[1] {
	case "list":
		err = cmdList()
	case "platforms":
		err = cmdPlatforms()
	case "run":
		err = cmdRun(ctx, os.Args[2:], false)
	case "record":
		err = cmdRun(ctx, os.Args[2:], true)
	case "replay":
		err = cmdReplay(ctx, os.Args[2:])
	case "diff":
		err = cmdDiff(os.Args[2:])
	case "-version", "--version":
		fmt.Println(version.Engine)
		return
	case "-h", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "scenario: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		cli.Exit("scenario", err, "run `scenario list` / `scenario platforms` for the known names")
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  scenario list
  scenario platforms
  scenario run    -s <name>|-spec <file.json> [flags]
  scenario record -s <name>|-spec <file.json> -o trace.csv [flags]
  scenario replay -trace trace.csv [-o fresh.csv] [-tol 0] [flags]
  scenario diff   -a a.csv -b b.csv [-tol 0]

common flags: -platform NAME (see `+"`scenario platforms`"+`)
              -policy with-fan|without-fan|reactive|dtpm  -seed N
              -tmax C  -governor NAME  -period S  -progress

Ctrl-C stops a run between control intervals (partial metrics are
reported; exit code 130).`)
}

// cmdPlatforms mirrors `scenario list` for the platform registry: one line
// per registered profile with its shape.
func cmdPlatforms() error {
	for _, name := range platform.Names() {
		d, err := platform.ByName(name)
		if err != nil {
			return err
		}
		little := "-"
		if d.Little != nil {
			little = fmt.Sprintf("%d", d.Little.Cores)
		}
		fan := "fan"
		if d.Fan == nil {
			fan = "fanless"
		}
		fmt.Printf("%-16s big=%d little=%-2s gpu=%d-steps %-8s %s\n",
			d.Name, d.Big.Cores, little, d.GPU.NumOPPs(), fan, d.Title)
	}
	return nil
}

func cmdList() error {
	for _, name := range scenario.Names() {
		s, err := scenario.ByName(name)
		if err != nil {
			return err
		}
		c, err := scenario.Compile(s)
		if err != nil {
			return err
		}
		fmt.Printf("%-20s %5.0fs  %d phases  %s\n", s.Name, c.Duration(), c.Phases(), s.Notes)
	}
	return nil
}

// runFlags are the simulation parameters shared by run/record/replay. They
// must match between a recording and its replay for the reproduction to be
// exact.
type runFlags struct {
	platform string
	policy   string
	seed     int64
	tmax     float64
	governor string
	period   float64
	progress bool

	progressDone func() // terminates the -progress line, set with the observer
}

func addRunFlags(fs *flag.FlagSet) *runFlags {
	rf := &runFlags{}
	fs.StringVar(&rf.platform, "platform", "", "platform profile (see `scenario platforms`; empty = "+platform.DefaultName+")")
	fs.StringVar(&rf.policy, "policy", "with-fan", "thermal-management policy (with-fan, without-fan, reactive, dtpm)")
	fs.Int64Var(&rf.seed, "seed", 1, "sensor-noise / background seed (dtpm: also the characterization seed)")
	fs.Float64Var(&rf.tmax, "tmax", 0, "thermal constraint in C (0 = paper's 63)")
	fs.StringVar(&rf.governor, "governor", "", "initial cpufreq governor (empty = ondemand)")
	fs.Float64Var(&rf.period, "period", 0, "control period in seconds (0 = paper's 0.1)")
	fs.BoolVar(&rf.progress, "progress", false, "stream live per-interval telemetry to stderr")
	return rf
}

// newRunner builds the simulated device for the -platform flag.
func (rf *runFlags) newRunner() (*sim.Runner, error) {
	if rf.platform == "" {
		return sim.NewRunner(), nil
	}
	d, err := platform.ByName(rf.platform)
	if err != nil {
		return nil, err
	}
	return sim.NewRunnerFor(d), nil
}

// options builds the sim.Options for a scripted run, characterizing the
// device first when the policy needs models.
func (rf *runFlags) options(ctx context.Context, runner *sim.Runner, script sim.Script, record bool) (sim.Options, error) {
	pol, err := sim.ParsePolicy(rf.policy)
	if err != nil {
		return sim.Options{}, err
	}
	opt := sim.Options{
		Policy:        pol,
		Script:        script,
		Seed:          rf.seed,
		TMax:          rf.tmax,
		Governor:      rf.governor,
		ControlPeriod: rf.period,
		Record:        record,
	}
	if rf.progress {
		opt.Observer, rf.progressDone = cli.Progress(os.Stderr, 50) // every 5 simulated seconds at 100 ms
	}
	if pol == sim.PolicyDTPM {
		fmt.Fprintln(os.Stderr, "scenario: characterizing device (furnace + PRBS system identification)...")
		models, err := runner.Characterize(ctx, rf.seed)
		if err != nil {
			return sim.Options{}, err
		}
		opt.Model = models.Thermal
		opt.PowerModel = models.Power
	}
	return opt, nil
}

// runScripted executes the options through the shared partial-result
// choreography: a cancelled run returns its partial result alongside the
// error, so the caller still reports metrics and writes the partial trace
// before the 130 exit.
func runScripted(ctx context.Context, rf *runFlags, runner *sim.Runner, opt sim.Options) (*sim.Result, error) {
	return cli.RunPartial(ctx, runner, opt, rf.progressDone)
}

func cmdRun(ctx context.Context, args []string, record bool) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	name := fs.String("s", "", "library scenario name (see `scenario list`)")
	specFile := fs.String("spec", "", "JSON scenario spec file (alternative to -s)")
	out := fs.String("o", "", "write the recorded trace CSV to this file")
	chart := fs.Bool("chart", false, "print ASCII charts of the main series")
	rf := addRunFlags(fs)
	if err := cli.ParseFlags(fs, args); err != nil {
		return err
	}
	spec, err := loadSpec(*name, *specFile)
	if err != nil {
		return err
	}
	script, err := scenario.Compile(spec)
	if err != nil {
		return err
	}
	if record && *out == "" {
		return fmt.Errorf("record needs -o <trace.csv>")
	}

	runner, err := rf.newRunner()
	if err != nil {
		return err
	}
	// Validate the scenario against the platform it will run on.
	if err := scenario.ValidateFor(spec, runner.Desc); err != nil {
		return err
	}
	opt, err := rf.options(ctx, runner, script, record || *chart || *out != "")
	if err != nil {
		return err
	}
	res, runErr := runScripted(ctx, rf, runner, opt)
	if res == nil {
		return runErr
	}
	printResult(res)
	if *chart && res.Rec != nil {
		for _, s := range []string{"maxtemp", "power_w", "freq_ghz"} {
			if series := res.Rec.Series(s); series != nil {
				fmt.Print(trace.AsciiChart(s, []*trace.Series{series}, 10, 72))
			}
		}
	}
	// Written even when the run was interrupted: the partial recording
	// over the completed intervals is exactly what -o asked for.
	if *out != "" && res.Rec != nil {
		if err := cli.WriteFile(*out, res.Rec.WriteCSV); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "scenario: trace written to %s\n", *out)
	}
	return runErr // nil, or the cancellation carried out for the 130 exit
}

func cmdReplay(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	tracePath := fs.String("trace", "", "recorded trace CSV to replay (required)")
	out := fs.String("o", "", "write the fresh run's trace CSV to this file")
	tol := fs.Float64("tol", 0, "value tolerance for the diff (0 = exact)")
	rf := addRunFlags(fs)
	if err := cli.ParseFlags(fs, args); err != nil {
		return err
	}
	if *tracePath == "" {
		return fmt.Errorf("replay needs -trace <trace.csv>")
	}
	rec, err := readTrace(*tracePath)
	if err != nil {
		return err
	}
	script, err := scenario.FromTrace(rec, "replay:"+*tracePath)
	if err != nil {
		return err
	}
	if rf.period == 0 {
		// Replay on the grid the trace was recorded at; an explicit
		// -period still wins (and will report every sample mismatched).
		rf.period = script.Period()
	}

	runner, err := rf.newRunner()
	if err != nil {
		return err
	}
	opt, err := rf.options(ctx, runner, script, true)
	if err != nil {
		return err
	}
	res, runErr := runScripted(ctx, rf, runner, opt)
	if res == nil {
		return runErr
	}
	printResult(res)
	if *out != "" && res.Rec != nil {
		if err := cli.WriteFile(*out, res.Rec.WriteCSV); err != nil {
			return err
		}
	}
	if runErr != nil {
		// An interrupted replay can never diff cleanly (the fresh trace
		// is a prefix); the partial -o trace is still written above.
		return runErr
	}
	d := trace.DiffRecorders(rec, res.Rec.Materialize(), *tol)
	fmt.Printf("replay diff vs %s: %s\n", *tracePath, d)
	if !d.Clean() {
		return fmt.Errorf("replay diverged from the recording (same -policy/-seed/-tmax/-governor/-period as the original?)")
	}
	return nil
}

func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	a := fs.String("a", "", "first trace CSV")
	b := fs.String("b", "", "second trace CSV")
	tol := fs.Float64("tol", 0, "value tolerance (0 = exact)")
	if err := cli.ParseFlags(fs, args); err != nil {
		return err
	}
	if *a == "" || *b == "" {
		return fmt.Errorf("diff needs -a and -b trace files")
	}
	ra, err := readTrace(*a)
	if err != nil {
		return err
	}
	rb, err := readTrace(*b)
	if err != nil {
		return err
	}
	d := trace.DiffRecorders(ra, rb, *tol)
	fmt.Println(d)
	if !d.Clean() {
		return fmt.Errorf("traces differ")
	}
	return nil
}

func loadSpec(name, specFile string) (scenario.Spec, error) {
	switch {
	case name != "" && specFile != "":
		return scenario.Spec{}, fmt.Errorf("use -s or -spec, not both")
	case specFile != "":
		data, err := os.ReadFile(specFile)
		if err != nil {
			return scenario.Spec{}, err
		}
		return scenario.ParseJSON(data)
	case name != "":
		return scenario.ByName(name)
	default:
		return scenario.Spec{}, fmt.Errorf("need -s <name> (see `scenario list`) or -spec <file.json>")
	}
}

func printResult(res *sim.Result) {
	fmt.Printf("%s under %s: %.1fs avg %.2fW / %.0fJ, maxT %.1fC avgT %.1fC, %.1fs over TMax\n",
		res.Bench, res.Policy, res.ExecTime, res.AvgPower, res.Energy,
		res.MaxTemp, res.AvgTemp, res.OverTMax)
}

func readTrace(path string) (*trace.Recorder, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rec, err := trace.ReadCSV(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rec, nil
}
