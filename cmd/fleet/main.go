// Command fleet simulates a population of virtual devices — a platform and
// scenario mix with per-device ambient/workload/noise perturbations — and
// reports aggregate per-platform/per-scenario distributions: skin-
// temperature percentiles, throttle-time fraction, energy, and performance
// loss across the whole population.
//
// The population draw and every simulation stream derive from -seed and
// the device index alone, so reports are byte-identical at any -workers
// value and any single device can be re-run standalone with replay-cell.
//
// Usage:
//
//	fleet run -n 1000 [-spec fleet.json] [-workers 8] [-json out.json] [-csv out.csv]
//	fleet run -n 200 -platforms exynos5410=3,fanless-phone=1 -scenarios all -ambient-jitter 8
//	fleet report -in out.json
//	fleet replay-cell -i 42 -n 1000 [-spec fleet.json] [-o trace.csv]
//
// Interrupting a run (Ctrl-C) stops the remaining cells, exports the
// partial report over the completed devices, and exits 130.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/cli"
	"repro/internal/client"
	"repro/internal/controlapi"
	"repro/internal/fleet"
	"repro/internal/platform"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/version"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	ctx, stop := cli.SignalContext()
	defer stop()
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(ctx, os.Args[2:])
	case "report":
		err = cmdReport(os.Args[2:])
	case "replay-cell":
		err = cmdReplayCell(ctx, os.Args[2:])
	case "-version", "--version":
		fmt.Println(version.Engine)
		return
	case "-h", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "fleet: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		cli.Exit("fleet", err, "platform and scenario names: `campaign -list`")
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  fleet run         -n N [-spec file.json] [flags] [-json out.json] [-csv out.csv]
  fleet report      -in report.json
  fleet replay-cell -i K -n N [-spec file.json] [-o trace.csv]

population flags (ignored when -spec is given):
  -n N                     population size
  -policy P                with-fan|without-fan|reactive|dtpm (default dtpm)
  -platforms name=w,...    platform mix with draw weights ("all" = every
                           registered platform equally; bare name = weight 1)
  -scenarios name=w,...    scenario mix (default: whole library equally)
  -ambient-jitter C        uniform per-device ambient shift in [-C, +C]
  -freeze-workload         all devices share one workload realization
  -tmax C  -period S       thermal constraint / control period overrides
run flags: -workers N  -seed N  -quiet  -json FILE  -csv FILE
  -addr HOST:PORT          submit to a reprod daemon instead of running
                           in-process (identical output bytes and exit codes;
                           caching then happens server-side)
  -tenant NAME             tenant queue for -addr submissions
  -cpuprofile FILE         write a CPU profile of the run (go tool pprof)
  -memprofile FILE         write a post-run heap profile
store flags (run, replay-cell):
  -store DIR               content-addressed result store (default .repro-store);
                           identical cells are served from it instead of re-simulated
  -no-cache                disable the store for this invocation`)
}

// specFlags declares the population flags shared by run and replay-cell
// and resolves them (or -spec) into a validated fleet spec.
type specFlags struct {
	fs             *flag.FlagSet
	specFile       *string
	n              *int
	policy         *string
	platforms      *string
	scenarios      *string
	ambientJitter  *float64
	freezeWorkload *bool
	tmax           *float64
	period         *float64
}

func newSpecFlags(fs *flag.FlagSet) *specFlags {
	return &specFlags{
		fs:             fs,
		specFile:       fs.String("spec", "", "JSON fleet spec file (overrides the population flags)"),
		n:              fs.Int("n", 0, "population size"),
		policy:         fs.String("policy", "", "thermal-management policy (default dtpm)"),
		platforms:      fs.String("platforms", "", `platform mix "name=w,..." or "all" (default: the default platform)`),
		scenarios:      fs.String("scenarios", "", `scenario mix "name=w,..." or "all" (default: whole library equally)`),
		ambientJitter:  fs.Float64("ambient-jitter", 0, "uniform per-device ambient shift half-width (C)"),
		freezeWorkload: fs.Bool("freeze-workload", false, "pin every device to its scenario's own workload realization"),
		tmax:           fs.Float64("tmax", 0, "thermal constraint override (C, 0 = paper's 63)"),
		period:         fs.Float64("period", 0, "control period override (s, 0 = paper's 100 ms)"),
	}
}

func (sf *specFlags) spec() (fleet.Spec, error) {
	if *sf.specFile != "" {
		data, err := os.ReadFile(*sf.specFile)
		if err != nil {
			return fleet.Spec{}, err
		}
		spec, err := fleet.ParseJSON(data)
		if err != nil {
			return fleet.Spec{}, err
		}
		if *sf.n != 0 {
			// -n composes with -spec so one spec file scales from a smoke
			// run to a full sweep.
			spec.N = *sf.n
			if err := spec.Validate(); err != nil {
				return fleet.Spec{}, err
			}
		}
		return spec, nil
	}
	return buildSpec(*sf.n, *sf.policy, *sf.platforms, *sf.scenarios, *sf.ambientJitter, *sf.freezeWorkload, *sf.tmax, *sf.period)
}

// buildSpec assembles and validates a fleet spec from the flag values.
func buildSpec(n int, policy, platforms, scenarios string, ambientJitter float64, freeze bool, tmax, period float64) (fleet.Spec, error) {
	spec := fleet.Spec{
		N:              n,
		Policy:         policy,
		TMaxC:          tmax,
		ControlPeriodS: period,
		AmbientJitterC: ambientJitter,
		FreezeWorkload: freeze,
	}
	var err error
	if spec.Platforms, err = parseMix(platforms, platform.Names()); err != nil {
		return spec, err
	}
	if spec.Scenarios, err = parseMix(scenarios, scenario.Names()); err != nil {
		return spec, err
	}
	if err := spec.Validate(); err != nil {
		return spec, err
	}
	return spec, nil
}

// parseMix parses a "name=weight,name,..." mix axis; "all" expands to every
// known name with equal weight, a bare name gets weight 1, and "" leaves
// the axis empty (the spec default applies).
func parseMix(s string, all []string) ([]fleet.Weight, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	if s == "all" {
		out := make([]fleet.Weight, len(all))
		for i, name := range all {
			out[i] = fleet.Weight{Name: name, Weight: 1}
		}
		return out, nil
	}
	var out []fleet.Weight
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		w := fleet.Weight{Weight: 1}
		if name, weight, ok := strings.Cut(f, "="); ok {
			v, err := strconv.ParseFloat(weight, 64)
			if err != nil {
				return nil, fmt.Errorf("bad mix weight %q: %w", f, err)
			}
			w.Name, w.Weight = strings.TrimSpace(name), v
		} else {
			w.Name = f
		}
		out = append(out, w)
	}
	return out, nil
}

// storeFlags declares the result-store flags shared by run and replay-cell
// and opens (or disables) the store they select.
type storeFlags struct {
	dir     *string
	noCache *bool
}

func newStoreFlags(fs *flag.FlagSet) *storeFlags {
	return &storeFlags{
		dir:     fs.String("store", store.DefaultDir, "content-addressed result store directory"),
		noCache: fs.Bool("no-cache", false, "disable the result store (compute every cell)"),
	}
}

func (sf *storeFlags) open() (*store.Store, error) {
	if *sf.noCache {
		return nil, nil
	}
	return store.Open(*sf.dir)
}

func cmdRun(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("fleet run", flag.ContinueOnError)
	sf := newSpecFlags(fs)
	stf := newStoreFlags(fs)
	var (
		workers    = fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		baseSeed   = fs.Int64("seed", 1, "fleet base seed (population draw + every derived stream)")
		jsonOut    = fs.String("json", "", "write the aggregate report as JSON to this file")
		csvOut     = fs.String("csv", "", "write one CSV row per group to this file")
		quiet      = fs.Bool("quiet", false, "suppress per-device progress on stderr")
		addr       = fs.String("addr", "", "submit to a reprod daemon at this address instead of running in-process")
		tenant     = fs.String("tenant", "", "tenant name for daemon submissions (with -addr)")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile covering the population run to this file")
		memProfile = fs.String("memprofile", "", "write a post-run heap profile (after GC) to this file")
	)
	if err := cli.ParseFlags(fs, args); err != nil {
		return err
	}
	spec, err := sf.spec()
	if err != nil {
		return err
	}
	if *addr != "" {
		if *cpuProfile != "" || *memProfile != "" {
			return fmt.Errorf("-cpuprofile/-memprofile profile the in-process engine; drop -addr")
		}
		return runRemote(ctx, *addr, *tenant, spec, *baseSeed, *workers, *jsonOut, *csvOut, *quiet)
	}
	st, err := stf.open()
	if err != nil {
		return err
	}
	prof, err := startProfile(*cpuProfile)
	if err != nil {
		return err
	}
	eng := &fleet.Engine{Workers: *workers, BaseSeed: *baseSeed, Store: st}
	if !*quiet {
		eng.OnCellDone = func(p fleet.Progress) {
			status := "ok"
			switch {
			case p.Err != "":
				status = "FAILED: " + p.Err
			case p.Cached:
				status = "cached"
			}
			fmt.Fprintf(os.Stderr, "fleet: [%d/%d] %s %s\n", p.Done, p.Total, p.Cell, status)
		}
	}
	fmt.Fprintf(os.Stderr, "fleet: simulating %d devices\n", spec.N)
	rep, err := eng.Run(ctx, spec)
	// Profiles are finalized before any exit path below: the CPU profile
	// covers exactly the population run (cancelled or not) and the heap
	// profile snaps what the run left retained.
	if perr := prof.finish(*memProfile); perr != nil {
		if err == nil {
			return perr
		}
		fmt.Fprintln(os.Stderr, "fleet:", perr)
	}
	if st != nil {
		fmt.Fprintf(os.Stderr, "fleet: store %s: %s\n", st.Dir(), st.Stats().Summary())
	}
	cancelled := err != nil && cli.Cancelled(err)
	if err != nil && !cancelled {
		return err
	}
	if rep == nil {
		// Cancelled before any cell could run (e.g. Ctrl-C during the
		// anchor characterization): nothing partial to report.
		return err
	}
	fmt.Print(rep.Summary())
	if *jsonOut != "" {
		if werr := writeFile(*jsonOut, rep.WriteJSON); werr != nil {
			return werr
		}
	}
	if *csvOut != "" {
		if werr := writeFile(*csvOut, rep.WriteCSV); werr != nil {
			return werr
		}
	}
	if cancelled {
		fmt.Fprintln(os.Stderr, "fleet:", err)
		os.Exit(130)
	}
	if len(rep.Failures) > 0 {
		os.Exit(1)
	}
	return nil
}

// runRemote is the -addr thin-client path of `fleet run`: submit the spec
// to a reprod daemon, mirror the in-process progress/store/summary output
// from the event stream (the daemon pre-renders every line's fields, so
// the bytes match), fetch the byte-identical report exports, and exit with
// the in-process codes. Ctrl-C cancels the run server-side and then keeps
// following: the daemon finalizes it with a partial report, exactly like
// the in-process engine, and the client exits 130 after exporting it.
func runRemote(ctx context.Context, addr, tenant string, spec fleet.Spec, baseSeed int64, workers int, jsonOut, csvOut string, quiet bool) error {
	cl := client.New(addr)
	cl.Tenant = tenant
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "fleet: simulating %d devices\n", spec.N)
	info, err := cl.SubmitFleet(ctx, controlapi.SubmitRequest{Spec: specJSON, Seed: baseSeed, Workers: workers})
	if err != nil {
		return err
	}
	// Follow on a background context: an interrupt must not sever the
	// stream — it cancels the run server-side, and the stream then delivers
	// the partial run's done event.
	go func() {
		<-ctx.Done()
		cl.Cancel(context.Background(), info.ID)
	}()
	done, err := cl.Follow(context.Background(), info.ID, 0, func(ev controlapi.Event) error {
		if quiet || ev.Type != controlapi.EventProgress {
			return nil
		}
		status := "ok"
		switch {
		case ev.Err != "":
			status = "FAILED: " + ev.Err
		case ev.Cached:
			status = "cached"
		}
		fmt.Fprintf(os.Stderr, "fleet: [%d/%d] %s %s\n", ev.Done, ev.Total, ev.Cell, status)
		return nil
	})
	if err != nil {
		return err
	}
	if done.StoreDir != "" {
		fmt.Fprintf(os.Stderr, "fleet: store %s: %s\n", done.StoreDir, store.Stats{Hits: done.Hits, Misses: done.Misses}.Summary())
	}
	if done.State == controlapi.StateFailed {
		return errors.New(done.RunErr)
	}
	// A run cancelled before any cell could start has no report — mirror
	// the in-process "cancelled during characterization" exit.
	if done.Summary == "" && done.State == controlapi.StateCancelled {
		fmt.Fprintln(os.Stderr, "fleet:", done.RunErr)
		os.Exit(130)
	}
	fmt.Print(done.Summary)
	if jsonOut != "" {
		if err := fetchReport(cl, info.ID, "json", jsonOut); err != nil {
			return err
		}
	}
	if csvOut != "" {
		if err := fetchReport(cl, info.ID, "csv", csvOut); err != nil {
			return err
		}
	}
	if done.State == controlapi.StateCancelled {
		fmt.Fprintln(os.Stderr, "fleet:", done.RunErr)
		os.Exit(130)
	}
	if done.Failures > 0 {
		os.Exit(1)
	}
	return nil
}

// fetchReport downloads one rendered export into a local file — the same
// bytes the in-process path writes, served from the daemon.
func fetchReport(cl *client.Client, id, format, path string) error {
	b, err := cl.Report(context.Background(), id, format)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func cmdReport(args []string) error {
	fs := flag.NewFlagSet("fleet report", flag.ContinueOnError)
	in := fs.String("in", "", "saved JSON report to render")
	if err := cli.ParseFlags(fs, args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("fleet report: need -in report.json")
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	rep, err := fleet.ReadReportJSON(f)
	if err != nil {
		return err
	}
	fmt.Print(rep.Summary())
	return nil
}

func cmdReplayCell(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("fleet replay-cell", flag.ContinueOnError)
	sf := newSpecFlags(fs)
	stf := newStoreFlags(fs)
	var (
		index    = fs.Int("i", -1, "device index to replay")
		baseSeed = fs.Int64("seed", 1, "fleet base seed (must match the run)")
		out      = fs.String("o", "", "write the device's full trace CSV here (default stdout)")
	)
	if err := cli.ParseFlags(fs, args); err != nil {
		return err
	}
	spec, err := sf.spec()
	if err != nil {
		return err
	}
	if *index < 0 {
		return fmt.Errorf("fleet replay-cell: need -i INDEX (0..%d)", spec.N-1)
	}
	st, err := stf.open()
	if err != nil {
		return err
	}
	eng := &fleet.Engine{Workers: 1, BaseSeed: *baseSeed, Store: st}
	res, cfg, err := eng.ReplayCell(ctx, spec, *index)
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, replaySummary(cfg, res))
	if *out != "" {
		return writeFile(*out, res.Rec.WriteCSV)
	}
	return res.Rec.WriteCSV(os.Stdout)
}

// replaySummary renders the one-line device summary. The trailing board
// temperature degrades to n/a when the trace has no board series (or no
// samples) — a trace shape must never panic the CLI.
func replaySummary(cfg fleet.CellConfig, res *sim.Result) string {
	board := "n/a"
	if res.Rec != nil {
		if s := res.Rec.Series("board"); s != nil && len(s.Vals) > 0 {
			board = fmt.Sprintf("%.1fC", s.Vals[len(s.Vals)-1])
		}
	}
	return fmt.Sprintf("fleet: device %s: exec=%.1fs energy=%.0fJ maxT=%.1fC board=%s",
		cfg, res.ExecTime, res.Energy, res.MaxTemp, board)
}

// profile manages optional pprof capture around a population run — the
// groundwork the soak harness needs to attribute fleet time and memory.
// A zero cpuPath/memPath disables the respective capture, so the flags are
// free when unused.
type profile struct {
	cpu *os.File
}

// startProfile begins CPU profiling into cpuPath ("" = disabled).
func startProfile(cpuPath string) (*profile, error) {
	p := &profile{}
	if cpuPath == "" {
		return p, nil
	}
	f, err := os.Create(cpuPath)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	p.cpu = f
	return p, nil
}

// finish stops the CPU profile and, when memPath is set, writes a post-GC
// heap profile there — retained memory, not transient garbage, which is
// what the bounded-memory contract is about.
func (p *profile) finish(memPath string) error {
	if p.cpu != nil {
		pprof.StopCPUProfile()
		if err := p.cpu.Close(); err != nil {
			return err
		}
		p.cpu = nil
	}
	if memPath == "" {
		return nil
	}
	f, err := os.Create(memPath)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
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
