// Command bench is the repository benchmark. It drives one seeded workload
// through the simulation stack's public layers — in process or through a
// loopback reprod daemon — for a fixed wall-clock window, checks that every
// report it received is byte-correct, and prints the workload's end-to-end
// metrics (with --trace 1, its per-layer metrics) as one JSON object on the
// last line of standard output. A human-readable table goes to standard
// error. Run it from the repository root:
//
//	bash bench/run.sh --workload fleet-cold --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh compare base.jsonl change.jsonl
//	bash bench/run.sh digests
//
// See README.md for the workloads, the metrics and the method.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/hostinfo"
)

// buildDir is where a run keeps scratch state, relative to the repository
// root it runs from.
const buildDir = ".bench_build"

// expectedJSON pins the report digests of every workload at the seed it
// names (regenerate with the digests subcommand).
//
//go:embed expected_digests.json
var expectedJSON []byte

// digestFile is the layout of expected_digests.json: per workload, per
// stream, the SHA-256 of each op input's JSON+CSV report.
type digestFile struct {
	Seed      int64                          `json:"seed"`
	Workloads map[string]map[string][]string `json:"workloads"`
}

func main() {
	args := os.Args[1:]
	var code int
	switch {
	case len(args) > 0 && args[0] == "compare":
		code = compareMain(args[1:], os.Stdout)
	case len(args) > 0 && args[0] == "digests":
		code = digestsMain(args[1:])
	default:
		code = runMain(args)
	}
	os.Exit(code)
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed every input derives from")
	seconds := fs.Float64("seconds", 15, "measured window in seconds")
	traced := fs.Int("trace", 0, "1 = traced run, printing the per-layer metrics")
	spansPath := fs.String("spans", "", "span file of a traced run (default "+buildDir+"/spans-<workload>.json)")
	record := fs.String("record", "", "append the result, tagged with workload and seed, to this JSONL file for compare")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || fs.NArg() > 0 || (*traced != 0 && *traced != 1) || !(*seconds > 0) {
		fmt.Fprintf(os.Stderr, "bench: need --workload (one of %s), --trace 0|1 and --seconds > 0\n", workloadNames())
		return 2
	}
	var pinned digestFile
	if err := json.Unmarshal(expectedJSON, &pinned); err != nil {
		fmt.Fprintln(os.Stderr, "bench: expected_digests.json:", err)
		return 1
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	opts := runOptions{
		workload: w,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		cfg:      defaultConfig(),
		trace:    *traced == 1,
		dir:      dir,
	}
	if *seed == pinned.Seed {
		opts.expected = pinned.Workloads[w.name]
		if opts.expected == nil {
			opts.expected = map[string][]string{}
		}
	}
	res, err := run(context.Background(), opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	printHuman(os.Stderr, opts, res)
	if res.tracer != nil {
		path := *spansPath
		if path == "" {
			path = filepath.Join(buildDir, "spans-"+w.name+".json")
		}
		if err := res.tracer.write(path, w.name, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "bench: writing spans:", err)
			return 1
		}
		fmt.Fprintln(os.Stderr, "spans written to", path)
	}
	line := outputOf(res)
	if *record != "" {
		if err := appendRecord(*record, taggedOutput{Workload: w.name, Seed: *seed, Trace: *traced, output: line}); err != nil {
			fmt.Fprintln(os.Stderr, "bench: recording:", err)
			return 1
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !res.correct() {
		return 1
	}
	return 0
}

// output is the last line of standard output.
type output struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func outputOf(res *runResult) output {
	out := output{Correct: res.correct(), Attempted: res.attempted, Failed: res.failed, Metrics: map[string]valueUnit{}}
	ms := res.endToEnd
	if res.tracer != nil {
		ms = res.perLayer
	}
	for _, m := range ms {
		out.Metrics[m.name] = valueUnit{m.value, m.unit}
	}
	return out
}

// taggedOutput is one line of a --record file: a run's output, tagged.
type taggedOutput struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	output
}

func appendRecord(path string, r taggedOutput) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(append(b, '\n'))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// printHuman writes the run's table: streams, metrics with their units and
// sample counts, the per-layer breakdown of a traced run, and the verdict
// of the correctness gate.
func printHuman(w io.Writer, opts runOptions, res *runResult) {
	fmt.Fprintf(w, "bench %s seed %d: %d set-ups, window %.2f s, %d workers\n",
		opts.workload.name, opts.seed, len(res.setups), res.window.Seconds(), nproc())
	h := hostinfo.Collect()
	fmt.Fprintf(w, "  host %s/%s, %d CPUs, %s, %s\n", h.GOOS, h.GOARCH, h.NumCPU, h.GoVersion, h.CPUModel)
	for _, s := range res.streams {
		tag := ""
		if s.latency {
			tag = " (op latency)"
		}
		fmt.Fprintf(w, "  stream %-12s %5d ops  p50 %.4f s  p90 %.4f s%s\n", s.name, s.ops, s.p50.Seconds(), s.p90.Seconds(), tag)
	}
	for _, m := range res.endToEnd {
		fmt.Fprintf(w, "  %-24s %14.6g %-8s\n", m.name, m.value, m.unit)
	}
	if res.tracer != nil {
		for _, s := range res.streams {
			printLayers(w, "stream "+s.name+", traced ops", s.layers)
		}
		printLayers(w, "set-up repetitions", res.setupLayers)
		for _, m := range res.perLayer {
			note := ""
			if m.name == "sched.speedup_nproc" {
				note = res.speedupNote
			}
			fmt.Fprintf(w, "  %-24s %14.6g %-6s %s\n", m.name, m.value, m.unit, note)
		}
	}
	if res.correct() {
		pinned := "committed digests not checked (seed is not the pinned seed)"
		if opts.expected != nil {
			pinned = "committed digests match"
		}
		fmt.Fprintf(w, "correct: every op succeeded; %s; repeated inputs repeat their bytes; first and last op match the oracle\n", pinned)
		return
	}
	fmt.Fprintf(w, "INCORRECT: %d problem(s)\n", len(res.problems))
	for _, p := range res.problems {
		fmt.Fprintln(w, "  "+p)
	}
}

func printLayers(w io.Writer, title string, rows []layerRow) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "  %s: per op, count / busy ms / self ms\n", title)
	for _, r := range rows {
		name := r.Name
		if name == "op" || name == "setup" {
			name += " (self = unattributed)"
		}
		fmt.Fprintf(w, "    %-34s %7.2f %10.3f %10.3f\n", name, r.CountPerOp, ms(r.BusyPerOp), ms(r.SelfPerOp))
	}
}

// pinDigests computes, on each stream's oracle, the digests the given
// config and seed must reproduce: one per input of a repeating stream,
// cfg.sweepPinned for a stream whose inputs never repeat.
func pinDigests(ctx context.Context, cfg config, seed int64, dir string) (map[string]map[string][]string, error) {
	out := map[string]map[string][]string{}
	for _, w := range workloads {
		inst, err := w.setup(ctx, &env{cfg: cfg, seed: seed, dir: dir})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		m := map[string][]string{}
		for _, st := range inst.streams {
			n := st.period
			if n == 0 {
				n = cfg.sweepPinned
			}
			for i := 0; i < n; i++ {
				r, err := st.oracle(ctx, i)
				if err != nil {
					inst.close()
					return nil, fmt.Errorf("%s/%s op %d: %w", w.name, st.name, i, err)
				}
				m[st.name] = append(m[st.name], digestOf(r))
			}
		}
		inst.close()
		out[w.name] = m
	}
	return out, nil
}

// digestsMain regenerates expected_digests.json at seed 1.
func digestsMain(args []string) int {
	fs := flag.NewFlagSet("digests", flag.ContinueOnError)
	path := fs.String("o", filepath.Join("bench", "expected_digests.json"), "file to write")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(buildDir, "digests-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	const seed = 1
	ws, err := pinDigests(context.Background(), defaultConfig(), seed, dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	b, err := json.MarshalIndent(digestFile{Seed: seed, Workloads: ws}, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if err := os.WriteFile(*path, append(b, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}
