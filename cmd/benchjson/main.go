// Command benchjson turns `go test -bench -benchmem` output into a stable
// JSON artifact and gates allocation regressions against a committed
// baseline.
//
// Modes:
//
//	go test -run '^$' -bench . -benchtime 1x -benchmem . | benchjson -out BENCH_latest.json
//	go test -run '^$' -bench . -benchmem . | benchjson -record benchmarks/results
//	benchjson -check BENCH_baseline.json BENCH_latest.json -max-allocs-regress 0.20
//	benchjson -min-speedup 'Benchmark/batched,Benchmark/scalar,0.9' BENCH_throughput.json
//	benchjson -max-bytes 'Benchmark/batched,400000' BENCH_latest.json
//
// The check compares allocs/op only: nanoseconds vary with the host, but
// the hot loops are engineered to allocate a fixed, machine-independent
// number of times per cell, so any growth beyond the tolerance is a real
// regression (a buffer that stopped being reused, a new per-step
// allocation). ns/op and B/op are recorded in the artifact for trend
// diffing across CI runs but never gated.
//
// -max-bytes gates B/op of one benchmark against an absolute ceiling.
// Like allocs/op — and unlike ns/op — bytes allocated per operation is a
// property of the code path, not the host: the hot loops allocate fixed-
// size buffers a fixed number of times, so a ceiling with headroom only
// trips when per-op memory genuinely grew (a pool that stopped pooling, a
// slice that started escaping).
//
// -min-speedup gates a ratio of two benchmarks measured in the SAME run,
// which IS host-independent: both numerator and denominator ran on the
// same machine under the same load, so their throughput ratio survives
// CI-runner variance that absolute ns/op gates cannot. The two entries
// are compared on the devices_per_sec custom metric when both report it,
// falling back to the inverse ns/op ratio otherwise; repeated measurements
// (go test -count N) are paired in order and judged on the median ratio.
//
// -record archives the parsed run under a timestamped filename together
// with host provenance (OS, arch, CPU model, core count, Go version), so
// a directory of records is a perf trajectory that can be diffed across
// machines and commits.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/hostinfo"
)

// Entry is one benchmark measurement.
type Entry struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Metrics holds custom b.ReportMetric values, keyed by a JSON-safe
	// form of the unit ("devices/sec" -> "devices_per_sec").
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Host records where a benchmark run was measured (shared with every
// other artifact producer via internal/hostinfo). Absolute numbers are
// only comparable within one Host; ratios travel.
type Host = hostinfo.Host

// File is the artifact schema.
type File struct {
	RecordedAt string  `json:"recorded_at,omitempty"`
	Host       *Host   `json:"host,omitempty"`
	Benchmarks []Entry `json:"benchmarks"`
}

func main() {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	var (
		out        = fs.String("out", "", "write the parsed JSON artifact to this file (default stdout)")
		record     = fs.String("record", "", "write the artifact to DIR/<utc-timestamp>.json with host provenance")
		check      = fs.Bool("check", false, "compare two artifacts: benchjson -check baseline.json latest.json")
		maxRegress = fs.Float64("max-allocs-regress", 0.20, "with -check: maximum tolerated fractional allocs/op growth")
		minSpeedup = fs.String("min-speedup", "", "gate 'NUM,DEN,RATIO': in the given artifact, benchmark NUM must be at least RATIO times faster than DEN")
		maxBytes   = fs.String("max-bytes", "", "gate 'NAME,CEILING': in the given artifact, benchmark NAME's B/op must not exceed CEILING")
		only       = fs.String("only", "", "comma-separated benchmark-name substrings to keep (empty = all)")
	)
	if err := cli.ParseFlags(fs, os.Args[1:]); err != nil {
		cli.Exit("benchjson", err, "")
	}

	if *check {
		if fs.NArg() != 2 {
			fatal(fmt.Errorf("-check needs exactly two files: baseline.json latest.json"))
		}
		if err := runCheck(fs.Arg(0), fs.Arg(1), *maxRegress); err != nil {
			fatal(err)
		}
		return
	}
	if *minSpeedup != "" {
		if fs.NArg() != 1 {
			fatal(fmt.Errorf("-min-speedup needs exactly one artifact file"))
		}
		if err := runSpeedup(fs.Arg(0), *minSpeedup); err != nil {
			fatal(err)
		}
		return
	}
	if *maxBytes != "" {
		if fs.NArg() != 1 {
			fatal(fmt.Errorf("-max-bytes needs exactly one artifact file"))
		}
		if err := runMaxBytes(fs.Arg(0), *maxBytes); err != nil {
			fatal(err)
		}
		return
	}

	f, err := parse(os.Stdin, splitList(*only))
	if err != nil {
		fatal(err)
	}
	if len(f.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines found on stdin (pipe `go test -bench -benchmem` output)"))
	}
	if *record != "" {
		path, err := writeRecord(*record, f)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "benchjson: %d benchmarks recorded to %s\n", len(f.Benchmarks), path)
		return
	}
	enc, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d benchmarks written to %s\n", len(f.Benchmarks), *out)
}

// parse reads `go test -bench` text: lines of the form
//
//	BenchmarkName-8   	      10	  123456 ns/op	  4096 B/op	  12 allocs/op
//
// Extra value/unit pairs emitted by b.ReportMetric (e.g. "1434
// devices/sec") land in Entry.Metrics.
func parse(r io.Reader, only []string) (*File, error) {
	var f File
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || fields[3] != "ns/op" {
			continue
		}
		// Strip only the -GOMAXPROCS suffix (e.g. "-8"); a TrimRight over
		// digits would also eat digits that belong to the benchmark name
		// (BenchmarkCRC32 must not collide with BenchmarkCRC).
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		if !keep(name, only) {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		e := Entry{Name: name, Iterations: iters}
		if e.NsPerOp, err = strconv.ParseFloat(fields[2], 64); err != nil {
			continue
		}
		for i := 4; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "B/op":
				e.BytesPerOp = v
			case "allocs/op":
				e.AllocsPerOp = v
			default:
				if e.Metrics == nil {
					e.Metrics = map[string]float64{}
				}
				e.Metrics[metricKey(fields[i+1])] = v
			}
		}
		f.Benchmarks = append(f.Benchmarks, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.Slice(f.Benchmarks, func(i, j int) bool { return f.Benchmarks[i].Name < f.Benchmarks[j].Name })
	return &f, nil
}

// metricKey makes a benchmark unit JSON-friendly: "devices/sec" becomes
// "devices_per_sec".
func metricKey(unit string) string {
	unit = strings.ReplaceAll(unit, "/", "_per_")
	var b strings.Builder
	for _, r := range unit {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

func keep(name string, only []string) bool {
	if len(only) == 0 {
		return true
	}
	for _, o := range only {
		if strings.Contains(name, o) {
			return true
		}
	}
	return false
}

// runCheck fails (exit 1) when any benchmark present in BOTH files grew its
// allocs/op by more than maxRegress. Benchmarks only in one file are
// reported but never fail the gate (renames should not break CI). The full
// per-benchmark delta table is printed whether or not the gate passes, so
// a green CI run still leaves a readable perf trail in its log.
func runCheck(basePath, latestPath string, maxRegress float64) error {
	base, err := load(basePath)
	if err != nil {
		return err
	}
	latest, err := load(latestPath)
	if err != nil {
		return err
	}
	baseBy := map[string]Entry{}
	for _, e := range base.Benchmarks {
		baseBy[e.Name] = e
	}
	bad := 0
	for _, e := range latest.Benchmarks {
		b, ok := baseBy[e.Name]
		if !ok {
			fmt.Printf("benchjson: %-36s NEW       allocs/op=%.0f (no baseline)\n", e.Name, e.AllocsPerOp)
			continue
		}
		delete(baseBy, e.Name)
		limit := b.AllocsPerOp * (1 + maxRegress)
		status := "ok"
		if e.AllocsPerOp > limit {
			status = "REGRESSED"
			bad++
		} else if e.AllocsPerOp < b.AllocsPerOp {
			status = "improved"
		}
		fmt.Printf("benchjson: %-36s %-9s allocs/op %.0f -> %.0f (limit %.0f)  ns/op %.0f -> %.0f (info only)\n",
			e.Name, status, b.AllocsPerOp, e.AllocsPerOp, limit, b.NsPerOp, e.NsPerOp)
	}
	for name := range baseBy {
		fmt.Printf("benchjson: %-36s MISSING from latest run\n", name)
	}
	if bad > 0 {
		return fmt.Errorf("%d benchmark(s) regressed allocs/op beyond %.0f%%; if intentional, regenerate the baseline with `make bench-baseline` and explain why in the commit", bad, maxRegress*100)
	}
	return nil
}

// runSpeedup enforces a same-run throughput ratio. spec is
// "NUM,DEN,RATIO" (benchmark names cannot contain commas): benchmark NUM
// must be at least RATIO times faster than benchmark DEN in the single
// given artifact. Both entries came from one `go test -bench` invocation
// on one machine, so the ratio is immune to host speed differences. With
// repeated measurements (`go test -count N`) the k-th NUM entry pairs
// with the k-th DEN entry — adjacent in time, so they share the host's
// momentary load — and the gate judges the median pair ratio, which one
// noisy repetition cannot move.
func runSpeedup(path, spec string) error {
	parts := strings.Split(spec, ",")
	if len(parts) != 3 {
		return fmt.Errorf("-min-speedup wants 'NUM,DEN,RATIO', got %q", spec)
	}
	numName, denName := strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1])
	want, err := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
	if err != nil || want <= 0 {
		return fmt.Errorf("-min-speedup ratio %q is not a positive number", parts[2])
	}
	f, err := load(path)
	if err != nil {
		return err
	}
	byName := map[string][]Entry{}
	for _, e := range f.Benchmarks {
		byName[e.Name] = append(byName[e.Name], e)
	}
	nums, dens := byName[numName], byName[denName]
	if len(nums) == 0 {
		return fmt.Errorf("%s: benchmark %q not in artifact", path, numName)
	}
	if len(dens) == 0 {
		return fmt.Errorf("%s: benchmark %q not in artifact", path, denName)
	}
	if len(nums) != len(dens) {
		return fmt.Errorf("%s: %d measurements of %q vs %d of %q cannot pair", path, len(nums), numName, len(dens), denName)
	}

	ratios := make([]float64, len(nums))
	basis := "devices_per_sec"
	for k, num := range nums {
		den := dens[k]
		if nd, dd := num.Metrics["devices_per_sec"], den.Metrics["devices_per_sec"]; nd > 0 && dd > 0 {
			ratios[k] = nd / dd
		} else if num.NsPerOp > 0 && den.NsPerOp > 0 {
			// Fallback for benchmarks without the custom metric: time per op.
			ratios[k], basis = den.NsPerOp/num.NsPerOp, "ns_per_op"
		} else {
			return fmt.Errorf("%s: no comparable metric between %q and %q", path, numName, denName)
		}
	}
	sort.Float64s(ratios)
	ratio := ratios[len(ratios)/2]
	fmt.Printf("benchjson: speedup %s vs %s = %.2fx (%s basis, median of %d, floor %.2fx)\n",
		numName, denName, ratio, basis, len(ratios), want)
	if ratio < want {
		return fmt.Errorf("speedup %.2fx is below the %.2fx floor: %s got slower relative to %s; investigate before merging (if the workload changed intentionally, adjust the floor in the Makefile with justification)",
			ratio, want, numName, denName)
	}
	return nil
}

// runMaxBytes enforces an absolute B/op ceiling on one benchmark. spec is
// "NAME,CEILING". Bytes per op, like allocs per op, is machine-independent
// for the engineered hot loops, so an absolute ceiling travels across CI
// runners the way a ns/op gate cannot.
func runMaxBytes(path, spec string) error {
	name, limitStr, ok := strings.Cut(spec, ",")
	if !ok {
		return fmt.Errorf("-max-bytes wants 'NAME,CEILING', got %q", spec)
	}
	name = strings.TrimSpace(name)
	limit, err := strconv.ParseFloat(strings.TrimSpace(limitStr), 64)
	if err != nil || limit <= 0 {
		return fmt.Errorf("-max-bytes ceiling %q is not a positive number", limitStr)
	}
	f, err := load(path)
	if err != nil {
		return err
	}
	for _, e := range f.Benchmarks {
		if e.Name != name {
			continue
		}
		fmt.Printf("benchjson: %s B/op %.0f (ceiling %.0f)\n", name, e.BytesPerOp, limit)
		if e.BytesPerOp > limit {
			return fmt.Errorf("%s allocates %.0f B/op, above the %.0f ceiling: per-op memory grew; find the allocation before merging (if intentional, raise the ceiling in the Makefile with justification)",
				name, e.BytesPerOp, limit)
		}
		return nil
	}
	return fmt.Errorf("%s: benchmark %q not in artifact", path, name)
}

// writeRecord archives the artifact under dir with a sortable UTC
// timestamp filename and host provenance attached.
func writeRecord(dir string, f *File) (string, error) {
	now := time.Now().UTC()
	f.RecordedAt = now.Format(time.RFC3339)
	f.Host = hostinfo.Collect()
	return hostinfo.WriteTimestamped(dir, "", now, f)
}

func load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
