package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
}

func loadBenchmark(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// loadRecords reads a --record file, keeping the untraced runs.
func loadRecords(path string) ([]taggedOutput, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []taggedOutput
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r taggedOutput
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace == 0 {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// values collects one metric of one workload, in seed order, so that two
// sets run over the same seeds pair up run by run.
func values(rs []taggedOutput, workload, metric string) []float64 {
	var sel []taggedOutput
	for _, r := range rs {
		if _, ok := r.Metrics[metric]; ok && r.Workload == workload {
			sel = append(sel, r)
		}
	}
	sort.SliceStable(sel, func(i, j int) bool { return sel[i].Seed < sel[j].Seed })
	v := make([]float64, len(sel))
	for i, r := range sel {
		v[i] = r.Metrics[metric].Value
	}
	return v
}

// quartiles returns the first quartile, median and third quartile as
// Python's statistics.quantiles(v, n=4) computes them (the exclusive
// method). It needs at least two values.
func quartiles(v []float64) [3]float64 {
	d := append([]float64(nil), v...)
	sort.Float64s(d)
	n, m := len(d), len(d)+1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q
}

// spread is the interquartile range as a share of the median.
func spread(q [3]float64) float64 {
	if q[1] == 0 {
		return math.Inf(1)
	}
	return math.Abs(q[2]-q[0]) / math.Abs(q[1])
}

// verdict judges one metric of one workload. worse: the change's median
// is worse than the base's by more than the bound, whatever the spread.
// unresolved: either side's spread is wider than the bound, unless every
// change run beats every base run. better: the change wins at least nine in
// ten of at least ten pairs, ties counting for neither, and its median
// moved by more than the base's interquartile range. same: none of these.
func verdict(base, change []float64, bound float64, higher bool) string {
	if len(base) < 2 || len(change) < 2 {
		return "unresolved"
	}
	beats := func(x, y float64) bool {
		if higher {
			return x > y
		}
		return x < y
	}
	qa, qb := quartiles(base), quartiles(change)
	limit := qa[1] * (1 + bound)
	if higher {
		limit = qa[1] * (1 - bound)
	}
	if beats(limit, qb[1]) {
		return "worse"
	}
	if spread(qa) > bound || spread(qb) > bound {
		for _, c := range change {
			for _, b := range base {
				if !beats(c, b) {
					return "unresolved"
				}
			}
		}
		return "better"
	}
	pairs := min(len(base), len(change))
	wins := 0
	for i := 0; i < pairs; i++ {
		if beats(change[i], base[i]) {
			wins++
		}
	}
	if pairs >= 10 && 10*wins >= 9*pairs && beats(qb[1], qa[1]) && math.Abs(qb[1]-qa[1]) > qa[2]-qa[0] {
		return "better"
	}
	return "same"
}

// compareMain applies BENCHMARK.json's bounds to recorded sets of runs:
// the first file is the base, every further file a change judged against
// it, each pair of end-to-end metric and workload in its own row. It exits
// 1 when any verdict is worse.
func compareMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	cfgPath := fs.String("config", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() < 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-config BENCHMARK.json] base.jsonl change.jsonl...")
		return 2
	}
	bf, err := loadBenchmark(*cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 1
	}
	base, err := loadRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 1
	}
	code := 0
	for _, path := range fs.Args()[1:] {
		change, err := loadRecords(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			return 1
		}
		fmt.Fprintf(w, "%s (base) vs %s (change)\n", fs.Arg(0), path)
		fmt.Fprintf(w, "%-14s %-12s %-34s %-34s %6s  %s\n", "workload", "metric",
			"base n: median [q1 q3] spread", "change n: median [q1 q3] spread", "bound", "verdict")
		for _, wl := range bf.Workloads {
			for _, m := range bf.EndToEnd {
				a, b := values(base, wl.Name, m.Name), values(change, wl.Name, m.Name)
				if len(a) == 0 && len(b) == 0 {
					continue
				}
				v := verdict(a, b, m.Bound, m.Better == "higher")
				if v == "worse" {
					code = 1
				}
				fmt.Fprintf(w, "%-14s %-12s %-34s %-34s %6.3f  %s\n", wl.Name, m.Name, describe(a), describe(b), m.Bound, v)
			}
		}
	}
	return code
}

func describe(v []float64) string {
	if len(v) < 2 {
		return fmt.Sprintf("%d: too few runs", len(v))
	}
	q := quartiles(v)
	return fmt.Sprintf("%d: %.4g [%.4g %.4g] %.3f", len(v), q[1], q[0], q[2], spread(q))
}
