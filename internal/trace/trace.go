// Package trace records time series produced by the simulator and renders
// them either as CSV (the paper logged sensor data to .CSV tables with a
// UNIX script, §6.1.2) or as compact ASCII charts for figure regeneration.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Series is a named time series sampled at (possibly irregular) times.
type Series struct {
	Name  string
	Times []float64 // seconds
	Vals  []float64
}

// Append adds one sample to the series.
func (s *Series) Append(t, v float64) {
	s.Times = append(s.Times, t)
	s.Vals = append(s.Vals, v)
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Vals) }

// At returns the value at (or immediately before) time t, assuming Times is
// non-decreasing. It returns the first value for t before the series start.
func (s *Series) At(t float64) float64 {
	if len(s.Vals) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(s.Times, t)
	if i >= len(s.Times) {
		return s.Vals[len(s.Vals)-1]
	}
	if s.Times[i] > t && i > 0 {
		return s.Vals[i-1]
	}
	return s.Vals[i]
}

// Slice returns the values with Times in [t0, t1).
func (s *Series) Slice(t0, t1 float64) []float64 {
	var out []float64
	for i, t := range s.Times {
		if t >= t0 && t < t1 {
			out = append(out, s.Vals[i])
		}
	}
	return out
}

// Recorder gathers multiple named series on a shared clock.
type Recorder struct {
	order  []string
	series map[string]*Series
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{series: make(map[string]*Series)}
}

// Record appends a sample to the named series, creating it on first use.
func (r *Recorder) Record(name string, t, v float64) {
	s, ok := r.series[name]
	if !ok {
		s = &Series{Name: name}
		r.series[name] = s
		r.order = append(r.order, name)
	}
	s.Append(t, v)
}

// Series returns the named series, or nil if it was never recorded.
func (r *Recorder) Series(name string) *Series { return r.series[name] }

// Names returns the series names in first-recorded order.
func (r *Recorder) Names() []string {
	out := make([]string, len(r.order))
	copy(out, r.order)
	return out
}

// WriteCSV writes all series as a wide CSV table: a time column followed by
// one column per series. Series are aligned on the union of all timestamps;
// a series without a sample at a given time repeats its previous value
// (zero-order hold), matching how periodic sensor logs behave.
//
// Floats use the shortest exact representation, so ReadCSV recovers
// bit-identical values: a written trace replays through the simulator with
// no rounding drift, and golden files are byte-comparable across runs.
func (r *Recorder) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append([]string{"time_s"}, r.order...)
	if err := cw.Write(header); err != nil {
		return err
	}
	times := r.unionTimes()
	row := make([]string, len(header))
	for _, t := range times {
		row[0] = strconv.FormatFloat(t, 'g', -1, 64)
		for i, name := range r.order {
			row[i+1] = strconv.FormatFloat(r.series[name].At(t), 'g', -1, 64)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// AsciiChart renders one or more series as a rows x width ASCII chart with a
// shared y-axis, used to regenerate the paper's figures in terminal output.
// Each series is drawn with its own glyph; the legend maps glyphs to names.
func AsciiChart(title string, series []*Series, rows, width int) string {
	if rows < 2 {
		rows = 2
	}
	if width < 8 {
		width = 8
	}
	glyphs := []byte{'*', '+', 'o', 'x', '#', '@'}
	lo, hi := math.Inf(1), math.Inf(-1)
	t0, t1 := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		for i := range s.Vals {
			if s.Vals[i] < lo {
				lo = s.Vals[i]
			}
			if s.Vals[i] > hi {
				hi = s.Vals[i]
			}
			if s.Times[i] < t0 {
				t0 = s.Times[i]
			}
			if s.Times[i] > t1 {
				t1 = s.Times[i]
			}
		}
	}
	if math.IsInf(lo, 1) {
		return title + " (no data)\n"
	}
	if hi == lo {
		hi = lo + 1
	}
	if t1 == t0 {
		t1 = t0 + 1
	}
	grid := make([][]byte, rows)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range series {
		g := glyphs[si%len(glyphs)]
		for i := range s.Vals {
			x := int((s.Times[i] - t0) / (t1 - t0) * float64(width-1))
			y := int((s.Vals[i] - lo) / (hi - lo) * float64(rows-1))
			row := rows - 1 - y
			if row >= 0 && row < rows && x >= 0 && x < width {
				grid[row][x] = g
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	for i, line := range grid {
		val := hi - (hi-lo)*float64(i)/float64(rows-1)
		fmt.Fprintf(&b, "%8.2f |%s|\n", val, string(line))
	}
	fmt.Fprintf(&b, "%8s  %-8.1fs%*s%8.1fs\n", "", t0, width-16, "", t1)
	for si, s := range series {
		fmt.Fprintf(&b, "  %c = %s\n", glyphs[si%len(glyphs)], s.Name)
	}
	return b.String()
}

// unionTimes returns the sorted union of all series' timestamps — the
// shared grid both WriteCSV and Materialize sample on.
func (r *Recorder) unionTimes() []float64 {
	seen := map[float64]bool{}
	var times []float64
	for _, name := range r.order {
		for _, t := range r.series[name].Times {
			if !seen[t] {
				seen[t] = true
				times = append(times, t)
			}
		}
	}
	sort.Float64s(times)
	return times
}

// Materialize returns a copy of the recorder with every series sampled on
// the union of all timestamps (zero-order hold) — exactly the series
// WriteCSV writes and ReadCSV parses back. Comparing an in-memory recorder
// against a parsed one requires materializing the in-memory side first,
// because series recorded on shifted clocks (like the prediction overlay)
// widen the union grid for every other series in the file.
func (r *Recorder) Materialize() *Recorder {
	times := r.unionTimes()
	out := NewRecorder()
	for _, name := range r.order {
		s := r.series[name]
		for _, t := range times {
			out.Record(name, t, s.At(t))
		}
	}
	return out
}
