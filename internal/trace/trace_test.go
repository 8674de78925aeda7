package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestSeriesAppendLen(t *testing.T) {
	var s Series
	s.Append(0, 1)
	s.Append(1, 2)
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestSeriesAt(t *testing.T) {
	s := &Series{Times: []float64{0, 1, 2}, Vals: []float64{10, 20, 30}}
	cases := []struct{ t, want float64 }{
		{-1, 10}, {0, 10}, {0.5, 10}, {1, 20}, {1.9, 20}, {2, 30}, {5, 30},
	}
	for _, c := range cases {
		if got := s.At(c.t); got != c.want {
			t.Fatalf("At(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestSeriesAtEmpty(t *testing.T) {
	var s Series
	if s.At(1) != 0 {
		t.Fatal("empty At should be 0")
	}
}

func TestRecorder(t *testing.T) {
	r := NewRecorder()
	r.Record("temp", 0, 40)
	r.Record("power", 0, 1.5)
	r.Record("temp", 1, 42)
	if len(r.Names()) != 2 || r.Names()[0] != "temp" || r.Names()[1] != "power" {
		t.Fatalf("Names = %v", r.Names())
	}
	if r.Series("temp").Len() != 2 {
		t.Fatal("temp series wrong length")
	}
	if r.Series("missing") != nil {
		t.Fatal("missing series should be nil")
	}
}

func TestWriteCSV(t *testing.T) {
	r := NewRecorder()
	r.Record("a", 0, 1)
	r.Record("a", 1, 2)
	r.Record("b", 0, 10)
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV lines = %d, want 3:\n%s", len(lines), buf.String())
	}
	if lines[0] != "time_s,a,b" {
		t.Fatalf("header = %q", lines[0])
	}
	// At t=1, b holds its previous value 10.
	if lines[2] != "1,2,10" {
		t.Fatalf("row = %q", lines[2])
	}
}

func TestAsciiChart(t *testing.T) {
	s := &Series{Name: "temp", Times: []float64{0, 10, 20}, Vals: []float64{40, 60, 50}}
	out := AsciiChart("Figure X", []*Series{s}, 5, 30)
	if !strings.Contains(out, "Figure X") || !strings.Contains(out, "temp") {
		t.Fatalf("chart missing title/legend:\n%s", out)
	}
	if !strings.Contains(out, "*") {
		t.Fatalf("chart missing data glyphs:\n%s", out)
	}
}

func TestAsciiChartEmpty(t *testing.T) {
	out := AsciiChart("empty", []*Series{{Name: "x"}}, 5, 30)
	if !strings.Contains(out, "no data") {
		t.Fatalf("expected no-data marker, got:\n%s", out)
	}
}

func TestAsciiChartConstantSeries(t *testing.T) {
	s := &Series{Name: "c", Times: []float64{0, 1}, Vals: []float64{5, 5}}
	out := AsciiChart("const", []*Series{s}, 4, 20)
	if !strings.Contains(out, "*") {
		t.Fatalf("constant series should still be drawn:\n%s", out)
	}
}
