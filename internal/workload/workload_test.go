package workload

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestTableHas16Benchmarks(t *testing.T) {
	// 15 of Table 6.4 plus LU for Figure 6.10.
	tab := Table()
	if len(tab) != 16 {
		t.Fatalf("table has %d entries, want 16", len(tab))
	}
}

func TestTable6_4Composition(t *testing.T) {
	// Table 6.4 category/class structure.
	wantClass := map[string]Class{
		"blowfish": Low, "sha": Medium,
		"dijkstra": Low, "patricia": Medium,
		"basicmath": High, "matrixmult": High, "bitcount": Medium, "qsort": Medium,
		"crc32": Low, "gsm": Medium, "fft": High,
		"jpeg":       Medium,
		"angrybirds": High, "templerun": High,
		"youtube": Low,
		"lu":      High,
	}
	for name, class := range wantClass {
		b, err := ByName(name)
		if err != nil {
			t.Fatalf("missing benchmark %s", name)
		}
		if b.Class != class {
			t.Fatalf("%s class = %v, want %v", name, b.Class, class)
		}
	}
	types := map[string]string{
		"blowfish": "Security", "dijkstra": "Network", "basicmath": "Computational",
		"crc32": "Telecomm", "jpeg": "Consumer", "templerun": "Games", "youtube": "Video",
	}
	for name, typ := range types {
		b, _ := ByName(name)
		if b.Type != typ {
			t.Fatalf("%s type = %s, want %s", name, b.Type, typ)
		}
	}
}

func TestGamesAndVideoUseGPU(t *testing.T) {
	for _, name := range []string{"angrybirds", "templerun", "youtube"} {
		b, _ := ByName(name)
		if b.GPUUtil <= 0 {
			t.Fatalf("%s must use the GPU (§6.1.3)", name)
		}
	}
	for _, name := range []string{"dijkstra", "basicmath", "sha"} {
		b, _ := ByName(name)
		if b.GPUUtil != 0 {
			t.Fatalf("%s is CPU-only", name)
		}
	}
}

func TestMultiThreadedBenchmarks(t *testing.T) {
	for _, name := range []string{"matrixmult", "fft", "lu"} {
		b, _ := ByName(name)
		if b.Threads != 4 {
			t.Fatalf("%s threads = %d, want 4", name, b.Threads)
		}
	}
	b, _ := ByName("dijkstra")
	if b.Threads != 1 {
		t.Fatal("dijkstra should be single threaded")
	}
}

func TestNominalDurations(t *testing.T) {
	// Durations must match the paper's figure time axes.
	want := map[string]float64{
		"dijkstra":   64,  // Figure 6.6
		"patricia":   300, // Figure 6.7
		"matrixmult": 60,  // Figure 6.8
		"templerun":  100, // Figure 6.3
		"basicmath":  140, // Figure 6.4
	}
	for name, dur := range want {
		b, _ := ByName(name)
		if math.Abs(b.NominalDuration()-dur) > 1e-6 {
			t.Fatalf("%s nominal duration = %.1f s, want %.1f", name, b.NominalDuration(), dur)
		}
	}
}

func TestClassDemandOrdering(t *testing.T) {
	// Higher class benchmarks must draw more CPU power on average; the
	// cluster power proxy is demand x activity x threads.
	avg := func(c Class) float64 {
		s, n := 0.0, 0
		for _, b := range Table() {
			if b.Class == c {
				s += b.Demand * b.CPUActivity * float64(b.Threads)
				n++
			}
		}
		return s / float64(n)
	}
	// The classes are measured-POWER classes: MiBench runs the CPU flat
	// out while active, so the separation comes from the activity factor
	// (power per cycle), not from duty cycle.
	if !(avg(Low) < avg(Medium) && avg(Medium) <= avg(High)) {
		t.Fatalf("activity ordering broken: low=%.2f med=%.2f high=%.2f",
			avg(Low), avg(Medium), avg(High))
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("doom"); err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
}

func TestByClassAndNames(t *testing.T) {
	if len(Names()) != 16 {
		t.Fatalf("Names() = %d entries", len(Names()))
	}
	low := ByClass(Low)
	if len(low) != 4 { // blowfish, dijkstra, crc32, youtube
		t.Fatalf("low class = %v", low)
	}
	high := ByClass(High)
	if len(high) != 6 { // basicmath, matrixmult, fft, angrybirds, templerun, lu
		t.Fatalf("high class = %v", high)
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	b, _ := ByName("templerun")
	g1, g2 := NewGenerator(b), NewGenerator(b)
	for i := 0; i < 200; i++ {
		tm := float64(i) * 0.1
		if g1.DemandAt(tm) != g2.DemandAt(tm) {
			t.Fatal("generator not deterministic")
		}
	}
}

func TestGeneratorDemandBounds(t *testing.T) {
	for _, b := range Table() {
		g := NewGenerator(b)
		for i := 0; i < 1000; i++ {
			d := g.DemandAt(float64(i) * 0.1)
			if d < 0 || d > 1 {
				t.Fatalf("%s demand out of bounds: %v", b.Name, d)
			}
		}
	}
}

func TestGeneratorMeanNearNominal(t *testing.T) {
	b, _ := ByName("patricia")
	g := NewGenerator(b)
	sum, n := 0.0, 0
	for i := 0; i < 3000; i++ {
		sum += g.DemandAt(float64(i) * 0.1)
		n++
	}
	mean := sum / float64(n)
	if math.Abs(mean-b.Demand) > 0.08 {
		t.Fatalf("mean demand %.3f far from nominal %.3f", mean, b.Demand)
	}
}

func TestGeneratorPhasesVisible(t *testing.T) {
	// dijkstra has 30% phase amplitude: min and max demand must differ.
	b, _ := ByName("dijkstra")
	g := NewGenerator(b)
	lo, hi := 2.0, -1.0
	for i := 0; i < 900; i++ {
		d := g.DemandAt(float64(i) * 0.1)
		if d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	if hi-lo < 0.15 {
		t.Fatalf("phases invisible: swing = %.3f", hi-lo)
	}
}

func TestGPUUtilAt(t *testing.T) {
	b, _ := ByName("templerun")
	g := NewGenerator(b)
	for i := 0; i < 100; i++ {
		u := g.GPUUtilAt(float64(i) * 0.1)
		if u < 0 || u > 1 {
			t.Fatalf("GPU util out of bounds: %v", u)
		}
	}
	cb, _ := ByName("basicmath")
	cg := NewGenerator(cb)
	if cg.GPUUtilAt(5) != 0 {
		t.Fatal("CPU-only benchmark should have zero GPU util")
	}
}

func TestBackgroundLoad(t *testing.T) {
	bg := NewBackgroundN(1, 4)
	last := make([]float64, 4)
	for i := 0; i < 500; i++ {
		copy(last, bg.UtilAt())
		for c, u := range last {
			if u < 0 || u > 0.10 {
				t.Fatalf("background util core %d = %v, want small", c, u)
			}
		}
	}
	// After settling, background should be nonzero.
	for c, u := range last {
		if u <= 0 {
			t.Fatalf("background core %d never active", c)
		}
	}
	// Determinism, at the default and at a platform-sized core count.
	for _, n := range []int{4, 8} {
		b1, b2 := NewBackgroundN(9, n), NewBackgroundN(9, n)
		for i := 0; i < 50; i++ {
			u1 := append([]float64(nil), b1.UtilAt()...)
			u2 := b2.UtilAt()
			if len(u1) != n || len(u2) != n {
				t.Fatalf("background width = %d/%d, want %d", len(u1), len(u2), n)
			}
			for c := range u1 {
				if u1[c] != u2[c] {
					t.Fatal("background not deterministic")
				}
			}
		}
	}
}

func TestClassString(t *testing.T) {
	if Low.String() != "low" || Medium.String() != "medium" || High.String() != "high" {
		t.Fatal("class strings wrong")
	}
	if Class(9).String() != "class(9)" {
		t.Fatal("unknown class string wrong")
	}
}

// TestDemandAtClosedForm referees the phase-factor reuse in DemandAt: every
// call must return, bit for bit, the closed-form waveform evaluated afresh
// with a jitter stream that advances once per call — for a repeated t, a
// new t, a t that goes backwards, and after the exported phase parameters
// (or the demand) change between calls at the same t.
func TestDemandAtClosedForm(t *testing.T) {
	b, _ := ByName("templerun")
	g := NewGenerator(b)
	rng := rand.New(rand.NewSource(b.Seed))
	jitter := 0.0
	want := func(b Benchmark, tm float64) float64 {
		d := b.Demand
		if b.PhasePeriod > 0 && b.PhaseAmp > 0 {
			d *= 1 + b.PhaseAmp*math.Tanh(3*math.Sin(2*math.Pi*tm/b.PhasePeriod))
		}
		jitter = 0.9*jitter + 0.1*(rng.Float64()*2-1)
		d *= 1 + 0.05*jitter
		return math.Max(0, math.Min(1, d))
	}
	check := func(label string, tm float64) {
		t.Helper()
		w := want(g.B, tm)
		if got := g.DemandAt(tm); math.Float64bits(got) != math.Float64bits(w) {
			t.Fatalf("%s: DemandAt(%v) = %v, closed form %v", label, tm, got, w)
		}
	}
	for i, tm := range []float64{0, 0, 0.1, 0.1, 0.1, 0.2, 3.7, 3.7, 0.1, 0.1, 2.5} {
		check(fmt.Sprintf("call %d", i), tm)
	}
	check("before period change", 4.2)
	g.B.PhasePeriod = 5
	check("period changed", 4.2)
	check("period changed, repeated", 4.2)
	g.B.PhaseAmp = 0.5
	check("amplitude changed", 4.2)
	g.B.Demand = 0.6
	check("demand changed", 4.2)
	g.B.PhaseAmp = 0
	check("phases off", 4.2)
	g.B.PhaseAmp = 0.5
	check("phases back on", 4.2)
	check("phases back on, new t", 6.1)
}
