package sensor

import (
	"math"
	"testing"

	"repro/internal/platform"
	"repro/internal/stats"
)

func TestIdealSensorsExact(t *testing.T) {
	b := NewBank(Config{}, 1)
	if b.ReadTemp(55.37) != 55.37 {
		t.Fatal("ideal temp sensor should be exact")
	}
	if b.ReadPower(1.234) != 1.234 {
		t.Fatal("ideal power sensor should be exact")
	}
}

func TestQuantization(t *testing.T) {
	b := NewBank(Config{TempQuantum: 0.5}, 1)
	got := b.ReadTemp(55.37)
	if got != 55.5 {
		t.Fatalf("quantized reading = %v, want 55.5", got)
	}
	bp := NewBank(Config{PowerQuantum: 0.01}, 1)
	if v := bp.ReadPower(1.234); math.Abs(v-1.23) > 1e-12 {
		t.Fatalf("quantized power = %v, want 1.23", v)
	}
}

func TestNoiseIsUnbiasedAndBounded(t *testing.T) {
	b := NewBank(DefaultConfig(), 42)
	n := 5000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += b.ReadTemp(60)
	}
	mean := sum / float64(n)
	if math.Abs(mean-60) > 0.05 {
		t.Fatalf("noisy sensor biased: mean = %v", mean)
	}
	var vals []float64
	for i := 0; i < n; i++ {
		vals = append(vals, b.ReadTemp(60))
	}
	sd := math.Sqrt(stats.Variance(vals))
	if sd < 0.1 || sd > 0.4 {
		t.Fatalf("noise std = %v, want ~0.2", sd)
	}
}

func TestDeterministicSeeds(t *testing.T) {
	a := NewBank(DefaultConfig(), 7)
	b := NewBank(DefaultConfig(), 7)
	for i := 0; i < 100; i++ {
		if a.ReadTemp(50) != b.ReadTemp(50) {
			t.Fatal("same seed must give identical readings")
		}
	}
	c := NewBank(DefaultConfig(), 8)
	same := true
	for i := 0; i < 10; i++ {
		if a.ReadTemp(50) != c.ReadTemp(50) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should differ")
	}
}

func TestPowerNeverNegative(t *testing.T) {
	b := NewBank(Config{PowerNoiseStd: 2.0}, 3) // absurd noise
	for i := 0; i < 1000; i++ {
		if b.ReadPower(0.001) < 0 {
			t.Fatal("power reading went negative")
		}
	}
}

func TestReadCoreTemps(t *testing.T) {
	b := NewBank(Config{}, 1)
	dst := make([]float64, 6)
	got := b.ReadCoreTempsInto(dst, []float64{50, 51, 52, 53})
	if len(got) != 4 || &got[0] != &dst[0] {
		t.Fatalf("read %d temps into a fresh slice, want dst[:4]", len(got))
	}
	for i, want := range []float64{50, 51, 52, 53} {
		if got[i] != want {
			t.Fatalf("core %d = %v, want %v", i, got[i], want)
		}
	}
}

func TestReadDomainPowers(t *testing.T) {
	b := NewBank(Config{}, 1)
	in := [platform.NumResources]float64{2.8, 0.1, 0.4, 0.3}
	got := b.ReadDomainPowers(in)
	if got != in {
		t.Fatalf("domain powers = %v, want %v", got, in)
	}
}
