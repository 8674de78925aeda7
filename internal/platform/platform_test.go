package platform

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTable6_1BigFrequencies(t *testing.T) {
	want := []float64{800, 900, 1000, 1100, 1200, 1300, 1400, 1500, 1600}
	got := FreqTableMHz(BigDomain())
	if len(got) != len(want) {
		t.Fatalf("big cluster has %d steps, want %d (Table 6.1)", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("big step %d = %v MHz, want %v", i, got[i], want[i])
		}
	}
}

func TestTable6_2LittleFrequencies(t *testing.T) {
	want := []float64{500, 600, 700, 800, 900, 1000, 1100, 1200}
	got := FreqTableMHz(LittleDomain())
	if len(got) != len(want) {
		t.Fatalf("little cluster has %d steps, want %d (Table 6.2)", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("little step %d = %v MHz, want %v", i, got[i], want[i])
		}
	}
}

func TestTable6_3GPUFrequencies(t *testing.T) {
	want := []float64{177, 266, 350, 480, 533}
	got := FreqTableMHz(GPUDomainTable())
	if len(got) != len(want) {
		t.Fatalf("GPU has %d steps, want %d (Table 6.3)", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("GPU step %d = %v MHz, want %v", i, got[i], want[i])
		}
	}
}

func TestVoltageMonotonicWithFrequency(t *testing.T) {
	for _, d := range []*Domain{BigDomain(), LittleDomain(), GPUDomainTable()} {
		for i := 1; i < len(d.OPPs); i++ {
			if d.OPPs[i].Volt < d.OPPs[i-1].Volt {
				t.Fatalf("%s: voltage not monotone at step %d", d.Name, i)
			}
			if d.OPPs[i].Freq <= d.OPPs[i-1].Freq {
				t.Fatalf("%s: frequency table not ascending at step %d", d.Name, i)
			}
		}
	}
}

func TestKHzConversions(t *testing.T) {
	f := KHz(1600000)
	if f.MHz() != 1600 || f.GHz() != 1.6 || f.Hz() != 1.6e9 {
		t.Fatalf("conversions wrong: %v %v %v", f.MHz(), f.GHz(), f.Hz())
	}
	if MHzToKHz(800) != 800000 {
		t.Fatal("MHzToKHz wrong")
	}
}

func TestDomainLookups(t *testing.T) {
	d := BigDomain()
	if d.MinFreq() != 800000 || d.MaxFreq() != 1600000 {
		t.Fatal("min/max wrong")
	}
	if d.IndexOf(1200000) != 4 {
		t.Fatalf("IndexOf(1200000) = %d", d.IndexOf(1200000))
	}
	if d.IndexOf(1234000) != -1 {
		t.Fatal("IndexOf should be -1 for non-table frequency")
	}
	v, err := d.VoltAt(1600000)
	if err != nil || v != 1.25 {
		t.Fatalf("VoltAt = %v, %v", v, err)
	}
	if _, err := d.VoltAt(1); err == nil {
		t.Fatal("expected error for missing OPP")
	}
}

func TestFloorCeilStep(t *testing.T) {
	d := BigDomain()
	if d.FloorFreq(1250000) != 1200000 {
		t.Fatalf("FloorFreq = %v", d.FloorFreq(1250000))
	}
	if d.FloorFreq(100) != 800000 {
		t.Fatal("FloorFreq below table should clamp to min")
	}
	if d.CeilFreq(1250000) != 1300000 {
		t.Fatalf("CeilFreq = %v", d.CeilFreq(1250000))
	}
	if d.CeilFreq(9999999) != 1600000 {
		t.Fatal("CeilFreq above table should clamp to max")
	}
	if d.StepDown(900000) != 800000 || d.StepDown(800000) != 800000 {
		t.Fatal("StepDown wrong")
	}
	if d.StepUp(1500000) != 1600000 || d.StepUp(1600000) != 1600000 {
		t.Fatal("StepUp wrong")
	}
}

func TestClusterFreqControl(t *testing.T) {
	c := NewChip().BigCluster
	if err := c.SetFreq(1400000); err != nil {
		t.Fatal(err)
	}
	if c.Freq() != 1400000 {
		t.Fatal("freq not set")
	}
	if c.Volt() != 1.1625 {
		t.Fatalf("Volt = %v", c.Volt())
	}
	if err := c.SetFreq(1234567); err == nil {
		t.Fatal("expected error for off-table frequency")
	}
}

func TestHotplug(t *testing.T) {
	c := NewChip().BigCluster
	if c.OnlineCount() != 4 {
		t.Fatal("all cores should boot online")
	}
	if err := c.SetCoreOnline(2, false); err != nil {
		t.Fatal(err)
	}
	if c.OnlineCount() != 3 || c.CoreOnline(2) {
		t.Fatal("core 2 should be offline")
	}
	// Cannot offline the last core.
	for _, i := range []int{0, 1} {
		if err := c.SetCoreOnline(i, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.SetCoreOnline(3, false); err == nil {
		t.Fatal("must not offline the last core")
	}
	if err := c.SetCoreOnline(7, true); err == nil {
		t.Fatal("out-of-range core index must fail")
	}
	c.OnlineAll()
	if c.OnlineCount() != 4 {
		t.Fatal("OnlineAll failed")
	}
}

func TestChipBootState(t *testing.T) {
	c := NewChip()
	if c.ActiveKind() != BigCluster {
		t.Fatal("big cluster should be active at boot")
	}
	if c.Active().Freq() != 1600000 {
		t.Fatalf("boot freq = %v, want max", c.Active().Freq())
	}
	if c.GPUFreq() != 177000 {
		t.Fatalf("boot GPU freq = %v", c.GPUFreq())
	}
	if n := c.Active().OnlineCount(); n != 4 {
		t.Fatalf("%d cores online at boot, want 4", n)
	}
}

func TestClusterExclusivity(t *testing.T) {
	c := NewChip()
	c.SwitchCluster(LittleCluster)
	if c.ActiveKind() != LittleCluster {
		t.Fatal("switch failed")
	}
	if c.Active() != c.LittleCluster {
		t.Fatal("the little cluster is not the active one")
	}
	// Migration brings the target up at min frequency, all cores online.
	if c.Active().Freq() != LittleDomain().MinFreq() {
		t.Fatalf("post-migration freq = %v", c.Active().Freq())
	}
	if c.Active().OnlineCount() != 4 {
		t.Fatal("post-migration cores should be all online")
	}
	// No-op switch keeps state.
	if err := c.Active().SetFreq(900000); err != nil {
		t.Fatal(err)
	}
	c.SwitchCluster(LittleCluster)
	if c.Active().Freq() != 900000 {
		t.Fatal("no-op switch must not reset frequency")
	}
}

func TestGPUFreqControl(t *testing.T) {
	c := NewChip()
	if err := c.SetGPUFreq(533000); err != nil {
		t.Fatal(err)
	}
	if c.GPUFreq() != 533000 || c.GPUVolt() != 1.075 {
		t.Fatalf("gpu freq/volt = %v/%v", c.GPUFreq(), c.GPUVolt())
	}
	if err := c.SetGPUFreq(123); err == nil {
		t.Fatal("expected error for invalid GPU frequency")
	}
}

func TestResourceString(t *testing.T) {
	names := map[Resource]string{Big: "big(A15)", Little: "little(A7)", GPU: "gpu", Mem: "mem"}
	for r, want := range names {
		if r.String() != want {
			t.Fatalf("%d.String() = %q, want %q", r, r.String(), want)
		}
	}
	if Resource(99).String() != "resource(99)" {
		t.Fatal("unknown resource string wrong")
	}
	if BigCluster.String() != "big" || LittleCluster.String() != "little" {
		t.Fatal("cluster kind strings wrong")
	}
}

// Property: FloorFreq and CeilFreq always return table entries bracketing f.
func TestPropertyFloorCeilBracket(t *testing.T) {
	d := BigDomain()
	f := func(raw int64) bool {
		rng := rand.New(rand.NewSource(raw))
		q := KHz(700000 + rng.Intn(1100000))
		lo, hi := d.FloorFreq(q), d.CeilFreq(q)
		if d.IndexOf(lo) < 0 || d.IndexOf(hi) < 0 {
			return false
		}
		if q >= d.MinFreq() && lo > q {
			return false
		}
		if q <= d.MaxFreq() && hi < q {
			return false
		}
		return lo <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: StepDown then StepUp from any interior step returns to the start.
func TestPropertyStepRoundTrip(t *testing.T) {
	for _, d := range []*Domain{BigDomain(), LittleDomain(), GPUDomainTable()} {
		for i := 1; i < d.NumOPPs()-1; i++ {
			f := d.OPPs[i].Freq
			if d.StepUp(d.StepDown(f)) != f {
				t.Fatalf("%s: step round trip failed at %v", d.Name, f)
			}
		}
	}
}
