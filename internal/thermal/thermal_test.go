package thermal

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// load is a constant power input: per-core powers (entries beyond
// len(core) are zero), board power and fan speed.
type load struct {
	core       []float64
	board, fan float64
}

func highLoad() load {
	// 4 big cores at ~0.7 W each plus ~1.3 W of GPU/mem/board power:
	// the matrix-multiplication scenario of Figure 1.1.
	return load{core: []float64{0.7, 0.7, 0.7, 0.7}, board: 1.3}
}

// single is one device: a width-1 BatchSim.
type single struct{ *BatchSim }

func newSingle(p Params) single { return single{NewBatchSim(p, 1)} }

func (s single) apply(in load) {
	row := s.CoreInput(0)
	for i := range row {
		row[i] = 0
		if i < len(in.core) {
			row[i] = in.core[i]
		}
	}
}

func (s single) step(dt float64, in load) {
	s.apply(in)
	s.Step(0, dt, in.board, in.fan)
}

func (s single) steadyState(in load) State {
	s.apply(in)
	return s.SteadyState(0, in.board, in.fan)
}

func (s single) state() State {
	var st State
	return *s.StateInto(0, &st)
}

func (s single) setState(st State) { s.SetState(0, st) }

func TestStartsAtAmbient(t *testing.T) {
	s := newSingle(DefaultParams())
	st := s.state()
	if st.Board != 30 || st.Core[0] != 30 {
		t.Fatalf("initial state = %+v, want ambient", st)
	}
}

func TestZeroPowerStaysAtAmbient(t *testing.T) {
	s := newSingle(DefaultParams())
	s.step(100, load{})
	st := s.state()
	for i, c := range st.Core {
		if math.Abs(c-30) > 1e-6 {
			t.Fatalf("core %d drifted to %v with zero power", i, c)
		}
	}
	if math.Abs(st.Board-30) > 1e-6 {
		t.Fatalf("board drifted to %v", st.Board)
	}
}

func TestHeatingMonotoneUnderConstantPower(t *testing.T) {
	s := newSingle(DefaultParams())
	in := highLoad()
	prev := s.state().MaxCore()
	for i := 0; i < 50; i++ {
		s.step(1, in)
		cur := s.state().MaxCore()
		if cur < prev-1e-9 {
			t.Fatalf("temperature decreased at step %d under constant power", i)
		}
		prev = cur
	}
	if prev < 45 {
		t.Fatalf("after 50 s of high load, max core = %.1f C, expected substantial heating", prev)
	}
}

func TestNoFanExceeds85C(t *testing.T) {
	// Figure 1.1: without a fan, the hotspots blow past 85 °C.
	s := newSingle(DefaultParams())
	st := s.steadyState(highLoad())
	if st.MaxCore() < 85 {
		t.Fatalf("no-fan steady state = %.1f C, want > 85 (Figure 1.1)", st.MaxCore())
	}
}

func TestFullFanHoldsBelow70C(t *testing.T) {
	// Figure 1.1: the fan keeps the same workload far below the no-fan
	// runaway. At 100% duty the quartic convection law is aggressive, so
	// the steady state lands well under the 63 °C constraint; the stock
	// controller only ever reaches 100% above 68 °C, so in closed loop the
	// trace oscillates below that.
	s := newSingle(DefaultParams())
	in := highLoad()
	noFan := s.steadyState(in).MaxCore()
	in.fan = 1
	st := s.steadyState(in)
	if st.MaxCore() > 63 {
		t.Fatalf("full-fan steady state = %.1f C, want < 63", st.MaxCore())
	}
	if noFan-st.MaxCore() < 20 {
		t.Fatalf("full fan removes only %.1f C, want > 20", noFan-st.MaxCore())
	}
}

func TestNoFanCrossesConstraintwithin100s(t *testing.T) {
	// Figures 6.3/6.4: without the fan the 63 °C constraint is violated
	// well within the benchmark run.
	s := newSingle(DefaultParams())
	// Warm start: device idling before the benchmark launches.
	s.setState(State{Core: []float64{36, 36, 36, 36}, Board: 35})
	in := highLoad()
	crossed := -1.0
	for tm := 0.0; tm < 100; tm += 0.1 {
		s.step(0.1, in)
		if s.state().MaxCore() > 63 {
			crossed = tm
			break
		}
	}
	if crossed < 0 {
		t.Fatal("63C never crossed in 100 s of high load without fan")
	}
	if crossed < 3 {
		t.Fatalf("63C crossed after only %.1f s; board mass too small", crossed)
	}
}

func TestCoreFasterThanBoard(t *testing.T) {
	// A power step moves the hotspots in seconds, the board in minutes
	// (what makes the PRBS swings of Figure 4.8 visible).
	s := newSingle(DefaultParams())
	in := highLoad()
	s.step(5, in)
	st5 := s.state()
	coreRise := st5.MaxCore() - 30
	boardRise := st5.Board - 30
	if coreRise < 5 {
		t.Fatalf("core rise after 5 s = %.2f C, want fast response", coreRise)
	}
	if boardRise > coreRise/2 {
		t.Fatalf("board (%.2f) should lag cores (%.2f)", boardRise, coreRise)
	}
}

func TestHottestCoreTracksPowerImbalance(t *testing.T) {
	s := newSingle(DefaultParams())
	in := load{core: []float64{0.9, 0.5, 0.5, 0.5}, board: 1}
	s.step(30, in)
	st := s.state()
	if st.MaxCore() != st.Core[0] {
		t.Fatalf("hottest core is not core 0: %v", st.Core)
	}
	// Inter-core coupling is strong on the tiny A15 cluster, so the
	// imbalance is modest but must clearly exceed sensor quantization.
	if st.Core[0]-st.Core[3] < 0.4 {
		t.Fatalf("imbalance too small: %v", st.Core)
	}
}

func TestNeighborCouplingSpreadsHeat(t *testing.T) {
	// Only core 0 dissipates; its grid neighbours (1, 2) must warm more
	// than the diagonal core (3).
	s := newSingle(DefaultParams())
	in := load{core: []float64{1, 0, 0, 0}}
	s.step(20, in)
	st := s.state()
	if !(st.Core[1] > st.Core[3] && st.Core[2] > st.Core[3]) {
		t.Fatalf("coupling shape wrong: %v", st.Core)
	}
	if st.Core[0] <= st.Core[1] {
		t.Fatal("powered core must be hottest")
	}
}

func TestSymmetricNetworkKeepsCoresEqual(t *testing.T) {
	p := DefaultParams()
	p.CoreAsym = []float64{1, 1, 1, 1}
	s := newSingle(p)
	s.step(40, highLoad())
	st := s.state()
	for i := 1; i < 4; i++ {
		if math.Abs(st.Core[i]-st.Core[0]) > 1e-9 {
			t.Fatalf("symmetric input produced asymmetric temps: %v", st.Core)
		}
	}
}

func TestDefaultAsymmetryBreaksDegeneracy(t *testing.T) {
	// The default network must NOT be perfectly symmetric: real dies have
	// floorplan asymmetry, and a symmetric network makes the 4-output
	// identification problem rank deficient (T0-T1 == T2-T3 exactly).
	s := newSingle(DefaultParams())
	s.step(40, highLoad())
	st := s.state()
	spread := stMax(st.Core) - stMin(st.Core)
	if spread < 0.05 {
		t.Fatalf("core spread under symmetric load = %.3f C, want visible asymmetry", spread)
	}
	d1 := st.Core[0] - st.Core[1]
	d2 := st.Core[2] - st.Core[3]
	if math.Abs(d1-d2) < 1e-6 {
		t.Fatal("T0-T1 == T2-T3: network still degenerate")
	}
}

func stMax(c []float64) float64 {
	m := c[0]
	for _, v := range c[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

func stMin(c []float64) float64 {
	m := c[0]
	for _, v := range c[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

func TestStepZeroOrNegativeDtIsNoop(t *testing.T) {
	s := newSingle(DefaultParams())
	before := s.state()
	s.step(0, highLoad())
	s.step(-5, highLoad())
	if !statesEqual(s.state(), before) {
		t.Fatal("zero/negative dt must not change state")
	}
}

func TestStepLargeDtStable(t *testing.T) {
	// A huge dt must not blow up thanks to sub-stepping.
	s := newSingle(DefaultParams())
	s.step(500, highLoad())
	st := s.state()
	if math.IsNaN(st.MaxCore()) || st.MaxCore() > 200 {
		t.Fatalf("integration unstable: %+v", st)
	}
}

func TestSteadyStatePreservesSimState(t *testing.T) {
	s := newSingle(DefaultParams())
	s.step(10, highLoad())
	before := s.state()
	s.steadyState(highLoad())
	if !statesEqual(s.state(), before) {
		t.Fatal("SteadyState must not mutate the simulator")
	}

	// In a batch, it must not touch the other devices' rows either:
	// their temperatures, inputs or ambients.
	const B = 3
	bs := NewBatchSim(DefaultParams(), B)
	for d := 0; d < B; d++ {
		in := bs.CoreInput(d)
		for i := range in {
			in[i] = 0.3 * float64(d+i+1)
		}
		bs.SetAmbient(d, 25+float64(d))
		bs.Step(d, 5+float64(d), 0.5*float64(d), 0.2*float64(d))
	}
	rows := make([]State, B)
	inputs := make([][]float64, B)
	for d := range rows {
		bs.StateInto(d, &rows[d])
		inputs[d] = append([]float64(nil), bs.CoreInput(d)...)
	}
	bs.SteadyState(1, 1.3, 0)
	for d := range rows {
		var got State
		if !statesEqual(*bs.StateInto(d, &got), rows[d]) {
			t.Fatalf("SteadyState(1) changed device %d's state", d)
		}
		for i, q := range bs.CoreInput(d) {
			if q != inputs[d][i] {
				t.Fatalf("SteadyState(1) changed device %d's core input %d", d, i)
			}
		}
		if bs.Ambient(d) != 25+float64(d) {
			t.Fatalf("SteadyState(1) changed device %d's ambient", d)
		}
	}
}

func TestEnergyConservationAtEquilibrium(t *testing.T) {
	// At steady state, power in == power out to ambient.
	p := DefaultParams()
	s := newSingle(p)
	in := highLoad()
	st := s.steadyState(in)
	totalIn := in.board
	for _, q := range in.core {
		totalIn += q
	}
	out := p.GBoardAmb * (st.Board - p.Ambient)
	if math.Abs(totalIn-out)/totalIn > 0.01 {
		t.Fatalf("energy balance broken: in=%.3f out=%.3f", totalIn, out)
	}
}

func TestMaxCoreAndHottest(t *testing.T) {
	st := State{Core: []float64{50, 70, 60, 65}}
	if st.MaxCore() != 70 {
		t.Fatalf("MaxCore=%v", st.MaxCore())
	}
}

func TestFanControllerLadder(t *testing.T) {
	f := NewFanControllerFor(DefaultFanSpec())
	if f.Update(50) != f.IdleSpeed {
		t.Fatalf("fan at 50C = %v, want the always-on idle duty %v", f.speed, f.IdleSpeed)
	}
	if f.Update(58) != f.LowSpeed {
		t.Fatalf("fan at 58C = %v, want low speed", f.speed)
	}
	if f.Update(64) != f.MidSpeed {
		t.Fatalf("fan at 64C = %v, want mid speed", f.speed)
	}
	if f.Update(69) != 1.0 {
		t.Fatalf("fan at 69C = %v, want 100%%", f.speed)
	}
}

func TestFanControllerHysteresis(t *testing.T) {
	f := NewFanControllerFor(DefaultFanSpec())
	f.Update(69) // 100%
	// Dropping just under the high threshold keeps 100% (within hysteresis).
	if f.Update(67) != 1.0 {
		t.Fatalf("fan dropped too eagerly: %v", f.speed)
	}
	// Dropping well below steps down to the mid duty.
	if f.Update(64) != f.MidSpeed {
		t.Fatalf("fan at 64C after high = %v, want mid", f.speed)
	}
	if f.Update(61) != f.MidSpeed {
		t.Fatalf("hysteresis at 61C should hold mid, got %v", f.speed)
	}
	if f.Update(58) != f.LowSpeed {
		t.Fatalf("fan at 58C after mid = %v, want low", f.speed)
	}
	if f.Update(53) != f.IdleSpeed {
		t.Fatalf("fan at 53C = %v, want the idle duty", f.speed)
	}
}

func TestParamsValidate(t *testing.T) {
	p := DefaultParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := p
	bad.CCore = 0
	if bad.Validate() == nil {
		t.Fatal("zero capacitance must fail validation")
	}
	bad = p
	bad.GBoardAmb = -1
	if bad.Validate() == nil {
		t.Fatal("negative conductance must fail validation")
	}
}

// Property: more fan always means cooler steady state.
func TestPropertyFanMonotone(t *testing.T) {
	s := newSingle(DefaultParams())
	in := highLoad()
	prev := math.Inf(1)
	for _, speed := range []float64{0, 0.3, 0.5, 1.0} {
		in.fan = speed
		st := s.steadyState(in)
		if st.MaxCore() >= prev {
			t.Fatalf("fan speed %v did not cool below %v", speed, prev)
		}
		prev = st.MaxCore()
	}
}

// Property: steady-state temperature is monotone in injected power.
func TestPropertyPowerMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := newSingle(DefaultParams())
		p1 := rng.Float64() * 0.8
		p2 := p1 + 0.05 + rng.Float64()*0.5
		in1 := load{core: []float64{p1, p1, p1, p1}, board: 1}
		in2 := load{core: []float64{p2, p2, p2, p2}, board: 1}
		return s.steadyState(in2).MaxCore() > s.steadyState(in1).MaxCore()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: the system is linear in the input around ambient —
// superposition holds for temperature rises.
func TestPropertySuperposition(t *testing.T) {
	s := newSingle(DefaultParams())
	inA := load{core: []float64{0.5, 0, 0, 0}}
	inB := load{core: []float64{0, 0.3, 0, 0}, board: 0.7}
	inAB := load{core: []float64{0.5, 0.3, 0, 0}, board: 0.7}
	a := s.steadyState(inA)
	b := s.steadyState(inB)
	ab := s.steadyState(inAB)
	amb := DefaultParams().Ambient
	for i := 0; i < 4; i++ {
		sum := (a.Core[i] - amb) + (b.Core[i] - amb)
		if math.Abs(sum-(ab.Core[i]-amb)) > 0.05 {
			t.Fatalf("superposition broken on core %d: %v vs %v", i, sum, ab.Core[i]-amb)
		}
	}
}

func statesEqual(a, b State) bool {
	if a.Board != b.Board || len(a.Core) != len(b.Core) {
		return false
	}
	for i := range a.Core {
		if a.Core[i] != b.Core[i] {
			return false
		}
	}
	return true
}

func TestGridNeighbors(t *testing.T) {
	want4 := [][]int{{1, 2}, {0, 3}, {0, 3}, {1, 2}}
	got4 := GridNeighbors(4)
	for i := range want4 {
		if len(got4[i]) != len(want4[i]) {
			t.Fatalf("node %d neighbors = %v, want %v", i, got4[i], want4[i])
		}
		for j := range want4[i] {
			if got4[i][j] != want4[i][j] {
				t.Fatalf("node %d neighbors = %v, want %v (paper floorplan)", i, got4[i], want4[i])
			}
		}
	}
	// 8 nodes: a 2x4 grid, symmetric adjacency, interior nodes have 3 edges.
	p := Params{NumCores: 8, CCore: 0.5, CBoard: 5, GCoreBoard: 0.08, GCoreCore: 0.3, GBoardAmb: 0.07}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	got8 := GridNeighbors(8)
	if len(got8[2]) != 3 || len(got8[0]) != 2 {
		t.Fatalf("8-node grid degrees wrong: %v", got8)
	}
}

func TestStabilityEigenvaluesNegative(t *testing.T) {
	for _, p := range []Params{DefaultParams(), {NumCores: 8, CCore: 0.45, CBoard: 7.5, GCoreBoard: 0.075, GCoreCore: 0.28, GBoardAmb: 0.085}} {
		for _, ev := range p.StabilityEigenvalues() {
			if ev >= 0 {
				t.Fatalf("RC eigenvalue %g >= 0 for %+v", ev, p)
			}
		}
	}
}

func TestFanlessSpecNoFanEffect(t *testing.T) {
	p := DefaultParams()
	p.GFanMax, p.GFanCoreMax = 0, 0
	s := newSingle(p)
	in := highLoad()
	noFan := s.steadyState(in).MaxCore()
	in.fan = 1
	if got := s.steadyState(in).MaxCore(); got != noFan {
		t.Fatalf("fanless network cooled by fan speed: %v vs %v", got, noFan)
	}
}
