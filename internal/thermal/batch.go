package thermal

import "math"

// BatchSim integrates the RC network of B independent devices that share
// one parameter set, in a structure-of-arrays layout: all per-device state
// lives in flat device-major slabs (core temperatures as B contiguous rows
// of n nodes, boards and ambients as length-B vectors) and the RK4 stage
// and derivative buffers are shared across the whole batch — its buffers
// are two allocations at any width, and stepping device after device
// reuses hot scratch instead of touching B separate working sets.
//
// It is the package's only integrator: the simulation kernel steps whole
// batches, and the characterization rig and the idle warm start use width
// 1. A device's trajectory depends only on its own row, inputs and
// ambient, never on the batch width or on its neighbours; batch_test.go
// enforces this bit for bit, and testdata/rk4-oracle.json pins the
// width-1 trajectories.
//
// The ambient temperature is per device (SetAmbient): scripts change it
// over time, and devices of one batch sit in different rooms.
type BatchSim struct {
	p   Params
	nbr [][]int
	n   int // core nodes per device
	b   int // batch size

	core    []float64 // [b*n] device-major core temperatures
	board   []float64 // [b]
	ambient []float64 // [b] per-device ambient (°C)
	input   []float64 // [b*n] device-major per-core power inputs

	// gcb[i] is core i's conductance to the board, GCoreBoard*coreAsym(p, i),
	// the product derivative would otherwise form per core per RK4 stage.
	gcb []float64

	// Shared RK4 scratch: stage state and the four derivative estimates
	// for the device currently being stepped.
	stage              []float64
	k1c, k2c, k3c, k4c []float64
}

// NewBatchSim returns a batch of b devices with every node at p.Ambient.
func NewBatchSim(p Params, b int) *BatchSim {
	n := p.Cores()
	flat := make([]float64, 2*b*n+2*b)
	s := &BatchSim{
		p:       p,
		nbr:     p.neighbors(),
		n:       n,
		b:       b,
		core:    flat[0 : b*n : b*n],
		input:   flat[b*n : 2*b*n : 2*b*n],
		board:   flat[2*b*n : 2*b*n+b : 2*b*n+b],
		ambient: flat[2*b*n+b:],
	}
	scratch := make([]float64, 6*n)
	s.stage = scratch[0:n:n]
	s.k1c = scratch[n : 2*n : 2*n]
	s.k2c = scratch[2*n : 3*n : 3*n]
	s.k3c = scratch[3*n : 4*n : 4*n]
	s.k4c = scratch[4*n : 5*n : 5*n]
	s.gcb = scratch[5*n : 6*n : 6*n]
	for i := range s.gcb {
		s.gcb[i] = p.GCoreBoard * coreAsym(p, i)
	}
	for i := range s.core {
		s.core[i] = p.Ambient
	}
	for d := 0; d < b; d++ {
		s.board[d] = p.Ambient
		s.ambient[d] = p.Ambient
	}
	return s
}

// row returns device d's core-temperature row.
func (s *BatchSim) row(d int) []float64 { return s.core[d*s.n : (d+1)*s.n : (d+1)*s.n] }

// SetState forces device d's node temperatures. The state is copied; the
// caller keeps ownership of st.Core.
func (s *BatchSim) SetState(d int, st State) {
	copy(s.row(d), st.Core)
	s.board[d] = st.Board
}

// SetAmbient moves device d's ambient temperature.
func (s *BatchSim) SetAmbient(d int, amb float64) { s.ambient[d] = amb }

// Ambient returns device d's current ambient temperature.
func (s *BatchSim) Ambient(d int) float64 { return s.ambient[d] }

// StateInto copies device d's node temperatures into dst, resizing
// dst.Core if needed, and returns dst — the allocation-free per-step read.
func (s *BatchSim) StateInto(d int, dst *State) *State {
	if len(dst.Core) != s.n {
		dst.Core = make([]float64, s.n)
	}
	copy(dst.Core, s.row(d))
	dst.Board = s.board[d]
	return dst
}

// CoreInput returns device d's per-core power input row. The caller fills
// it in place before Step(d, ...); the row is retained across steps.
func (s *BatchSim) CoreInput(d int) []float64 { return s.input[d*s.n : (d+1)*s.n : (d+1)*s.n] }

// derivative evaluates dT/dt for device d at the given core/board state,
// with the device's input row and ambient, writing the core derivatives
// into dCore.
func (s *BatchSim) derivative(d int, core []float64, board float64, boardPower, fanSpeed float64, dCore []float64) (dBoard float64) {
	p := &s.p
	in := s.CoreInput(d)
	amb := s.ambient[d]
	// Convective conductance grows strongly superlinearly with fan duty
	// (airflow rises with RPM and the boundary layer thins with airflow);
	// a quartic law makes the stock controller's idle duty nearly neutral
	// and its upper steps aggressive. The resulting over-cool/re-heat
	// limit cycle is the wide with-fan oscillation of Figures 6.3-6.4.
	fan := clamp01(fanSpeed)
	fanEff := fan * fan * fan * fan
	gAmb := p.GBoardAmb + p.GFanMax*fanEff
	gFanCore := p.GFanCoreMax * fanEff
	var toBoard float64
	for i := range dCore {
		gcb := s.gcb[i]
		q := in[i]
		q -= gcb * (core[i] - board)
		q -= gFanCore * (core[i] - amb)
		for _, j := range s.nbr[i] {
			q -= p.GCoreCore * (core[i] - core[j])
		}
		dCore[i] = q / p.CCore
		toBoard += gcb * (core[i] - board)
	}
	qb := boardPower + toBoard - gAmb*(board-amb)
	dBoard = qb / p.CBoard
	return dBoard
}

// Step advances device d by dt seconds with the core powers previously
// written into CoreInput(d) plus the given board power and fan speed. It
// integrates with RK4, sub-stepped to the fastest time constant so the
// integration stays stable for any caller-supplied dt; dt <= 0 is a no-op.
func (s *BatchSim) Step(d int, dt float64, boardPower, fanSpeed float64) {
	if dt <= 0 {
		return
	}
	// Fastest time constant ~ CCore / (GCoreBoard + 2*GCoreCore).
	tau := s.p.CCore / (s.p.GCoreBoard + 2*s.p.GCoreCore)
	sub := int(math.Ceil(dt / (tau / 4)))
	if sub < 1 {
		sub = 1
	}
	h := dt / float64(sub)
	for n := 0; n < sub; n++ {
		s.rk4(d, h, boardPower, fanSpeed)
	}
}

// rk4 advances device d by one internal step of the classical tableau
// (stage = state + w*k element-wise, then the 1/6 weighted sum) over the
// device's row.
func (s *BatchSim) rk4(d int, h float64, boardPower, fanSpeed float64) {
	core := s.row(d)
	board := s.board[d]
	var stageBoard float64
	stage := func(kc []float64, kb, w float64) {
		for i := range s.stage {
			s.stage[i] = core[i] + w*kc[i]
		}
		stageBoard = board + w*kb
	}
	k1b := s.derivative(d, core, board, boardPower, fanSpeed, s.k1c)
	stage(s.k1c, k1b, h/2)
	k2b := s.derivative(d, s.stage, stageBoard, boardPower, fanSpeed, s.k2c)
	stage(s.k2c, k2b, h/2)
	k3b := s.derivative(d, s.stage, stageBoard, boardPower, fanSpeed, s.k3c)
	stage(s.k3c, k3b, h)
	k4b := s.derivative(d, s.stage, stageBoard, boardPower, fanSpeed, s.k4c)
	for i := range core {
		core[i] += h / 6 * (s.k1c[i] + 2*s.k2c[i] + 2*s.k3c[i] + s.k4c[i])
	}
	s.board[d] += h / 6 * (k1b + 2*k2b + 2*k3b + k4b)
}

// SteadyState returns device d's equilibrium temperatures for constant
// inputs (the core powers in CoreInput(d) plus the given board power and
// fan speed), found by stepping 1 s at a time until the largest
// derivative is negligible. Device d's state is left as it was found.
func (s *BatchSim) SteadyState(d int, boardPower, fanSpeed float64) State {
	var saved, out State
	s.StateInto(d, &saved)
	row := s.row(d)
	for iter := 0; iter < 200000; iter++ {
		s.Step(d, 1.0, boardPower, fanSpeed)
		db := s.derivative(d, row, s.board[d], boardPower, fanSpeed, s.k1c)
		m := math.Abs(db)
		for _, dc := range s.k1c {
			if math.Abs(dc) > m {
				m = math.Abs(dc)
			}
		}
		if m < 1e-7 {
			break
		}
	}
	s.StateInto(d, &out)
	s.SetState(d, saved)
	return out
}
