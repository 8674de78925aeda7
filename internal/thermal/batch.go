package thermal

import "math"

// BatchSim integrates the RC network of B independent devices that share
// one parameter set, in a structure-of-arrays layout: all per-device state
// lives in flat device-major slabs (core temperatures as B contiguous rows
// of n nodes, boards and ambients as length-B vectors) and the RK4 stage
// and derivative buffers are shared across the whole batch — a batch costs
// two allocations instead of 2*B Sims, and stepping device after device
// reuses hot scratch instead of touching B separate working sets.
//
// Per device the integration is bit-identical to Sim: Step(d, ...) replays
// Sim.Step's sub-stepping and rk4 tableau with the same floating-point
// operations in the same order on the same values, only reading them from
// the device's row. The batched fleet kernel depends on this; the
// byte-identity property test in batch_test.go enforces it.
//
// Unlike Sim, whose ambient is the one Sim.P.Ambient, the ambient
// temperature is per device (SetAmbient): scripts change it over time,
// and devices of one batch sit in different rooms.
type BatchSim struct {
	p   Params
	nbr [][]int
	n   int // core nodes per device
	b   int // batch size

	core    []float64 // [b*n] device-major core temperatures
	board   []float64 // [b]
	ambient []float64 // [b] per-device ambient (°C)
	input   []float64 // [b*n] device-major per-core power inputs

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
	scratch := make([]float64, 5*n)
	s.stage = scratch[0:n:n]
	s.k1c = scratch[n : 2*n : 2*n]
	s.k2c = scratch[2*n : 3*n : 3*n]
	s.k3c = scratch[3*n : 4*n : 4*n]
	s.k4c = scratch[4*n : 5*n : 5*n]
	for i := range s.core {
		s.core[i] = p.Ambient
	}
	for d := 0; d < b; d++ {
		s.board[d] = p.Ambient
		s.ambient[d] = p.Ambient
	}
	return s
}

// Batch returns the batch size.
func (s *BatchSim) Batch() int { return s.b }

// row returns device d's core-temperature row.
func (s *BatchSim) row(d int) []float64 { return s.core[d*s.n : (d+1)*s.n : (d+1)*s.n] }

// SetState forces device d's node temperatures (copied, like Sim.SetState).
func (s *BatchSim) SetState(d int, st State) {
	copy(s.row(d), st.Core)
	s.board[d] = st.Board
}

// SetAmbient moves device d's ambient temperature, the per-device
// equivalent of writing Sim.P.Ambient.
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
// writing the core derivatives into dCore. It mirrors Sim.derivative
// operation for operation, with in.CorePower = the device's input row and
// p.Ambient = the device's ambient.
func (s *BatchSim) derivative(d int, core []float64, board float64, boardPower, fanSpeed float64, dCore []float64) (dBoard float64) {
	p := s.p
	in := s.CoreInput(d)
	amb := s.ambient[d]
	fan := clamp01(fanSpeed)
	fanEff := fan * fan * fan * fan
	gAmb := p.GBoardAmb + p.GFanMax*fanEff
	gFanCore := p.GFanCoreMax * fanEff
	var toBoard float64
	for i := range dCore {
		gcb := p.GCoreBoard * coreAsym(p, i)
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
// written into CoreInput(d) plus the given board power and fan speed,
// using the same RK4 sub-stepping as Sim.Step.
func (s *BatchSim) Step(d int, dt float64, boardPower, fanSpeed float64) {
	if dt <= 0 {
		return
	}
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

// rk4 advances device d by one internal step, replaying Sim.rk4's tableau
// arithmetic exactly (stage = state + w*k element-wise, then the 1/6
// weighted sum) over the device's row.
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
