// Package thermal implements the ground-truth thermal behaviour of a
// simulated mobile platform: a lumped RC network following the electrical
// duality of Equation 4.3,
//
//	C_t dT/dt = -G_t (T - T_amb) + M P
//
// with N core hotspot nodes (which carry the on-die temperature sensors,
// §6.1.2) and one board/package node that aggregates the little cluster,
// GPU, memory, and case. The fan — when the platform has one — adds
// convective conductance from the board node to ambient.
//
// The default parameter set models the Odroid-XU+E of the paper (four
// big-core hotspots); the node count, floorplan adjacency, per-core
// asymmetry, and fan model are all data (Params), so the same integrator
// serves any registered platform descriptor.
//
// The identified model of §4.2 (package sysid) is an N-state discretized
// approximation of this (N+1)-state continuous network, exactly mirroring
// the situation on real silicon where the identified model is low-order
// relative to the physical heat-flow system.
package thermal

import (
	"fmt"
	"math"
)

// NumCoreNodes is the number of hotspot (sensor-bearing) nodes of the
// default (Exynos 5410) network; Params.NumCores overrides it per platform.
const NumCoreNodes = 4

// Params describe the RC network.
type Params struct {
	// NumCores is the number of core hotspot nodes (0 = NumCoreNodes).
	NumCores int
	// CCore is each core node's thermal capacitance (J/K).
	CCore float64
	// CBoard is the board/package node capacitance (J/K).
	CBoard float64
	// GCoreBoard is the conductance from each core to the board (W/K).
	GCoreBoard float64
	// GCoreCore is the conductance between adjacent cores (W/K); by default
	// cores are arranged in a two-column grid (0-1 / 2-3 / ... , Figure 1.2)
	// with 4-neighbour coupling. Neighbors overrides the adjacency.
	GCoreCore float64
	// CoreAsym are per-core multipliers on GCoreBoard modelling floorplan
	// asymmetry (corner vs. center placement, TIM thickness variation).
	// Real dies are never perfectly symmetric; this is also what makes the
	// N-output identification problem well posed. Zero entries (or a nil /
	// short slice) are treated as 1 so the zero value of Params stays usable.
	CoreAsym []float64
	// Neighbors is the core-node adjacency (Neighbors[i] lists the nodes
	// coupled to i through GCoreCore). Nil means the default two-column grid
	// for NumCores nodes. Entries must be symmetric: j in Neighbors[i] iff
	// i in Neighbors[j].
	Neighbors [][]int
	// GBoardAmb is the passive board-to-ambient conductance (W/K).
	GBoardAmb float64
	// GFanMax is the extra board-to-ambient convective conductance at 100%
	// fan speed (W/K). Zero on fanless platforms.
	GFanMax float64
	// GFanCoreMax is the extra per-core convective conductance at 100% fan
	// speed (W/K): the stock fan blows directly over the SoC heatsink, so
	// it cools the die, not only the board. Zero on fanless platforms.
	GFanCoreMax float64
	// Ambient is the ambient temperature in °C.
	Ambient float64
}

// Cores returns the hotspot node count (NumCores, defaulting to
// NumCoreNodes for the zero value).
func (p Params) Cores() int {
	if p.NumCores > 0 {
		return p.NumCores
	}
	return NumCoreNodes
}

// GridNeighbors returns the default two-column-grid adjacency for n core
// nodes: node i sits at (row i/2, column i%2) and couples to its horizontal
// and vertical neighbours. Neighbour lists are ascending, which for n = 4
// reproduces the paper platform's 0-1 / 2-3 floorplan exactly.
func GridNeighbors(n int) [][]int {
	out := make([][]int, n)
	for i := 0; i < n; i++ {
		var nb []int
		// Candidates in ascending index order: the row above, the other
		// column of the same row, the row below.
		for _, j := range [3]int{i - 2, i ^ 1, i + 2} {
			if j >= 0 && j < n && j != i {
				nb = append(nb, j)
			}
		}
		out[i] = nb
	}
	return out
}

// neighbors resolves the effective adjacency.
func (p Params) neighbors() [][]int {
	if p.Neighbors != nil {
		return p.Neighbors
	}
	return GridNeighbors(p.Cores())
}

// DefaultParams returns the calibrated Odroid-XU+E network. The constants
// are chosen so the simulated platform matches the paper's measured thermal
// behaviour: no-fan high load exceeds 85 °C within minutes (Figure 1.1),
// full fan holds ~55-62 °C, PRBS power swings of ~2.4 W move the hotspots by
// 10-20 °C with a time constant of a few seconds (Figure 4.8), and the board
// drifts with a ~2-3 minute time constant.
func DefaultParams() Params {
	return Params{
		NumCores:    NumCoreNodes,
		CCore:       0.50,
		CBoard:      5.0,
		GCoreBoard:  0.080,
		GCoreCore:   0.300,
		CoreAsym:    []float64{1.00, 1.07, 0.94, 1.03},
		GBoardAmb:   0.071,
		GFanMax:     0.280,
		GFanCoreMax: 0.040,
		Ambient:     30.0,
	}
}

// State is the instantaneous temperature of every node in °C.
type State struct {
	Core  []float64
	Board float64
}

// NewState returns a state with n core nodes at temperature t.
func NewState(n int, t float64) State {
	s := State{Core: make([]float64, n), Board: t}
	for i := range s.Core {
		s.Core[i] = t
	}
	return s
}

// MaxCore returns the hottest core temperature.
func (s State) MaxCore() float64 {
	m := s.Core[0]
	for _, t := range s.Core[1:] {
		if t > m {
			m = t
		}
	}
	return m
}

// coreAsym returns the effective asymmetry multiplier for core i,
// treating a zero (or absent) entry as 1.
func coreAsym(p Params, i int) float64 {
	if i >= len(p.CoreAsym) || p.CoreAsym[i] == 0 {
		return 1
	}
	return p.CoreAsym[i]
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// FanSpec is the data of a platform's stock fan policy: the thresholds and
// duty steps of the speed ladder. A platform descriptor carries a nil
// FanSpec when the device is fanless (phones, fanless tablets).
type FanSpec struct {
	OnTemp    float64 // °C, fan steps to LowSpeed
	MidTemp   float64 // °C, fan steps to MidSpeed
	HighTemp  float64 // °C, 100% speed
	IdleSpeed float64 // always-on floor duty
	LowSpeed  float64 // duty at the first threshold
	MidSpeed  float64 // duty at the second threshold
	Hyst      float64 // °C of hysteresis when stepping back down
}

// DefaultFanSpec returns the stock Odroid-XU+E ladder: 57/63/68 °C.
func DefaultFanSpec() FanSpec {
	return FanSpec{
		OnTemp: 57, MidTemp: 63, HighTemp: 68,
		IdleSpeed: 0.30, LowSpeed: 0.50, MidSpeed: 0.75,
		Hyst: 3,
	}
}

// FanController reproduces a stock fan policy (§6.2 for the Odroid-XU+E):
// the fan idles at a low duty whenever the board is powered (the stock fan
// never fully stops), activates when the maximum core temperature exceeds
// OnTemp, steps to MidSpeed above MidTemp, and to 100% above HighTemp.
// Hysteresis prevents chattering exactly at a threshold. The always-spinning
// idle duty is what makes "avoiding the fan, even if it is rarely active"
// worth ~3% platform power on low-activity workloads (§6.3.3).
type FanController struct {
	FanSpec

	speed float64
}

// NewFanControllerFor returns a controller running the given ladder.
func NewFanControllerFor(spec FanSpec) *FanController {
	return &FanController{FanSpec: spec}
}

// Update advances the controller with the current max core temperature and
// returns the commanded fan speed fraction.
func (f *FanController) Update(maxCoreTemp float64) float64 {
	switch {
	case maxCoreTemp > f.HighTemp:
		f.speed = 1.0
	case maxCoreTemp > f.MidTemp:
		if f.speed < f.MidSpeed || maxCoreTemp < f.HighTemp-f.Hyst {
			f.speed = f.MidSpeed
		}
	case maxCoreTemp > f.OnTemp:
		if f.speed < f.LowSpeed || maxCoreTemp < f.MidTemp-f.Hyst {
			f.speed = f.LowSpeed
		}
	case maxCoreTemp < f.OnTemp-f.Hyst:
		f.speed = f.IdleSpeed
	default:
		if f.speed < f.IdleSpeed {
			f.speed = f.IdleSpeed
		}
	}
	return f.speed
}

// Validate sanity-checks the parameter set: positive capacitances and
// conductances, in-range asymmetry, and a well-formed symmetric adjacency.
func (p Params) Validate() error {
	if p.NumCores < 0 {
		return fmt.Errorf("thermal: NumCores %d negative", p.NumCores)
	}
	n := p.Cores()
	if p.CCore <= 0 || p.CBoard <= 0 {
		return fmt.Errorf("thermal: capacitances must be positive")
	}
	if p.GCoreBoard <= 0 || p.GBoardAmb <= 0 || p.GCoreCore < 0 || p.GFanMax < 0 || p.GFanCoreMax < 0 {
		return fmt.Errorf("thermal: conductances must be positive")
	}
	if len(p.CoreAsym) > n {
		return fmt.Errorf("thermal: CoreAsym has %d entries for %d core nodes", len(p.CoreAsym), n)
	}
	for i, a := range p.CoreAsym {
		if a < 0 {
			return fmt.Errorf("thermal: CoreAsym[%d] negative", i)
		}
	}
	nbr := p.neighbors()
	if len(nbr) != n {
		return fmt.Errorf("thermal: adjacency has %d rows for %d core nodes", len(nbr), n)
	}
	for i, row := range nbr {
		for _, j := range row {
			if j < 0 || j >= n {
				return fmt.Errorf("thermal: neighbor %d of node %d out of range", j, i)
			}
			if j == i {
				return fmt.Errorf("thermal: node %d lists itself as a neighbor", i)
			}
			if !contains(nbr[j], i) {
				return fmt.Errorf("thermal: adjacency asymmetric: %d->%d has no back edge", i, j)
			}
		}
	}
	return nil
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// StabilityEigenvalues returns the eigenvalues of the continuous-time RC
// system matrix A_c = -C^{-1/2} G C^{1/2}... computed in the symmetrized
// coordinate S = C^{-1/2} G C^{-1/2} (similar to C^{-1}G, so the spectra
// match). The network is passively stable — every thermal transient decays —
// iff all returned values are strictly negative. Fan speed is taken as 0
// (the weakest cooling; extra fan conductance only moves eigenvalues
// further left). Descriptor validation and the property tests gate on this.
func (p Params) StabilityEigenvalues() []float64 {
	n := p.Cores()
	dim := n + 1
	// Conductance matrix G (dim x dim): rows/cols 0..n-1 are cores, n is the
	// board node. Off-diagonals are -g_ij, diagonals the sum of incident
	// conductances (core-board, core-core, board-ambient grounds the system).
	G := make([][]float64, dim)
	for i := range G {
		G[i] = make([]float64, dim)
	}
	nbr := p.neighbors()
	for i := 0; i < n; i++ {
		gcb := p.GCoreBoard * coreAsym(p, i)
		G[i][i] += gcb
		G[i][dim-1] -= gcb
		G[dim-1][i] -= gcb
		G[dim-1][dim-1] += gcb
		for _, j := range nbr[i] {
			G[i][i] += p.GCoreCore
			G[i][j] -= p.GCoreCore
		}
	}
	G[dim-1][dim-1] += p.GBoardAmb
	// Symmetrize with the capacitances: S = C^{-1/2} G C^{-1/2}.
	cap := func(i int) float64 {
		if i == dim-1 {
			return p.CBoard
		}
		return p.CCore
	}
	for i := 0; i < dim; i++ {
		for j := 0; j < dim; j++ {
			G[i][j] /= math.Sqrt(cap(i)) * math.Sqrt(cap(j))
		}
	}
	eigs := jacobiEigenvalues(G)
	for i := range eigs {
		eigs[i] = -eigs[i]
	}
	return eigs
}

// jacobiEigenvalues computes the eigenvalues of a symmetric matrix by the
// classical Jacobi rotation method (the matrix is tiny: N+1 nodes).
func jacobiEigenvalues(a [][]float64) []float64 {
	n := len(a)
	// Work on a copy.
	m := make([][]float64, n)
	for i := range m {
		m[i] = append([]float64(nil), a[i]...)
	}
	for sweep := 0; sweep < 100; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += m[i][j] * m[i][j]
			}
		}
		if off < 1e-24 {
			break
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if math.Abs(m[i][j]) < 1e-18 {
					continue
				}
				theta := (m[j][j] - m[i][i]) / (2 * m[i][j])
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				for k := 0; k < n; k++ {
					mik, mjk := m[i][k], m[j][k]
					m[i][k] = c*mik - s*mjk
					m[j][k] = s*mik + c*mjk
				}
				for k := 0; k < n; k++ {
					mki, mkj := m[k][i], m[k][j]
					m[k][i] = c*mki - s*mkj
					m[k][j] = s*mki + c*mkj
				}
			}
		}
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = m[i][i]
	}
	return out
}
