package thermal

import (
	"math"
	"math/rand"
	"testing"
)

// TestBatchSimDevicesIndependent is the batch's byte-identity gate: device
// d of a batch of B, stepped with per-device inputs and per-device ambient
// moves, must track a width-1 BatchSim fed the same sequence bit for bit.
// The fleet kernel's batch-size invariance rests on this; the width-1
// trajectories themselves are pinned by TestRK4Oracle.
func TestBatchSimDevicesIndependent(t *testing.T) {
	for _, p := range oracleParams {
		const B = 5
		bsim := NewBatchSim(p, B)
		if bsim.b != B {
			t.Fatalf("batch size %d, want %d", bsim.b, B)
		}
		singles := make([]*BatchSim, B)
		rngs := make([]*rand.Rand, B)
		for d := 0; d < B; d++ {
			singles[d] = NewBatchSim(p, 1)
			rngs[d] = rand.New(rand.NewSource(int64(100 + d)))
			// Distinct warm starts per device.
			st := NewState(p.Cores(), p.Ambient)
			for i := range st.Core {
				st.Core[i] += float64(d) + 0.1*float64(i)
			}
			st.Board += 0.5 * float64(d)
			singles[d].SetState(0, st)
			bsim.SetState(d, st)
		}

		var got, want State
		for step := 0; step < 200; step++ {
			for d := 0; d < B; d++ {
				rng := rngs[d]
				if step%17 == d { // occasional per-device ambient move
					amb := p.Ambient + 10*rng.Float64()
					singles[d].SetAmbient(0, amb)
					bsim.SetAmbient(d, amb)
					if bsim.Ambient(d) != amb {
						t.Fatalf("device %d: Ambient() = %v, want %v", d, bsim.Ambient(d), amb)
					}
				}
				in := bsim.CoreInput(d)
				for i := range in {
					in[i] = 3 * rng.Float64()
				}
				copy(singles[d].CoreInput(0), in)
				boardPow := 2 * rng.Float64()
				fan := rng.Float64()
				dt := 0.1
				singles[d].Step(0, dt, boardPow, fan)
				bsim.Step(d, dt, boardPow, fan)

				singles[d].StateInto(0, &want)
				bsim.StateInto(d, &got)
				if math.Float64bits(got.Board) != math.Float64bits(want.Board) {
					t.Fatalf("device %d step %d: board %v vs %v", d, step, got.Board, want.Board)
				}
				for i := range want.Core {
					if math.Float64bits(got.Core[i]) != math.Float64bits(want.Core[i]) {
						t.Fatalf("device %d step %d: core %d temp %v vs %v", d, step, i, got.Core[i], want.Core[i])
					}
				}
			}
		}
	}
}
