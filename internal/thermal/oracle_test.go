package thermal

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"sort"
	"testing"
)

// The RK4 oracle pins the integrator's trajectories as one SHA-256 per
// device: every node temperature after every step of a random power,
// fan and ambient sequence (fan speeds outside [0, 1], dt of 0, -5, 0.1
// and 500 s, so the no-op and sub-stepping paths are covered), followed by
// SteadyState at three fan speeds and the state it must leave untouched.
// The digests were committed from the scalar integrator that width-1
// BatchSim replaced; any change that moves a single bit fails here.
//
// Regenerate (only when a physics change is intended) with:
//
//	go test ./internal/thermal -run TestRK4Oracle -update
var update = flag.Bool("update", false, "regenerate the RK4 oracle digests")

const rk4OracleFile = "testdata/rk4-oracle.json"

// oracleParams are the two networks the oracle integrates: the paper
// platform and an 8-node fanless grid.
var oracleParams = []Params{
	DefaultParams(),
	{NumCores: 8, CCore: 0.45, CBoard: 7.5, GCoreBoard: 0.075, GCoreCore: 0.28, GBoardAmb: 0.085},
}

// oracleDts is the step-size cycle of an oracle trajectory.
var oracleDts = []float64{0.1, 0.1, 0.1, 0, 0.1, 0.1, -5, 0.1, 2.5, 0.1, 500}

const (
	oracleDevices = 3
	oracleSteps   = 240
)

func writeState(h hash.Hash, st State) {
	for _, v := range st.Core {
		fmt.Fprintf(h, "%016x ", math.Float64bits(v))
	}
	fmt.Fprintf(h, "%016x\n", math.Float64bits(st.Board))
}

// rk4Digest integrates device dev of parameter set pi and hashes its
// trajectory.
func rk4Digest(pi, dev int) string {
	p := oracleParams[pi]
	n := p.Cores()
	rng := rand.New(rand.NewSource(int64(1000*pi + dev)))
	s := NewBatchSim(p, 1)
	warm := NewState(n, p.Ambient)
	for i := range warm.Core {
		warm.Core[i] += float64(dev) + 0.1*float64(i)
	}
	warm.Board += 0.5 * float64(dev)
	s.SetState(0, warm)

	h := sha256.New()
	core := s.CoreInput(0)
	var board, fan float64
	var st State
	for step := 0; step < oracleSteps; step++ {
		if step%17 == dev {
			s.SetAmbient(0, p.Ambient+10*rng.Float64())
		}
		for i := range core {
			core[i] = 3 * rng.Float64()
		}
		board = 2 * rng.Float64()
		fan = 1.2*rng.Float64() - 0.1
		s.Step(0, oracleDts[step%len(oracleDts)], board, fan)
		writeState(h, *s.StateInto(0, &st))
	}
	for _, f := range []float64{0, fan, 1} {
		writeState(h, s.SteadyState(0, board, f))
		writeState(h, *s.StateInto(0, &st))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRK4Oracle compares every trajectory's digest with the committed
// oracle.
func TestRK4Oracle(t *testing.T) {
	got := map[string]string{}
	for pi := range oracleParams {
		for dev := 0; dev < oracleDevices; dev++ {
			got[fmt.Sprintf("params%d/device%d", pi, dev)] = rk4Digest(pi, dev)
		}
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(rk4OracleFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(rk4OracleFile)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if g, ok := got[name]; !ok {
			t.Errorf("%s: trajectory missing", name)
		} else if g != want[name] {
			t.Errorf("%s: digest %s, oracle %s", name, g, want[name])
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: trajectory not in the oracle (run with -update to add it)", name)
		}
	}
}
