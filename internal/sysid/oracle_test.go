package sysid

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"testing"

	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/sensor"
)

// The characterization oracle pins the float bits of everything the §4
// flow fits — the big-cluster leakage law and the identified A and B
// matrices — for every registered platform at seeds 1 and 2, with the
// rig a sim.Runner builds. The values were committed from the rig's
// scalar integrator and three-pass power evaluation; the furnace sweeps,
// the PRBS runs and the fits must reproduce them bit for bit.
//
// Regenerate (only when a physics change is intended) with:
//
//	go test ./internal/sysid -run TestCharacterizationOracle -update
var update = flag.Bool("update", false, "regenerate the characterization oracle")

const characterizationOracleFile = "testdata/characterization-oracle.json"

func hexBits(vs ...float64) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = fmt.Sprintf("%016x", math.Float64bits(v))
	}
	return out
}

// characterizationBits runs the leakage and thermal characterization of
// every platform at seeds 1 and 2 and returns the fitted values' bits.
func characterizationBits(t *testing.T) map[string][]string {
	t.Helper()
	got := map[string][]string{}
	for _, name := range platform.Names() {
		desc, err := platform.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{1, 2} {
			rig := &Rig{
				Desc:    desc,
				GT:      power.GroundTruthFor(desc),
				Thermal: desc.Thermal,
				Sensors: sensor.NewBank(sensor.DefaultConfig(), seed),
				Ts:      0.1,
			}
			leak, err := rig.CharacterizeLeakage()
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			model, _, err := rig.CharacterizeThermal()
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			key := fmt.Sprintf("%s/seed%d/", name, seed)
			got[key+"leakage"] = hexBits(leak.C1, leak.C2, leak.IGate, leak.VNom)
			got[key+"A"] = hexBits(model.A.Data...)
			got[key+"B"] = hexBits(model.B.Data...)
		}
	}
	return got
}

// TestCharacterizationOracle compares every fitted value with the
// committed oracle.
func TestCharacterizationOracle(t *testing.T) {
	got := characterizationBits(t)
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(characterizationOracleFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(characterizationOracleFile)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	var want map[string][]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: value missing", name)
			continue
		}
		if len(g) != len(want[name]) {
			t.Errorf("%s: %d values, oracle %d", name, len(g), len(want[name]))
			continue
		}
		for i := range g {
			if g[i] != want[name][i] {
				t.Errorf("%s[%d]: bits %s, oracle %s", name, i, g[i], want[name][i])
			}
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: value not in the oracle (run with -update to add it)", name)
		}
	}
}
