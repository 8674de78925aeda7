package sysid

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"os"
	"sort"
	"testing"

	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/sensor"
)

// The rig oracle pins the raw outputs of the §4 experiments — every sensed
// furnace sample and PRBS dataset, before any fit — as float-bit digests,
// for every registered platform at seeds 1 and 2. The characterization
// oracle pins only the fitted laws; this one also pins the Chapter 4 figure
// inputs. The sweeps and PRBS runs are called in the order
// CharacterizeLeakage and CharacterizeThermal call them, on one sensor bank,
// so the digests pin the noise stream too; the experiments' own sweeps
// (fig4.2/4.7 at 1200 MHz, fig4.6 at 50 °C) and the fig4.8 PRBS run each
// use a fresh bank, as their figures do.
//
// Regenerate (only when a physics or sensing change is intended) with:
//
//	go test ./internal/sysid -run TestRigOracle -update
const rigOracleFile = "testdata/rig-oracle.json"

// bitDigest hashes the float bits of a value stream.
type bitDigest struct {
	h   hash.Hash
	buf [8]byte
}

func newBitDigest() *bitDigest { return &bitDigest{h: sha256.New()} }

func (d *bitDigest) add(vs ...float64) {
	for _, v := range vs {
		binary.LittleEndian.PutUint64(d.buf[:], math.Float64bits(v))
		d.h.Write(d.buf[:])
	}
}

func (d *bitDigest) finish() string { return hex.EncodeToString(d.h.Sum(nil)) }

func furnaceDigest(samples []FurnaceSample, err error) string {
	if err != nil {
		return "err: " + err.Error()
	}
	d := newBitDigest()
	for _, s := range samples {
		d.add(s.TempC, s.Power, s.Volt, s.FHz)
	}
	return fmt.Sprintf("%d samples %s", len(samples), d.finish())
}

func datasetDigest(ds *Dataset, err error) string {
	if err != nil {
		return "err: " + err.Error()
	}
	d := newBitDigest()
	d.add(ds.Ts, ds.Ambient, float64(ds.States))
	for k := range ds.Temps {
		d.add(ds.Temps[k]...)
		d.add(ds.Powers[k]...)
	}
	return fmt.Sprintf("%d samples %s", ds.Len(), d.finish())
}

// rigDigests runs every pinned rig experiment and returns its digests.
func rigDigests(t *testing.T) map[string]string {
	t.Helper()
	got := map[string]string{}
	setpoints := []float64{40, 50, 60, 70, 80}
	for _, name := range platform.Names() {
		desc, err := platform.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{1, 2} {
			newRig := func() *Rig {
				return &Rig{
					Desc:    desc,
					GT:      power.GroundTruthFor(desc),
					Thermal: desc.Thermal,
					Sensors: sensor.NewBank(sensor.DefaultConfig(), seed),
					Ts:      0.1,
				}
			}
			key := fmt.Sprintf("%s/seed%d/", name, seed)

			// The characterization's order, on one bank.
			rig := newRig()
			got[key+"char/freq-sweep"] = furnaceDigest(rig.FurnaceFreqSweep(40, 8))
			got[key+"char/temp-sweep"] = furnaceDigest(rig.FurnaceTempSweep(setpoints, desc.Big.Domain.MaxFreq(), 12))
			for res := platform.Big; res < platform.NumResources; res++ {
				if res == platform.Little && !desc.HasLittle() {
					continue
				}
				cfg := DefaultPRBSConfig(res)
				cfg.Seed += uint16(res) * 97
				got[key+"char/prbs-"+res.String()] = datasetDigest(rig.CollectPRBS(cfg))
			}

			// The experiments' calls, each on a fresh bank.
			got[key+"exp/temp-sweep-1200"] = furnaceDigest(newRig().FurnaceTempSweep(setpoints, platform.MHzToKHz(1200), 40))
			got[key+"exp/freq-sweep-50"] = furnaceDigest(newRig().FurnaceFreqSweep(50, 30))
			got[key+"exp/prbs-big"] = datasetDigest(newRig().CollectPRBS(DefaultPRBSConfig(platform.Big)))
		}
	}
	return got
}

// TestRigOracle compares every raw rig output with the committed oracle.
func TestRigOracle(t *testing.T) {
	got := rigDigests(t)
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(rigOracleFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(rigOracleFile)
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
			t.Errorf("%s: output missing", name)
		} else if g != want[name] {
			t.Errorf("%s: %s, oracle %s", name, g, want[name])
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: output not in the oracle (run with -update to add it)", name)
		}
	}
}
