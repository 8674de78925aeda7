package fleet

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/platform"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/store"
)

// codecSpec is a mixed 3-platform fleet over the whole built-in scenario
// library: the population whose every cell the codec must round-trip.
func codecSpec() Spec {
	var scs []Weight
	for _, sc := range scenario.Library() {
		scs = append(scs, Weight{Name: sc.Name, Weight: 1})
	}
	return Spec{
		Name:           "codec-fleet",
		N:              40,
		Policy:         "dtpm",
		ControlPeriodS: 0.5,
		Platforms: []Weight{
			{Name: platform.DefaultName, Weight: 1},
			{Name: "fanless-phone", Weight: 1},
			{Name: "tablet-8big", Weight: 1},
		},
		Scenarios:      scs,
		AmbientJitterC: 10,
	}
}

const codecSeed = 7

var (
	codecOnce  sync.Once
	codecCells []cellOutcome
	codecErr   string
)

// codecOutcomes computes every cell of codecSpec once per test binary,
// keeping each cell's compact sums (the outcomes never reach a collector,
// so nothing recycles them).
func codecOutcomes(tb testing.TB) []cellOutcome {
	tb.Helper()
	codecOnce.Do(func() {
		spec := codecSpec().normalized()
		pol, err := sim.ParsePolicy(spec.Policy)
		if err != nil {
			codecErr = err.Error()
			return
		}
		eng := &Engine{Workers: 1, BaseSeed: codecSeed}
		for i := 0; i < spec.N; i++ {
			out := eng.computeUnit(context.Background(), spec, pol, []int{i})[0]
			if out.err != "" {
				codecErr = out.err
				return
			}
			codecCells = append(codecCells, out)
		}
	})
	if codecErr != "" {
		tb.Fatal(codecErr)
	}
	return codecCells
}

// entryBits flattens everything a fleet-cell entry carries to comparable
// bit patterns.
func entryBits(s *cellSums) []uint64 {
	out := []uint64{uint64(len(s.bins))}
	for _, b := range s.bins {
		out = append(out, uint64(b))
	}
	f := math.Float64bits
	m := &s.metrics
	completed := uint64(0)
	if m.Completed {
		completed = 1
	}
	return append(out,
		s.skinM.N, f(s.skinM.Sum), f(s.skinM.MinV), f(s.skinM.MaxV),
		s.coreM.N, f(s.coreM.Sum), f(s.coreM.MinV), f(s.coreM.MaxV),
		s.overN, s.n, f(s.freqFrac),
		completed, f(m.ExecS), f(m.EnergyJ), f(m.AvgPowerW), f(m.ThrottleFrac),
		f(m.PerfLossFrac), f(m.MaxSkinC), f(m.MaxCoreC), m.Samples)
}

// TestCellEntryRoundTrip: every cell of a mixed 3-platform, all-scenario
// fleet round-trips through the fleet-cell payload bit-exactly and
// re-encodes to the same bytes; every strict prefix and one appended byte
// are rejected; and a store-backed run writes exactly these payloads.
func TestCellEntryRoundTrip(t *testing.T) {
	cells := codecOutcomes(t)
	platforms, scenarios := map[string]bool{}, map[string]bool{}
	for _, out := range cells {
		platforms[out.cfg.Platform] = true
		scenarios[out.cfg.Scenario] = true
	}
	if len(platforms) != 3 || len(scenarios) != len(scenario.Library()) {
		t.Fatalf("population covers %d platforms and %d scenarios, want 3 and %d", len(platforms), len(scenarios), len(scenario.Library()))
	}

	payloads := make([][]byte, len(cells))
	for i, out := range cells {
		p := appendCellEntry(nil, out.sums)
		payloads[i] = p
		s := new(cellSums)
		if err := decodeCellEntry(p, s); err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		if got, want := entryBits(s), entryBits(out.sums); !slices.Equal(got, want) {
			t.Fatalf("cell %d: decoded state differs from the encoded cell", i)
		}
		if re := appendCellEntry(nil, s); !bytes.Equal(re, p) {
			t.Fatalf("cell %d: re-encoding changed the bytes", i)
		}
		for k := 0; k < len(p); k++ {
			if decodeCellEntry(p[:k], new(cellSums)) == nil {
				t.Fatalf("cell %d: %d-byte prefix of a %d-byte entry accepted", i, k, len(p))
			}
		}
		if decodeCellEntry(append(p[:len(p):len(p)], 0), new(cellSums)) == nil {
			t.Fatalf("cell %d: entry with one trailing byte accepted", i)
		}
	}

	// The batched run's async writer persists the same bytes.
	st, err := store.Open(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	spec := codecSpec()
	eng := &Engine{Workers: 2, BaseSeed: codecSeed, Store: st}
	if _, err := eng.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	for i, out := range cells {
		key, ok := eng.cellDigest(spec.normalized(), out.cfg, "fleet-cell")
		if !ok {
			t.Fatalf("cell %d not addressable", i)
		}
		got, ok := getEntry(st, key)
		if !ok || !bytes.Equal(got, payloads[i]) {
			t.Fatalf("cell %d: stored entry differs from its encoding (ok=%v)", i, ok)
		}
	}
}

// sparseBins encodes (gap, count) pairs as the payload's sparse bin list.
func sparseBins(pairs ...[2]uint64) []byte {
	p := binary.AppendUvarint(nil, uint64(len(pairs)))
	for _, pr := range pairs {
		p = binary.AppendUvarint(p, pr[0])
		p = binary.AppendUvarint(p, pr[1])
	}
	return p
}

// craftEntry lays out a fleet-cell payload field by field, so each test
// case can break exactly one rule.
func craftEntry(lo, hi float64, bins uint32, sparse []byte, n uint64, completed byte) []byte {
	p := appendF64(nil, lo, hi)
	p = binary.LittleEndian.AppendUint32(p, bins)
	p = append(p, sparse...)
	p = appendU64(p, n)
	p = appendF64(p, 30*float64(n), 29, 31)
	p = appendU64(p, n)
	p = appendF64(p, 50*float64(n), 45, 55)
	p = appendU64(p, 1, n)
	p = appendF64(p, 0.5)
	p = append(p, completed)
	p = appendF64(p, 10, 20, 2, 0.1, 0.2, 31, 55)
	return appendU64(p, n)
}

// TestCellEntryRejects: the strict decoder refuses each malformed payload
// by the rule it breaks.
func TestCellEntryRejects(t *testing.T) {
	good := sparseBins([2]uint64{277, 2}, [2]uint64{3, 1}) // bins 276 and 279
	if err := decodeCellEntry(craftEntry(skinLoC, skinHiC, skinBins, good, 3, 1), new(cellSums)); err != nil {
		t.Fatalf("well-formed crafted entry rejected: %v", err)
	}
	cases := map[string][]byte{
		"wrong-lo":           craftEntry(skinLoC-1, skinHiC, skinBins, good, 3, 1),
		"wrong-hi":           craftEntry(skinLoC, skinHiC+1, skinBins, good, 3, 1),
		"wrong-bin-count":    craftEntry(skinLoC, skinHiC, skinBins+1, good, 3, 1),
		"index-out-of-range": craftEntry(skinLoC, skinHiC, skinBins, sparseBins([2]uint64{skinBins + 1, 3}), 3, 1),
		"index-repeated":     craftEntry(skinLoC, skinHiC, skinBins, sparseBins([2]uint64{1, 2}, [2]uint64{0, 1}), 3, 1),
		"zero-count":         craftEntry(skinLoC, skinHiC, skinBins, sparseBins([2]uint64{1, 3}, [2]uint64{1, 0}), 3, 1),
		"bins-below-n":       craftEntry(skinLoC, skinHiC, skinBins, good, 4, 1),
		"bins-above-n":       craftEntry(skinLoC, skinHiC, skinBins, good, 2, 1),
		"count-overflow":     craftEntry(skinLoC, skinHiC, skinBins, sparseBins([2]uint64{1, math.MaxUint64}, [2]uint64{1, 4}), 3, 1),
		"completed-2":        craftEntry(skinLoC, skinHiC, skinBins, good, 3, 2),
		// The count 3 as a two-byte uvarint: decodable, but not minimal.
		"non-minimal-uvarint": craftEntry(skinLoC, skinHiC, skinBins, []byte{1, 1, 0x83, 0x00}, 3, 1),
	}
	for name, p := range cases {
		if err := decodeCellEntry(p, new(cellSums)); err == nil {
			t.Errorf("%s: malformed entry accepted", name)
		}
	}
}
