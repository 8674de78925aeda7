package platform

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/thermal"
)

// The platform registry: named, validated, immutable descriptors. The
// simulator stack resolves platforms exclusively through it, so adding a
// device is Register(desc) — no simulation code changes.
var (
	regMu    sync.RWMutex
	registry = map[string]*Descriptor{}
)

// Register validates and adds a descriptor to the registry. Registering a
// name twice is an error (profiles are immutable; replacing one would
// silently change every simulation referencing it).
func Register(d *Descriptor) error {
	if err := d.Validate(); err != nil {
		return err
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[d.Name]; dup {
		return fmt.Errorf("platform: %q already registered", d.Name)
	}
	registry[d.Name] = d
	return nil
}

// MustRegister is Register for package init blocks.
func MustRegister(d *Descriptor) {
	if err := Register(d); err != nil {
		panic(err)
	}
}

// ErrUnknown is the sentinel wrapped by every "no such platform" error, so
// callers can distinguish a bad profile name from a failed run with
// errors.Is instead of string matching.
var ErrUnknown = errors.New("unknown platform")

// ByName returns the registered descriptor. The returned value is shared
// and must be treated as read-only.
func ByName(name string) (*Descriptor, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	if d, ok := registry[name]; ok {
		return d, nil
	}
	return nil, fmt.Errorf("platform: %w %q (known: %v)", ErrUnknown, name, namesLocked())
}

// Names returns the registered platform names: the default platform first,
// then the rest alphabetically — a stable order for CLIs and sweep axes.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return namesLocked()
}

func namesLocked() []string {
	var rest []string
	for n := range registry {
		if n != DefaultName {
			rest = append(rest, n)
		}
	}
	sort.Strings(rest)
	out := make([]string, 0, len(rest)+1)
	if _, ok := registry[DefaultName]; ok {
		out = append(out, DefaultName)
	}
	return append(out, rest...)
}

// Default returns the default (paper evaluation board) descriptor.
func Default() *Descriptor {
	d, err := ByName(DefaultName)
	if err != nil {
		panic(err) // unreachable: registered in init
	}
	return d
}

func init() {
	for _, d := range []*Descriptor{exynos5410(), fanlessPhone(), tablet8Big()} {
		// Materialize the floorplan adjacency once per profile: every
		// thermal.BatchSim built from the descriptor then reuses it instead
		// of regenerating the grid per simulation run.
		if d.Thermal.Neighbors == nil {
			d.Thermal.Neighbors = thermal.GridNeighbors(d.Thermal.Cores())
		}
		MustRegister(d)
	}
}

// exynos5410 is the Samsung Exynos 5410 on the Odroid-XU+E board used by
// the paper (§6.1.1): 4x Cortex-A15 + 4x Cortex-A7 (cluster migration),
// PowerVR SGX544MP3 GPU, LPDDR3, stock 57/63/68 °C fan ladder. Every
// constant reproduces the values the pre-descriptor code hardwired, so this
// profile is bit-identical to the original simulator (the golden traces
// pin it).
func exynos5410() *Descriptor {
	return &Descriptor{
		Name:  DefaultName,
		Title: "Samsung Exynos 5410 / Odroid-XU+E (4x A15 + 4x A7, SGX544MP3)",
		Big:   ClusterSpec{Cores: CoresPerCluster, IPC: 1.0, Domain: *BigDomain()},
		Little: &ClusterSpec{
			Cores: CoresPerCluster, IPC: 0.4, Domain: *LittleDomain(),
		},
		GPU: *GPUDomainTable(),
		Power: PowerSpec{
			Domains: [NumResources]DomainPowerSpec{
				Big: {
					Leak: LeakageSpec{C1: 3.15e-3, C2: -2600, IGate: 0.020, VNom: 1.25},
					// Per core: 0.38 nF -> 0.95 W/core at 1.6 GHz, 1.25 V,
					// 100% util (the quad cluster peaks around 4-4.5 W with
					// leakage, consistent with Fig. 4.8).
					AlphaC: 0.38e-9,
				},
				Little: {
					Leak: LeakageSpec{C1: 0.72e-3, C2: -2600, IGate: 0.012, VNom: 1.15},
					// Per core: ~190 mW at 1.2 GHz, 1.15 V, 100% util.
					AlphaC: 0.12e-9,
				},
				GPU: {
					Leak: LeakageSpec{C1: 1.3e-3, C2: -2600, IGate: 0.010, VNom: 1.075},
					// Total: ~0.5 W at 533 MHz, 1.075 V, full utilization.
					AlphaC: 0.80e-9,
				},
				Mem: {
					// Memory leakage is small and nearly temperature-flat.
					Leak: LeakageSpec{C1: 0.10e-3, C2: -2600, IGate: 0.004, VNom: 1.2},
				},
			},
			MemStatic:      0.12,
			MemPerActivity: 0.22,
			Base:           1.5,
			BaseBoardHeat:  0.45,
			FanMax:         0.55,
		},
		Thermal: thermal.DefaultParams(),
		Fan:     fanSpecPtr(thermal.DefaultFanSpec()),
	}
}

// fanlessPhone is a fanless three-domain phone SoC: one unified quad-core
// CPU cluster (no companion cluster, so only the big, GPU, and memory
// domains draw power), a mid-range GPU, and purely passive cooling through
// the phone body. It exercises the descriptor paths the paper platform
// cannot: no little cluster (the DTPM ladder must stop at core shedding +
// GPU throttling) and no fan (the with-fan policy degenerates to the plain
// governor).
func fanlessPhone() *Descriptor {
	return &Descriptor{
		Name:  "fanless-phone",
		Title: "fanless 3-domain phone SoC (4-core unified cluster, passive cooling)",
		Big: ClusterSpec{
			Cores: 4,
			IPC:   1.1,
			Domain: Domain{
				Name: "phoneCPU",
				OPPs: []OPP{
					{Freq: 600000, Volt: 0.80},
					{Freq: 900000, Volt: 0.85},
					{Freq: 1200000, Volt: 0.90},
					{Freq: 1500000, Volt: 0.97},
					{Freq: 1800000, Volt: 1.05},
					{Freq: 2000000, Volt: 1.1375},
				},
			},
		},
		Little: nil, // single-cluster SoC: 3 active power domains
		GPU: Domain{
			Name: "phoneGPU",
			OPPs: []OPP{
				{Freq: 200000, Volt: 0.80},
				{Freq: 320000, Volt: 0.85},
				{Freq: 450000, Volt: 0.925},
				{Freq: 600000, Volt: 1.0},
			},
		},
		Power: PowerSpec{
			Domains: [NumResources]DomainPowerSpec{
				Big: {
					Leak:   LeakageSpec{C1: 1.9e-3, C2: -2700, IGate: 0.012, VNom: 1.1375},
					AlphaC: 0.26e-9,
				},
				// Little slot unused (no companion cluster).
				GPU: {
					Leak:   LeakageSpec{C1: 0.9e-3, C2: -2700, IGate: 0.008, VNom: 1.0},
					AlphaC: 0.55e-9,
				},
				Mem: {
					Leak: LeakageSpec{C1: 0.08e-3, C2: -2700, IGate: 0.003, VNom: 1.1},
				},
			},
			MemStatic:      0.10,
			MemPerActivity: 0.18,
			Base:           0.9, // phone display + radios, no board periphery
			BaseBoardHeat:  0.30,
			FanMax:         0, // fanless
		},
		Thermal: thermal.Params{
			NumCores:   4,
			CCore:      0.35,
			CBoard:     9.0, // the whole phone body is the heat spreader
			GCoreBoard: 0.095,
			GCoreCore:  0.26,
			CoreAsym:   []float64{1.00, 1.06, 0.95, 1.02},
			GBoardAmb:  0.105, // passive-only, but a larger radiating surface
			Ambient:    25.0,
		},
		Fan: nil, // fanless
	}
}

// tablet8Big is an eight-big-core tablet SoC with a small companion
// cluster and an active-cooling dock fan: the "many hotspots" stress case.
// The thermal network has eight core nodes in a 2x4 grid, so the
// identified model order, the DTPM prediction vectors, and every per-core
// buffer in the stack must size themselves from the descriptor.
func tablet8Big() *Descriptor {
	return &Descriptor{
		Name:  "tablet-8big",
		Title: "8-big-core tablet SoC (8+4 cores, docked fan)",
		Big: ClusterSpec{
			Cores: 8,
			IPC:   1.05,
			Domain: Domain{
				Name: "tabletBig",
				OPPs: []OPP{
					{Freq: 700000, Volt: 0.85},
					{Freq: 900000, Volt: 0.90},
					{Freq: 1100000, Volt: 0.95},
					{Freq: 1300000, Volt: 1.0},
					{Freq: 1500000, Volt: 1.06},
					{Freq: 1700000, Volt: 1.12},
					{Freq: 1900000, Volt: 1.19},
					{Freq: 2100000, Volt: 1.2625},
				},
			},
		},
		Little: &ClusterSpec{
			Cores: 4,
			IPC:   0.45,
			Domain: Domain{
				Name: "tabletLittle",
				OPPs: []OPP{
					{Freq: 400000, Volt: 0.80},
					{Freq: 600000, Volt: 0.85},
					{Freq: 800000, Volt: 0.90},
					{Freq: 1000000, Volt: 0.9625},
					{Freq: 1200000, Volt: 1.05},
				},
			},
		},
		GPU: Domain{
			Name: "tabletGPU",
			OPPs: []OPP{
				{Freq: 250000, Volt: 0.85},
				{Freq: 400000, Volt: 0.90},
				{Freq: 550000, Volt: 0.975},
				{Freq: 700000, Volt: 1.05},
				{Freq: 850000, Volt: 1.125},
			},
		},
		Power: PowerSpec{
			Domains: [NumResources]DomainPowerSpec{
				Big: {
					Leak: LeakageSpec{C1: 4.4e-3, C2: -2550, IGate: 0.028, VNom: 1.2625},
					// Per core: smaller than an A15 (more cores, newer node).
					AlphaC: 0.30e-9,
				},
				Little: {
					Leak:   LeakageSpec{C1: 0.6e-3, C2: -2550, IGate: 0.010, VNom: 1.05},
					AlphaC: 0.10e-9,
				},
				GPU: {
					Leak:   LeakageSpec{C1: 1.6e-3, C2: -2550, IGate: 0.012, VNom: 1.125},
					AlphaC: 0.95e-9,
				},
				Mem: {
					Leak: LeakageSpec{C1: 0.12e-3, C2: -2550, IGate: 0.005, VNom: 1.2},
				},
			},
			MemStatic:      0.16,
			MemPerActivity: 0.26,
			Base:           2.1, // large display
			BaseBoardHeat:  0.55,
			FanMax:         0.70,
		},
		Thermal: thermal.Params{
			NumCores:   8,
			CCore:      0.45,
			CBoard:     7.5,
			GCoreBoard: 0.075,
			GCoreCore:  0.28,
			// 2x4 grid: corner cores couple to the board slightly better
			// than center ones, same floorplan physics as the 2x2 case.
			CoreAsym:    []float64{1.00, 1.05, 0.94, 1.03, 0.97, 1.06, 0.93, 1.01},
			GBoardAmb:   0.085,
			GFanMax:     0.32,
			GFanCoreMax: 0.05,
			Ambient:     30.0,
		},
		Fan: fanSpecPtr(thermal.FanSpec{
			OnTemp: 60, MidTemp: 66, HighTemp: 72,
			IdleSpeed: 0.20, LowSpeed: 0.45, MidSpeed: 0.70,
			Hyst: 3,
		}),
	}
}

func fanSpecPtr(f thermal.FanSpec) *thermal.FanSpec { return &f }
