// Package platform models the simulated SoCs as data: a registry of
// platform descriptors (clusters and core counts, DVFS ladders, power
// domains, ground-truth power constants, RC thermal topology, fan model)
// plus the runtime Chip/Cluster state machine built from one.
//
// The default descriptor is the Samsung Exynos 5410 MPSoC on the
// Odroid-XU+E board used by the paper (§6.1.1): a big cluster of four ARM
// Cortex-A15 cores, a little cluster of four Cortex-A7 cores, a GPU, and
// memory; its frequency tables reproduce Tables 6.1-6.3 verbatim. Two more
// profiles (a fanless single-cluster phone SoC and an 8-big-core tablet)
// ship in the registry; see docs/platforms.md for how to add one.
//
// The chip model captures exactly the degrees of freedom the DTPM
// algorithm controls (§1, §5.2):
//
//   - which CPU cluster is active (cluster migration: big OR little),
//   - how many cores of the active cluster are online (hotplug),
//   - the cluster frequency (all cores in a cluster share one frequency),
//   - the GPU frequency.
package platform

import (
	"fmt"
	"sort"
)

// Resource identifies one of the four power domains whose power the paper's
// thermal model takes as input (Equation 5.3: P = [P_big, P_little, P_gpu,
// P_mem]).
type Resource int

// Power-domain indices, in the order of the paper's P vector (Eq. 5.3).
const (
	Big Resource = iota
	Little
	GPU
	Mem
	NumResources
)

// String returns the conventional short name of the resource.
func (r Resource) String() string {
	switch r {
	case Big:
		return "big(A15)"
	case Little:
		return "little(A7)"
	case GPU:
		return "gpu"
	case Mem:
		return "mem"
	default:
		return fmt.Sprintf("resource(%d)", int(r))
	}
}

// KHz is a frequency in kilohertz, matching the units used by cpufreq
// frequency tables on the actual platform.
type KHz int64

// MHz returns the frequency in megahertz.
func (f KHz) MHz() float64 { return float64(f) / 1e3 }

// GHz returns the frequency in gigahertz.
func (f KHz) GHz() float64 { return float64(f) / 1e6 }

// Hz returns the frequency in hertz.
func (f KHz) Hz() float64 { return float64(f) * 1e3 }

// MHzToKHz converts megahertz to KHz.
func MHzToKHz(mhz float64) KHz { return KHz(mhz * 1e3) }

// OPP is one operating performance point: a frequency step and the supply
// voltage the PMIC applies at that step.
type OPP struct {
	Freq KHz
	Volt float64 // volts
}

// Domain is a DVFS domain: an ordered table of OPPs shared by all units in
// the domain (the clusters are symmetric: every core in a cluster runs at the
// same frequency, §6.1.1).
type Domain struct {
	Name string
	OPPs []OPP // ascending by frequency
}

// NumOPPs returns the number of frequency steps.
func (d *Domain) NumOPPs() int { return len(d.OPPs) }

// MinFreq returns the lowest available frequency.
func (d *Domain) MinFreq() KHz { return d.OPPs[0].Freq }

// MaxFreq returns the highest available frequency.
func (d *Domain) MaxFreq() KHz { return d.OPPs[len(d.OPPs)-1].Freq }

// VoltAt returns the supply voltage for frequency f. f must be a table entry.
func (d *Domain) VoltAt(f KHz) (float64, error) {
	for _, o := range d.OPPs {
		if o.Freq == f {
			return o.Volt, nil
		}
	}
	return 0, fmt.Errorf("platform: %s has no OPP at %d kHz", d.Name, f)
}

// IndexOf returns the table index of frequency f, or -1 if absent.
func (d *Domain) IndexOf(f KHz) int {
	for i, o := range d.OPPs {
		if o.Freq == f {
			return i
		}
	}
	return -1
}

// FloorFreq returns the highest table frequency <= f, or the minimum
// frequency when f is below the table.
func (d *Domain) FloorFreq(f KHz) KHz {
	best := d.OPPs[0].Freq
	for _, o := range d.OPPs {
		if o.Freq <= f {
			best = o.Freq
		}
	}
	return best
}

// CeilFreq returns the lowest table frequency >= f, or the maximum frequency
// when f is above the table.
func (d *Domain) CeilFreq(f KHz) KHz {
	for _, o := range d.OPPs {
		if o.Freq >= f {
			return o.Freq
		}
	}
	return d.MaxFreq()
}

// StepDown returns the next lower table frequency, clamping at the minimum.
func (d *Domain) StepDown(f KHz) KHz {
	i := d.IndexOf(f)
	if i <= 0 {
		return d.MinFreq()
	}
	return d.OPPs[i-1].Freq
}

// StepUp returns the next higher table frequency, clamping at the maximum.
func (d *Domain) StepUp(f KHz) KHz {
	i := d.IndexOf(f)
	if i < 0 || i == len(d.OPPs)-1 {
		return d.MaxFreq()
	}
	return d.OPPs[i+1].Freq
}

// ClusterKind distinguishes the two CPU clusters of the big.LITTLE pair.
type ClusterKind int

// The two cluster kinds.
const (
	BigCluster ClusterKind = iota
	LittleCluster
)

func (k ClusterKind) String() string {
	if k == BigCluster {
		return "big"
	}
	return "little"
}

// CoresPerCluster is the number of CPU cores in each Exynos 5410 cluster
// (the default platform). Other descriptors declare their own counts; code
// must size per-core structures from the cluster or descriptor, never from
// this constant.
const CoresPerCluster = 4

// Cluster models one CPU cluster: a DVFS domain plus per-core hotplug state.
type Cluster struct {
	Kind   ClusterKind
	Domain *Domain
	// IPC is the relative instructions-per-cycle factor used by the
	// performance model. The A15 is the 1.0 reference; the A7 retires
	// roughly 40% as much work per cycle (the paper measures a 10x dynamic
	// performance range across the whole platform, §1).
	IPC float64

	freq   KHz
	online []bool
}

// NewCluster returns a cluster of `cores` cores, all online, running at the
// minimum frequency.
func NewCluster(kind ClusterKind, domain *Domain, ipc float64, cores int) *Cluster {
	c := &Cluster{}
	c.init(kind, domain, ipc, make([]bool, cores))
	return c
}

// init fills a cluster in place (online is the caller-provided hotplug
// backing, one entry per core, set all-online here).
func (c *Cluster) init(kind ClusterKind, domain *Domain, ipc float64, online []bool) {
	*c = Cluster{Kind: kind, Domain: domain, IPC: ipc, freq: domain.MinFreq(), online: online}
	for i := range c.online {
		c.online[i] = true
	}
}

// NumCores returns the cluster's total core count (online or not).
func (c *Cluster) NumCores() int { return len(c.online) }

// Freq returns the cluster's current frequency.
func (c *Cluster) Freq() KHz { return c.freq }

// SetFreq sets the cluster frequency; f must be a table entry.
func (c *Cluster) SetFreq(f KHz) error {
	if c.Domain.IndexOf(f) < 0 {
		return fmt.Errorf("platform: %s cluster: invalid frequency %d kHz", c.Kind, f)
	}
	c.freq = f
	return nil
}

// Volt returns the supply voltage at the current frequency.
func (c *Cluster) Volt() float64 {
	v, err := c.Domain.VoltAt(c.freq)
	if err != nil {
		panic(err) // unreachable: freq is always a table entry
	}
	return v
}

// OnlineCount returns the number of online cores.
func (c *Cluster) OnlineCount() int {
	n := 0
	for _, on := range c.online {
		if on {
			n++
		}
	}
	return n
}

// CoreOnline reports whether core i is online.
func (c *Cluster) CoreOnline(i int) bool { return c.online[i] }

// SetCoreOnline hotplugs core i. Turning off the last online core fails:
// the kernel always keeps at least one CPU online.
func (c *Cluster) SetCoreOnline(i int, on bool) error {
	if i < 0 || i >= len(c.online) {
		return fmt.Errorf("platform: core index %d out of range", i)
	}
	if !on && c.OnlineCount() == 1 && c.online[i] {
		return fmt.Errorf("platform: cannot offline the last core of the %s cluster", c.Kind)
	}
	c.online[i] = on
	return nil
}

// OnlineAll brings every core of the cluster online.
func (c *Cluster) OnlineAll() {
	for i := range c.online {
		c.online[i] = true
	}
}

// Chip is one simulated SoC instance built from a platform descriptor.
// Only one CPU cluster is active at a time (cluster migration, §6.1.1:
// "The Odroid platform can activate only the big or the little cluster at
// a given time"); single-cluster platforms have a nil LittleCluster and
// the big cluster is always active.
type Chip struct {
	Desc          *Descriptor
	BigCluster    *Cluster
	LittleCluster *Cluster // nil on single-cluster platforms
	GPUDomain     *Domain

	active  ClusterKind
	gpuFreq KHz

	// Cluster storage: BigCluster/LittleCluster point here, so a chip is
	// two allocations (itself + one hotplug backing) regardless of core
	// counts.
	bigStore, littleStore Cluster
}

// NewChip returns the default platform (Exynos 5410) in its boot state:
// big cluster active at its maximum frequency, all cores online, GPU at
// its minimum frequency.
func NewChip() *Chip { return NewChipFor(Default()) }

// NewChipFor builds a chip from a descriptor, in the boot state. The
// descriptor is aliased (DVFS tables are shared, never copied): it must be
// treated as immutable.
func NewChipFor(d *Descriptor) *Chip {
	c := &Chip{Desc: d, GPUDomain: &d.GPU, active: BigCluster}
	nLittle := 0
	if d.Little != nil {
		nLittle = d.Little.Cores
	}
	online := make([]bool, d.Big.Cores+nLittle)
	c.bigStore.init(BigCluster, &d.Big.Domain, d.Big.IPC, online[:d.Big.Cores:d.Big.Cores])
	c.BigCluster = &c.bigStore
	if d.Little != nil {
		c.littleStore.init(LittleCluster, &d.Little.Domain, d.Little.IPC, online[d.Big.Cores:])
		c.LittleCluster = &c.littleStore
	}
	c.gpuFreq = c.GPUDomain.MinFreq()
	if err := c.BigCluster.SetFreq(c.BigCluster.Domain.MaxFreq()); err != nil {
		panic(err)
	}
	return c
}

// HasLittle reports whether the chip has a companion cluster to migrate to.
func (c *Chip) HasLittle() bool { return c.LittleCluster != nil }

// ActiveKind returns which cluster is currently active.
func (c *Chip) ActiveKind() ClusterKind { return c.active }

// Active returns the active cluster.
func (c *Chip) Active() *Cluster {
	if c.active == BigCluster || c.LittleCluster == nil {
		return c.BigCluster
	}
	return c.LittleCluster
}

// SwitchCluster migrates execution to the other cluster kind. The newly
// active cluster comes up with all cores online at its minimum frequency
// (the conservative post-migration state); the old cluster powers down.
// Switching to the already-active kind — or to a cluster the platform does
// not have — is a no-op.
func (c *Chip) SwitchCluster(kind ClusterKind) {
	if kind == c.active {
		return
	}
	if kind == LittleCluster && c.LittleCluster == nil {
		return
	}
	c.active = kind
	target := c.Active()
	target.OnlineAll()
	if err := target.SetFreq(target.Domain.MinFreq()); err != nil {
		panic(err)
	}
}

// GPUFreq returns the current GPU frequency.
func (c *Chip) GPUFreq() KHz { return c.gpuFreq }

// SetGPUFreq sets the GPU frequency; f must be a table entry.
func (c *Chip) SetGPUFreq(f KHz) error {
	if c.GPUDomain.IndexOf(f) < 0 {
		return fmt.Errorf("platform: invalid GPU frequency %d kHz", f)
	}
	c.gpuFreq = f
	return nil
}

// GPUVolt returns the GPU supply voltage at the current frequency.
func (c *Chip) GPUVolt() float64 {
	v, err := c.GPUDomain.VoltAt(c.gpuFreq)
	if err != nil {
		panic(err)
	}
	return v
}

// Snapshot captures the chip configuration at an instant; the simulator logs
// one per control interval.
type Snapshot struct {
	Active      ClusterKind
	BigFreq     KHz
	LittleFreq  KHz
	GPUFreq     KHz
	OnlineCores int
}

// Snapshot returns the current configuration. LittleFreq is zero on
// single-cluster platforms.
func (c *Chip) Snapshot() Snapshot {
	s := Snapshot{
		Active:      c.active,
		BigFreq:     c.BigCluster.Freq(),
		GPUFreq:     c.gpuFreq,
		OnlineCores: c.Active().OnlineCount(),
	}
	if c.LittleCluster != nil {
		s.LittleFreq = c.LittleCluster.Freq()
	}
	return s
}

// BigDomain returns the big (A15) cluster DVFS table: the nine steps of
// Table 6.1 with a representative Exynos 5410 voltage ladder.
func BigDomain() *Domain {
	return &Domain{
		Name: "bigA15",
		OPPs: []OPP{
			{Freq: 800000, Volt: 0.925},
			{Freq: 900000, Volt: 0.9625},
			{Freq: 1000000, Volt: 1.0},
			{Freq: 1100000, Volt: 1.0375},
			{Freq: 1200000, Volt: 1.075},
			{Freq: 1300000, Volt: 1.125},
			{Freq: 1400000, Volt: 1.1625},
			{Freq: 1500000, Volt: 1.2125},
			{Freq: 1600000, Volt: 1.25},
		},
	}
}

// LittleDomain returns the little (A7) cluster DVFS table: the eight steps
// of Table 6.2.
func LittleDomain() *Domain {
	return &Domain{
		Name: "littleA7",
		OPPs: []OPP{
			{Freq: 500000, Volt: 0.9},
			{Freq: 600000, Volt: 0.925},
			{Freq: 700000, Volt: 0.95},
			{Freq: 800000, Volt: 0.975},
			{Freq: 900000, Volt: 1.0},
			{Freq: 1000000, Volt: 1.05},
			{Freq: 1100000, Volt: 1.1},
			{Freq: 1200000, Volt: 1.15},
		},
	}
}

// GPUDomainTable returns the GPU (PowerVR SGX544MP3) DVFS table: the five
// steps of Table 6.3.
func GPUDomainTable() *Domain {
	return &Domain{
		Name: "gpu",
		OPPs: []OPP{
			{Freq: 177000, Volt: 0.85},
			{Freq: 266000, Volt: 0.9},
			{Freq: 350000, Volt: 0.95},
			{Freq: 480000, Volt: 1.025},
			{Freq: 533000, Volt: 1.075},
		},
	}
}

// FreqTableMHz returns the domain's frequency steps in MHz, ascending; this
// regenerates Tables 6.1-6.3 of the paper.
func FreqTableMHz(d *Domain) []float64 {
	out := make([]float64, len(d.OPPs))
	for i, o := range d.OPPs {
		out[i] = o.Freq.MHz()
	}
	sort.Float64s(out)
	return out
}

// Frequencies returns the domain's frequency steps in kHz, ascending.
func (d *Domain) Frequencies() []KHz {
	out := make([]KHz, len(d.OPPs))
	for i, o := range d.OPPs {
		out[i] = o.Freq
	}
	return out
}
