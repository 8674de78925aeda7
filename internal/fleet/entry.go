package fleet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// The fleet-cell store payload is the full aggregator state of one cell
// plus its metrics — not just the metrics, because the group merge
// consumes histogram bins and moments, and caching anything less could not
// rebuild a warm report byte-identical to a cold one. It is a fixed
// little-endian binary layout; every float travels as its raw
// math.Float64bits, so the round trip is bit-exact:
//
//	skin histogram shape   lo, hi float64; bins uint32
//	skin bins (sparse)     uvarint count of non-zero bins, then per bin a
//	                       uvarint index gap (index − previous index, the
//	                       first measured from −1) and a uvarint count
//	skin moments           N uint64; Sum, MinV, MaxV float64
//	core moments           N uint64; Sum, MinV, MaxV float64
//	counters               overN, n uint64
//	freqFrac               float64
//	metrics                Completed byte (0 or 1); ExecS, EnergyJ,
//	                       AvgPowerW, ThrottleFrac, PerfLossFrac, MaxSkinC,
//	                       MaxCoreC float64; Samples uint64
//
// The decoder is strict: the encoding of a given state is unique, and
// anything else — a foreign shape, a bin index out of range or out of
// order, a zero or non-minimal count, bins that do not sum to n, a
// Completed byte other than 0 or 1, a short payload or trailing bytes —
// is rejected, so a decoded payload always re-encodes to the same bytes.

// appendCellEntry appends the fleet-cell payload of aggregator a and its
// metrics m to dst.
func appendCellEntry(dst []byte, a *cellAgg, m *CellMetrics) []byte {
	h := a.skin
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(h.Lo))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(h.Hi))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(h.Bins)))
	nz := 0
	for _, c := range h.Bins {
		if c != 0 {
			nz++
		}
	}
	dst = binary.AppendUvarint(dst, uint64(nz))
	prev := -1
	for i, c := range h.Bins {
		if c != 0 {
			dst = binary.AppendUvarint(dst, uint64(i-prev))
			dst = binary.AppendUvarint(dst, c)
			prev = i
		}
	}
	dst = appendU64(dst, a.skinM.N)
	dst = appendF64(dst, a.skinM.Sum, a.skinM.MinV, a.skinM.MaxV)
	dst = appendU64(dst, a.coreM.N)
	dst = appendF64(dst, a.coreM.Sum, a.coreM.MinV, a.coreM.MaxV)
	dst = appendU64(dst, a.overN, a.n)
	dst = appendF64(dst, a.freqFrac)
	completed := byte(0)
	if m.Completed {
		completed = 1
	}
	dst = append(dst, completed)
	dst = appendF64(dst, m.ExecS, m.EnergyJ, m.AvgPowerW, m.ThrottleFrac, m.PerfLossFrac, m.MaxSkinC, m.MaxCoreC)
	return appendU64(dst, m.Samples)
}

func appendU64(dst []byte, vs ...uint64) []byte {
	for _, v := range vs {
		dst = binary.LittleEndian.AppendUint64(dst, v)
	}
	return dst
}

func appendF64(dst []byte, vs ...float64) []byte {
	for _, v := range vs {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// errShortEntry rejects a payload that ends before its layout does.
var errShortEntry = errors.New("fleet: short fleet-cell entry")

// entryReader consumes a payload front to back; the first failure sticks
// and every later read returns zero.
type entryReader struct {
	p   []byte
	err error
}

func (r *entryReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// take consumes the next n bytes; past the end it fails the read
// and yields zeros.
func (r *entryReader) take(n int) []byte {
	if len(r.p) < n {
		r.fail(errShortEntry)
		r.p = nil
		return make([]byte, n)
	}
	b := r.p[:n]
	r.p = r.p[n:]
	return b
}

func (r *entryReader) u64() uint64  { return binary.LittleEndian.Uint64(r.take(8)) }
func (r *entryReader) f64() float64 { return math.Float64frombits(r.u64()) }
func (r *entryReader) u32() uint32  { return binary.LittleEndian.Uint32(r.take(4)) }
func (r *entryReader) u8() byte     { return r.take(1)[0] }

// uvarint reads one minimally encoded uvarint: a multi-byte encoding
// whose last byte is zero has a shorter form and is rejected.
func (r *entryReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.p)
	if n <= 0 || (n > 1 && r.p[n-1] == 0) {
		r.fail(errors.New("fleet: truncated, overlong or non-minimal uvarint in fleet-cell entry"))
		r.p = nil
		return 0
	}
	r.p = r.p[n:]
	return v
}

// decodeCellEntry decodes a fleet-cell payload into a, which must be a
// zeroed aggregator of the skin histogram's shape, and m. On error a and
// m hold partial state and must be discarded (or reset).
func decodeCellEntry(p []byte, a *cellAgg, m *CellMetrics) error {
	r := entryReader{p: p}
	h := a.skin
	lo, hi, bins := r.f64(), r.f64(), r.u32()
	if r.err == nil && (lo != h.Lo || hi != h.Hi || int(bins) != len(h.Bins)) {
		return fmt.Errorf("fleet: fleet-cell entry histogram [%g, %g) x %d, want [%g, %g) x %d", lo, hi, bins, h.Lo, h.Hi, len(h.Bins))
	}
	nz := r.uvarint()
	var sum uint64
	idx := -1
	for k := uint64(0); k < nz && r.err == nil; k++ {
		gap, c := r.uvarint(), r.uvarint()
		switch {
		case r.err != nil:
		case gap == 0:
			r.fail(errors.New("fleet: fleet-cell bin indices not strictly increasing"))
		case gap >= uint64(len(h.Bins)-idx):
			r.fail(errors.New("fleet: fleet-cell bin index out of range"))
		case c == 0:
			r.fail(errors.New("fleet: fleet-cell entry lists an empty bin"))
		case sum+c < sum:
			r.fail(errors.New("fleet: fleet-cell bin counts overflow"))
		default:
			idx += int(gap)
			h.AddBin(idx, c)
			sum += c
		}
	}
	a.skinM.N = r.u64()
	a.skinM.Sum, a.skinM.MinV, a.skinM.MaxV = r.f64(), r.f64(), r.f64()
	a.coreM.N = r.u64()
	a.coreM.Sum, a.coreM.MinV, a.coreM.MaxV = r.f64(), r.f64(), r.f64()
	a.overN, a.n = r.u64(), r.u64()
	a.freqFrac = r.f64()
	switch completed := r.u8(); completed {
	case 0, 1:
		m.Completed = completed == 1
	default:
		r.fail(fmt.Errorf("fleet: fleet-cell completed byte %d, want 0 or 1", completed))
	}
	m.ExecS, m.EnergyJ, m.AvgPowerW = r.f64(), r.f64(), r.f64()
	m.ThrottleFrac, m.PerfLossFrac = r.f64(), r.f64()
	m.MaxSkinC, m.MaxCoreC = r.f64(), r.f64()
	m.Samples = r.u64()
	switch {
	case r.err != nil:
		return r.err
	case len(r.p) != 0:
		return fmt.Errorf("fleet: %d trailing bytes after fleet-cell entry", len(r.p))
	case sum != a.n:
		return fmt.Errorf("fleet: fleet-cell bins sum to %d, want n = %d", sum, a.n)
	}
	return nil
}
