package fleet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// The fleet-cell store payload is the compact form of one cell (cellSums):
// its metrics and the aggregator state the group merge consumes —
// histogram bins and moments — because caching anything less could not
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

// appendCellEntry appends the fleet-cell payload of cell s to dst.
func appendCellEntry(dst []byte, s *cellSums) []byte {
	dst = appendF64(dst, skinLoC, skinHiC)
	dst = binary.LittleEndian.AppendUint32(dst, skinBins)
	dst = append(dst, s.bins...)
	dst = appendU64(dst, s.skinM.N)
	dst = appendF64(dst, s.skinM.Sum, s.skinM.MinV, s.skinM.MaxV)
	dst = appendU64(dst, s.coreM.N)
	dst = appendF64(dst, s.coreM.Sum, s.coreM.MinV, s.coreM.MaxV)
	dst = appendU64(dst, s.overN, s.n)
	dst = appendF64(dst, s.freqFrac)
	m := &s.metrics
	completed := byte(0)
	if m.Completed {
		completed = 1
	}
	dst = append(dst, completed)
	dst = appendF64(dst, m.ExecS, m.EnergyJ, m.AvgPowerW, m.ThrottleFrac, m.PerfLossFrac, m.MaxSkinC, m.MaxCoreC)
	return appendU64(dst, m.Samples)
}

// appendSkinBins appends the sparse bins section of a dense skin histogram:
// the count of non-zero bins, then each one's index gap and count.
func appendSkinBins(dst []byte, bins []uint64) []byte {
	nz := 0
	for _, c := range bins {
		if c != 0 {
			nz++
		}
	}
	dst = binary.AppendUvarint(dst, uint64(nz))
	prev := -1
	for i, c := range bins {
		if c != 0 {
			dst = binary.AppendUvarint(dst, uint64(i-prev))
			dst = binary.AppendUvarint(dst, c)
			prev = i
		}
	}
	return dst
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

// decodeCellEntry decodes a fleet-cell payload into s, which must be
// empty (fresh or reset). On error s holds partial state and must be
// reset before reuse.
func decodeCellEntry(p []byte, s *cellSums) error {
	r := entryReader{p: p}
	lo, hi, bins := r.f64(), r.f64(), r.u32()
	if r.err == nil && (lo != skinLoC || hi != skinHiC || bins != skinBins) {
		return fmt.Errorf("fleet: fleet-cell entry histogram [%g, %g) x %d, want [%d, %d) x %d", lo, hi, bins, skinLoC, skinHiC, skinBins)
	}
	start := len(p) - len(r.p)
	nz := r.uvarint()
	var sum uint64
	idx := -1
	for k := uint64(0); k < nz && r.err == nil; k++ {
		gap, c := r.uvarint(), r.uvarint()
		switch {
		case r.err != nil:
		case gap == 0:
			r.fail(errors.New("fleet: fleet-cell bin indices not strictly increasing"))
		case gap >= uint64(skinBins-idx):
			r.fail(errors.New("fleet: fleet-cell bin index out of range"))
		case c == 0:
			r.fail(errors.New("fleet: fleet-cell entry lists an empty bin"))
		case sum+c < sum:
			r.fail(errors.New("fleet: fleet-cell bin counts overflow"))
		default:
			idx += int(gap)
			sum += c
		}
	}
	if r.err == nil {
		s.bins = append(s.bins, p[start:len(p)-len(r.p)]...)
	}
	s.skinM.N = r.u64()
	s.skinM.Sum, s.skinM.MinV, s.skinM.MaxV = r.f64(), r.f64(), r.f64()
	s.coreM.N = r.u64()
	s.coreM.Sum, s.coreM.MinV, s.coreM.MaxV = r.f64(), r.f64(), r.f64()
	s.overN, s.n = r.u64(), r.u64()
	s.freqFrac = r.f64()
	m := &s.metrics
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
	case sum != s.n:
		return fmt.Errorf("fleet: fleet-cell bins sum to %d, want n = %d", sum, s.n)
	}
	return nil
}
