// Package mat provides dense linear-algebra primitives used by the
// system-identification and thermal-prediction code: matrices, vectors,
// LU-based solving and QR least squares.
//
// The state matrices are small (order 4 or 8), but the thermal
// identification regressions are not: one PRBS experiment gives 10,500
// regression rows, with a column per hotspot and per excited power input,
// solved for every hotspot row. LeastSquaresMulti therefore factors such a
// matrix once for all its right-hand sides and keeps R column-major;
// everything else favours clarity and numerical robustness over asymptotic
// performance.
package mat

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// ErrSingular is returned when a solve encounters a (numerically) singular matrix.
var ErrSingular = errors.New("mat: matrix is singular")

// ErrShape is returned when operand dimensions are incompatible.
var ErrShape = errors.New("mat: dimension mismatch")

// Mat is a dense row-major matrix.
type Mat struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// New returns a zero matrix with the given shape.
func New(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic("mat: negative dimension")
	}
	return &Mat{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices. All rows must have equal length.
func FromRows(rows [][]float64) *Mat {
	if len(rows) == 0 {
		return New(0, 0)
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("mat: ragged rows")
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Mat {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns element (i, j).
func (m *Mat) At(i, j int) float64 {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %dx%d", i, j, m.Rows, m.Cols))
	}
	return m.Data[i*m.Cols+j]
}

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, v float64) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %dx%d", i, j, m.Rows, m.Cols))
	}
	m.Data[i*m.Cols+j] = v
}

// Clone returns a deep copy.
func (m *Mat) Clone() *Mat {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// T returns the transpose as a new matrix.
func (m *Mat) T() *Mat {
	t := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Add returns m + b.
func (m *Mat) Add(b *Mat) *Mat {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic(ErrShape)
	}
	c := m.Clone()
	for i := range c.Data {
		c.Data[i] += b.Data[i]
	}
	return c
}

// Mul returns the matrix product m*b.
func (m *Mat) Mul(b *Mat) *Mat {
	if m.Cols != b.Rows {
		panic(ErrShape)
	}
	c := New(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				c.Data[i*c.Cols+j] += a * b.At(k, j)
			}
		}
	}
	return c
}

// MulVec returns the matrix-vector product m*v.
func (m *Mat) MulVec(v []float64) []float64 {
	if m.Cols != len(v) {
		panic(ErrShape)
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, a := range row {
			s += a * v[j]
		}
		out[i] = s
	}
	return out
}

// MulVecInto computes the matrix-vector product m*v into dst and returns
// dst. It performs no allocation; dst must have length m.Rows and must not
// alias v. The accumulation order matches MulVec exactly, so results are
// bit-identical to the allocating form.
func (m *Mat) MulVecInto(dst, v []float64) []float64 {
	if m.Cols != len(v) || m.Rows != len(dst) {
		panic(ErrShape)
	}
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, a := range row {
			s += a * v[j]
		}
		dst[i] = s
	}
	return dst
}

// String renders the matrix for debugging.
func (m *Mat) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		b.WriteString("[")
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%9.5f", m.At(i, j))
		}
		b.WriteString("]\n")
	}
	return b.String()
}

// SolveLU solves A x = b for square A using Gaussian elimination with
// partial pivoting. A and b are not modified.
func SolveLU(a *Mat, b []float64) ([]float64, error) {
	n := a.Rows
	if a.Cols != n || len(b) != n {
		return nil, ErrShape
	}
	// Working copies.
	m := a.Clone()
	x := make([]float64, n)
	copy(x, b)

	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for col := 0; col < n; col++ {
		// Pivot.
		p := col
		best := math.Abs(m.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m.At(r, col)); v > best {
				best, p = v, r
			}
		}
		if best < 1e-14 {
			return nil, ErrSingular
		}
		if p != col {
			for j := 0; j < n; j++ {
				vi, vj := m.At(col, j), m.At(p, j)
				m.Set(col, j, vj)
				m.Set(p, j, vi)
			}
			x[col], x[p] = x[p], x[col]
		}
		// Eliminate.
		piv := m.At(col, col)
		for r := col + 1; r < n; r++ {
			f := m.At(r, col) / piv
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				m.Set(r, j, m.At(r, j)-f*m.At(col, j))
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= m.At(i, j) * x[j]
		}
		x[i] = s / m.At(i, i)
	}
	return x, nil
}

// LeastSquares solves min_x ||A x - b||_2 for a tall (or square) matrix A
// using Householder QR. It returns the coefficient vector of length A.Cols.
// It is LeastSquaresMulti with one right-hand side.
func LeastSquares(a *Mat, b []float64) ([]float64, error) {
	x, err := LeastSquaresMulti(a, [][]float64{b})
	if err != nil {
		return nil, err
	}
	return x[0], nil
}

// LeastSquaresMulti solves min_x ||A x - b||_2 for every right-hand side b
// in bs, factoring the tall (or square) matrix A once by Householder QR and
// applying each reflection to every b as it goes. It returns one
// coefficient vector of length A.Cols per right-hand side. The R update and
// each b update are independent, so every solution is bit-identical to
// factoring A afresh for that b alone.
func LeastSquaresMulti(a *Mat, bs [][]float64) ([][]float64, error) {
	mRows, nCols := a.Rows, a.Cols
	for _, b := range bs {
		if len(b) != mRows {
			return nil, ErrShape
		}
	}
	if mRows < nCols {
		return nil, fmt.Errorf("mat: underdetermined system %dx%d: %w", mRows, nCols, ErrShape)
	}
	// R is stored column-major (column j is r[j*mRows:(j+1)*mRows]) so each
	// reflection walks contiguous memory; ys holds the right-hand sides.
	slab := make([]float64, (nCols+len(bs)+1)*mRows)
	r, ys, v := slab[:nCols*mRows], slab[nCols*mRows:(nCols+len(bs))*mRows], slab[(nCols+len(bs))*mRows:]
	for i := 0; i < mRows; i++ {
		for j, x := range a.Data[i*nCols : (i+1)*nCols] {
			r[j*mRows+i] = x
		}
	}
	col := func(s []float64, j int) []float64 { return s[j*mRows : (j+1)*mRows : (j+1)*mRows] }
	for q, b := range bs {
		copy(col(ys, q), b)
	}

	for k := 0; k < nCols; k++ {
		// Householder vector for column k, rows k..m-1.
		ck := col(r, k)
		normX := 0.0
		for _, x := range ck[k:] {
			normX += x * x
		}
		normX = math.Sqrt(normX)
		if normX < 1e-300 {
			return nil, ErrSingular
		}
		alpha := -math.Copysign(normX, ck[k])
		v[k] = ck[k] - alpha
		copy(v[k+1:], ck[k+1:])
		vtv := 0.0
		for _, x := range v[k:] {
			vtv += x * x
		}
		if vtv < 1e-300 {
			continue // column already triangular
		}
		// Apply H = I - 2 v v^T / (v^T v) to R (columns k..n-1) and to
		// every y.
		for j := k; j < nCols; j++ {
			reflect(v[k:], col(r, j)[k:], vtv)
		}
		for q := range bs {
			reflect(v[k:], col(ys, q)[k:], vtv)
		}
	}
	// Back substitution on the triangular systems R x = y.
	xs := make([][]float64, len(bs))
	xslab := make([]float64, len(bs)*nCols)
	for q := range bs {
		y := col(ys, q)
		x := xslab[q*nCols : (q+1)*nCols : (q+1)*nCols]
		for i := nCols - 1; i >= 0; i-- {
			s := y[i]
			for j := i + 1; j < nCols; j++ {
				s -= r[j*mRows+i] * x[j]
			}
			d := r[i*mRows+i]
			if math.Abs(d) < 1e-12 {
				return nil, ErrSingular
			}
			x[i] = s / d
		}
		xs[q] = x
	}
	return xs, nil
}

// reflect applies the Householder reflection H = I - 2 v v^T / vtv to x
// (len(x) == len(v)), summing the dot product in ascending order.
func reflect(v, x []float64, vtv float64) {
	x = x[:len(v)]
	dot := 0.0
	for i, vi := range v {
		dot += vi * x[i]
	}
	f := 2 * dot / vtv
	for i, vi := range v {
		x[i] -= f * vi
	}
}

// AddVec returns a + b element-wise.
func AddVec(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic(ErrShape)
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// ScaleVec returns s*a.
func ScaleVec(s float64, a []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = s * a[i]
	}
	return out
}

// DominantEigenvalue estimates the dominant eigenvalue magnitude of a square
// matrix using power iteration. Returns 0 for the zero matrix.
func DominantEigenvalue(m *Mat, iters int) float64 {
	if m.Rows != m.Cols {
		panic(ErrShape)
	}
	n := m.Rows
	if n == 0 {
		return 0
	}
	v := make([]float64, n)
	w := make([]float64, n)
	for i := range v {
		v[i] = 1 / math.Sqrt(float64(n))
	}
	lambda := 0.0
	for it := 0; it < iters; it++ {
		m.MulVecInto(w, v)
		norm := 0.0
		for _, x := range w {
			norm += x * x
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			return 0
		}
		lambda = norm
		for i := range w {
			v[i] = w[i] / norm
		}
	}
	return lambda
}
