// Package mat provides small dense linear-algebra primitives used by the
// system-identification and thermal-prediction code: matrices, vectors,
// LU-based solving, QR least squares, and matrix powers.
//
// The matrices involved in the DTPM models are tiny (4x4 state matrices,
// regression problems with a handful of columns), so the implementation
// favours clarity and numerical robustness over asymptotic performance.
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

// Row returns a copy of row i.
func (m *Mat) Row(i int) []float64 {
	out := make([]float64, m.Cols)
	copy(out, m.Data[i*m.Cols:(i+1)*m.Cols])
	return out
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

// Sub returns m - b.
func (m *Mat) Sub(b *Mat) *Mat {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic(ErrShape)
	}
	c := m.Clone()
	for i := range c.Data {
		c.Data[i] -= b.Data[i]
	}
	return c
}

// Scale returns s*m.
func (m *Mat) Scale(s float64) *Mat {
	c := m.Clone()
	for i := range c.Data {
		c.Data[i] *= s
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

// Pow returns m^n for square m and n >= 0 using binary exponentiation.
func (m *Mat) Pow(n int) *Mat {
	if m.Rows != m.Cols {
		panic(ErrShape)
	}
	if n < 0 {
		panic("mat: negative matrix power")
	}
	result := Identity(m.Rows)
	base := m.Clone()
	for n > 0 {
		if n&1 == 1 {
			result = result.Mul(base)
		}
		base = base.Mul(base)
		n >>= 1
	}
	return result
}

// Equal reports whether m and b have the same shape and entries within tol.
func (m *Mat) Equal(b *Mat, tol float64) bool {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		return false
	}
	for i := range m.Data {
		if math.Abs(m.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
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

// Inverse returns A^-1 via column-wise LU solves.
func Inverse(a *Mat) (*Mat, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, ErrShape
	}
	inv := New(n, n)
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		col, err := SolveLU(a, e)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			inv.Set(i, j, col[i])
		}
	}
	return inv, nil
}

// LeastSquares solves min_x ||A x - b||_2 for a tall (or square) matrix A
// using Householder QR. It returns the coefficient vector of length A.Cols.
func LeastSquares(a *Mat, b []float64) ([]float64, error) {
	mRows, nCols := a.Rows, a.Cols
	if len(b) != mRows {
		return nil, ErrShape
	}
	if mRows < nCols {
		return nil, fmt.Errorf("mat: underdetermined system %dx%d: %w", mRows, nCols, ErrShape)
	}
	r := a.Clone()
	y := make([]float64, mRows)
	copy(y, b)

	for k := 0; k < nCols; k++ {
		// Householder vector for column k, rows k..m-1.
		normX := 0.0
		for i := k; i < mRows; i++ {
			normX += r.At(i, k) * r.At(i, k)
		}
		normX = math.Sqrt(normX)
		if normX < 1e-300 {
			return nil, ErrSingular
		}
		alpha := -math.Copysign(normX, r.At(k, k))
		v := make([]float64, mRows)
		v[k] = r.At(k, k) - alpha
		for i := k + 1; i < mRows; i++ {
			v[i] = r.At(i, k)
		}
		vtv := 0.0
		for i := k; i < mRows; i++ {
			vtv += v[i] * v[i]
		}
		if vtv < 1e-300 {
			continue // column already triangular
		}
		// Apply H = I - 2 v v^T / (v^T v) to R (columns k..n-1) and to y.
		for j := k; j < nCols; j++ {
			dot := 0.0
			for i := k; i < mRows; i++ {
				dot += v[i] * r.At(i, j)
			}
			f := 2 * dot / vtv
			for i := k; i < mRows; i++ {
				r.Set(i, j, r.At(i, j)-f*v[i])
			}
		}
		dot := 0.0
		for i := k; i < mRows; i++ {
			dot += v[i] * y[i]
		}
		f := 2 * dot / vtv
		for i := k; i < mRows; i++ {
			y[i] -= f * v[i]
		}
	}
	// Back substitution on the triangular system R x = y.
	x := make([]float64, nCols)
	for i := nCols - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < nCols; j++ {
			s -= r.At(i, j) * x[j]
		}
		d := r.At(i, i)
		if math.Abs(d) < 1e-12 {
			return nil, ErrSingular
		}
		x[i] = s / d
	}
	return x, nil
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
