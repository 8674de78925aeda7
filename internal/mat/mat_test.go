package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// equal reports whether m and b have the same shape and entries within tol.
func equal(m, b *Mat, tol float64) bool {
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

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 {
		t.Fatalf("shape = %dx%d, want 3x4", m.Rows, m.Cols)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("At(%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestSetAt(t *testing.T) {
	m := New(2, 2)
	m.Set(0, 1, 3.5)
	m.Set(1, 0, -2)
	if m.At(0, 1) != 3.5 || m.At(1, 0) != -2 {
		t.Fatalf("round trip failed: %v", m.Data)
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range access")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(0, 0) != 1 || m.At(0, 1) != 2 || m.At(1, 0) != 3 || m.At(1, 1) != 4 {
		t.Fatalf("FromRows mismatch: %v", m.Data)
	}
}

func TestFromRowsEmpty(t *testing.T) {
	m := FromRows(nil)
	if m.Rows != 0 || m.Cols != 0 {
		t.Fatalf("empty FromRows shape = %dx%d", m.Rows, m.Cols)
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestIdentity(t *testing.T) {
	id := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Fatalf("Identity(3)[%d,%d] = %v", i, j, id.At(i, j))
			}
		}
	}
}

func TestRowColClone(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	cl := m.Clone()
	cl.Set(0, 0, 42)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone returned aliased data")
	}
}

func TestTranspose(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("T shape = %dx%d", tr.Rows, tr.Cols)
	}
	if tr.At(2, 1) != 6 || tr.At(0, 1) != 4 {
		t.Fatalf("T values wrong: %v", tr.Data)
	}
}

func TestAddSubScale(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	sum := a.Add(b)
	if sum.At(0, 0) != 6 || sum.At(1, 1) != 12 {
		t.Fatalf("Add wrong: %v", sum.Data)
	}
	// Originals untouched.
	if a.At(0, 0) != 1 || b.At(0, 0) != 5 {
		t.Fatal("Add mutated its operands")
	}
}

func TestMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c := a.Mul(b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if !equal(c, want, 1e-12) {
		t.Fatalf("Mul = %v, want %v", c.Data, want.Data)
	}
}

func TestMulIdentity(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	if !equal(a.Mul(Identity(2)), a, 0) || !equal(Identity(2).Mul(a), a, 0) {
		t.Fatal("identity product changed matrix")
	}
}

func TestMulVec(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	v := a.MulVec([]float64{1, 0, -1})
	if v[0] != -2 || v[1] != -2 {
		t.Fatalf("MulVec = %v", v)
	}
}

func TestMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape panic")
		}
	}()
	New(2, 3).Mul(New(2, 3))
}

func TestSolveLU(t *testing.T) {
	a := FromRows([][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	})
	x, err := SolveLU(a, []float64{8, -11, -3})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if !almostEq(x[i], want[i], 1e-10) {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

func TestSolveLUSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := SolveLU(a, []float64{1, 2}); err == nil {
		t.Fatal("expected singular error")
	}
}

func TestSolveLUDoesNotMutate(t *testing.T) {
	a := FromRows([][]float64{{4, 1}, {1, 3}})
	b := []float64{1, 2}
	orig := a.Clone()
	if _, err := SolveLU(a, b); err != nil {
		t.Fatal(err)
	}
	if !equal(a, orig, 0) || b[0] != 1 || b[1] != 2 {
		t.Fatal("SolveLU mutated its inputs")
	}
}

func TestLeastSquaresExact(t *testing.T) {
	// Square full-rank system: least squares == exact solution.
	a := FromRows([][]float64{{2, 0}, {0, 3}})
	x, err := LeastSquares(a, []float64{4, 9})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 2, 1e-10) || !almostEq(x[1], 3, 1e-10) {
		t.Fatalf("x = %v", x)
	}
}

func TestLeastSquaresOverdetermined(t *testing.T) {
	// Fit y = 2x + 1 from noisy-free samples; LS must recover it exactly.
	var rows [][]float64
	var ys []float64
	for i := 0; i < 10; i++ {
		x := float64(i)
		rows = append(rows, []float64{x, 1})
		ys = append(ys, 2*x+1)
	}
	coef, err := LeastSquares(FromRows(rows), ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(coef[0], 2, 1e-9) || !almostEq(coef[1], 1, 1e-9) {
		t.Fatalf("coef = %v, want [2 1]", coef)
	}
}

// TestLeastSquaresMultiMatchesSingle checks that sharing one factorization
// across right-hand sides gives each the bits it gets when solved alone,
// and that a right-hand side of the wrong length is rejected.
func TestLeastSquaresMultiMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := New(300, 6)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	bs := make([][]float64, 4)
	for q := range bs {
		bs[q] = make([]float64, a.Rows)
		for i := range bs[q] {
			bs[q][i] = rng.NormFloat64()
		}
	}
	xs, err := LeastSquaresMulti(a, bs)
	if err != nil {
		t.Fatal(err)
	}
	for q, b := range bs {
		x, err := LeastSquares(a, b)
		if err != nil {
			t.Fatal(err)
		}
		for j := range x {
			if math.Float64bits(xs[q][j]) != math.Float64bits(x[j]) {
				t.Fatalf("rhs %d coef %d: shared factorization %v, alone %v", q, j, xs[q][j], x[j])
			}
		}
	}
	if _, err := LeastSquaresMulti(a, [][]float64{bs[0], bs[1][:10]}); err != ErrShape {
		t.Fatalf("short right-hand side: err = %v, want ErrShape", err)
	}
}

func TestLeastSquaresResidualOrthogonality(t *testing.T) {
	// The LS residual must be orthogonal to the column space of A.
	rng := rand.New(rand.NewSource(3))
	a := New(20, 3)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	b := make([]float64, 20)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	res := a.MulVec(x)
	for i := range res {
		res[i] = b[i] - res[i]
	}
	atr := a.T().MulVec(res)
	for j, v := range atr {
		if math.Abs(v) > 1e-8 {
			t.Fatalf("A^T r[%d] = %g, want ~0", j, v)
		}
	}
}

func TestLeastSquaresUnderdetermined(t *testing.T) {
	if _, err := LeastSquares(New(2, 3), []float64{1, 2}); err == nil {
		t.Fatal("expected error for underdetermined system")
	}
}

func TestLeastSquaresRankDeficient(t *testing.T) {
	a := FromRows([][]float64{{1, 1}, {1, 1}, {1, 1}})
	if _, err := LeastSquares(a, []float64{1, 1, 1}); err == nil {
		t.Fatal("expected error for rank-deficient system")
	}
}

func TestVecOps(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	s := AddVec(a, b)
	if s[0] != 5 || s[2] != 9 {
		t.Fatalf("AddVec = %v", s)
	}
	sc := ScaleVec(2, a)
	if sc[1] != 4 {
		t.Fatalf("ScaleVec = %v", sc)
	}
}

func TestDominantEigenvalue(t *testing.T) {
	// Diagonal matrix: dominant eigenvalue is max |diag|.
	m := FromRows([][]float64{{0.9, 0}, {0, 0.3}})
	if ev := DominantEigenvalue(m, 100); !almostEq(ev, 0.9, 1e-6) {
		t.Fatalf("eigenvalue = %v, want 0.9", ev)
	}
	if ev := DominantEigenvalue(New(2, 2), 10); ev != 0 {
		t.Fatalf("zero matrix eigenvalue = %v", ev)
	}
}

// Property: SolveLU(A, A*x) returns x for random well-conditioned A.
func TestPropertySolveRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		a := New(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		// Diagonal dominance keeps it well conditioned.
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n)+1)
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		b := a.MulVec(x)
		got, err := SolveLU(a, b)
		if err != nil {
			return false
		}
		for i := range x {
			if !almostEq(got[i], x[i], 1e-7) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: (A*B)^T == B^T * A^T.
func TestPropertyTransposeProduct(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(4)
		a, b := New(m, k), New(k, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		return equal(a.Mul(b).T(), b.T().Mul(a.T()), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
