package sparse

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-10 }

// gramOf is GramCtx under a context that is never cancelled, so it
// cannot fail.
func gramOf(m *Matrix) *Matrix {
	g, _ := m.GramCtx(context.Background())
	return g
}

// mulOf is MulCtx under a context that is never cancelled, so it cannot
// fail.
func mulOf(a, b *Matrix) *Matrix {
	p, _ := a.MulCtx(context.Background(), b)
	return p
}

func TestNewFromCoordsDedupAndAt(t *testing.T) {
	m := NewFromCoords(3, 4, []Coord{
		{0, 1, 2}, {0, 1, 3}, {2, 3, 1}, {1, 0, -1}, {2, 0, 0},
	})
	if m.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3 (dups merged, zeros dropped)", m.NNZ())
	}
	if m.At(0, 1) != 5 {
		t.Errorf("At(0,1) = %v, want 5 (2+3)", m.At(0, 1))
	}
	if m.At(2, 0) != 0 || m.At(0, 0) != 0 {
		t.Error("missing entries should read 0")
	}
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Error("dims wrong")
	}
}

func TestDenseRoundTrip(t *testing.T) {
	d := [][]float64{
		{0, 1, 0},
		{2, 0, 3},
		{0, 0, 0},
		{4, 5, 6},
	}
	m := NewFromDense(d)
	got := m.Dense()
	for r := range d {
		for c := range d[r] {
			if got[r][c] != d[r][c] {
				t.Fatalf("round trip mismatch at (%d,%d): %v vs %v", r, c, got[r][c], d[r][c])
			}
		}
	}
}

func randomDense(rng *rand.Rand, rows, cols int) [][]float64 {
	d := make([][]float64, rows)
	for r := range d {
		d[r] = make([]float64, cols)
		for c := range d[r] {
			if rng.Float64() < 0.3 {
				d[r][c] = math.Round(rng.Float64()*10) - 5
			}
		}
	}
	return d
}

func TestMulVecAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		rows, cols := 1+rng.Intn(8), 1+rng.Intn(8)
		d := randomDense(rng, rows, cols)
		m := NewFromDense(d)
		x := make([]float64, cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got := m.MulVec(x, nil)
		for r := 0; r < rows; r++ {
			want := 0.0
			for c := 0; c < cols; c++ {
				want += d[r][c] * x[c]
			}
			if !almostEq(got[r], want) {
				t.Fatalf("MulVec row %d: %v vs %v", r, got[r], want)
			}
		}
	}
}

func TestMulVecTMatchesTransposeMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		rows, cols := 1+rng.Intn(8), 1+rng.Intn(8)
		m := NewFromDense(randomDense(rng, rows, cols))
		x := make([]float64, rows)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		a := m.MulVecT(x, nil)
		b := m.Transpose().MulVec(x, nil)
		for i := range a {
			if !almostEq(a[i], b[i]) {
				t.Fatalf("MulVecT mismatch at %d: %v vs %v", i, a[i], b[i])
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewFromDense(randomDense(rng, 6, 9))
	tt := m.Transpose().Transpose()
	if tt.Rows() != m.Rows() || tt.Cols() != m.Cols() || tt.NNZ() != m.NNZ() {
		t.Fatal("transpose-transpose changed shape")
	}
	d1, d2 := m.Dense(), tt.Dense()
	for r := range d1 {
		for c := range d1[r] {
			if d1[r][c] != d2[r][c] {
				t.Fatalf("(Mᵀ)ᵀ ≠ M at (%d,%d)", r, c)
			}
		}
	}
}

func TestRowNormalized(t *testing.T) {
	m := NewFromDense([][]float64{
		{1, 3},
		{0, 0},
		{5, 0},
	})
	n := m.RowNormalized()
	if !almostEq(n.At(0, 0), 0.25) || !almostEq(n.At(0, 1), 0.75) {
		t.Errorf("row 0 not normalized: %v", n.Dense()[0])
	}
	if n.RowSum(1) != 0 {
		t.Error("zero row should stay zero")
	}
	if !almostEq(n.RowSum(2), 1) {
		t.Error("row 2 should sum to 1")
	}
	// Original untouched.
	if m.At(0, 0) != 1 {
		t.Error("RowNormalized mutated receiver")
	}
}

func TestMulAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 15; trial++ {
		a := randomDense(rng, 1+rng.Intn(6), 1+rng.Intn(6))
		b := randomDense(rng, len(a[0]), 1+rng.Intn(6))
		got := mulOf(NewFromDense(a), NewFromDense(b)).Dense()
		for r := range a {
			for c := range b[0] {
				want := 0.0
				for k := range b {
					want += a[r][k] * b[k][c]
				}
				if !almostEq(got[r][c], want) {
					t.Fatalf("Mul mismatch at (%d,%d): %v vs %v", r, c, got[r][c], want)
				}
			}
		}
	}
}

// TestMulResultSizedExactly: a product's arrays carry no append slack —
// the engine retains them — on the serial path as on the parallel one.
func TestMulResultSizedExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, b := randomCSR(rng, 300, 200, 6), randomCSR(rng, 200, 250, 6)
	check := func(label string) {
		t.Helper()
		m := mulOf(a, b)
		if m.NNZ() == 0 || cap(m.colIdx) != len(m.colIdx) || cap(m.vals) != len(m.vals) {
			t.Fatalf("%s Mul: %d entries in arrays of cap %d and %d", label, m.NNZ(), cap(m.colIdx), cap(m.vals))
		}
	}
	withKnobs(t, 1, SerialThreshold(0), func() { check("serial") })
	withParallel(t, 4, func() { check("forced-parallel") })
}

// TestGramMatchesMulTranspose checks the fused Gram kernel against the
// two-step product on random matrices, and that the result is exactly
// symmetric (mirrored entries share one computed float64).
func TestGramMatchesMulTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		rows, cols := 1+rng.Intn(12), 1+rng.Intn(12)
		d := randomDense(rng, rows, cols)
		m := NewFromDense(d)
		got := gramOf(m)
		want := mulOf(m, m.Transpose())
		if got.Rows() != want.Rows() || got.Cols() != want.Cols() || got.NNZ() != want.NNZ() {
			t.Fatalf("trial %d: shape %dx%d/%d, want %dx%d/%d", trial,
				got.Rows(), got.Cols(), got.NNZ(), want.Rows(), want.Cols(), want.NNZ())
		}
		for r := 0; r < rows; r++ {
			for c := 0; c < rows; c++ {
				if !almostEq(got.At(r, c), want.At(r, c)) {
					t.Fatalf("trial %d: Gram(%d,%d) = %v, want %v", trial, r, c, got.At(r, c), want.At(r, c))
				}
				if got.At(r, c) != got.At(c, r) {
					t.Fatalf("trial %d: Gram not exactly symmetric at (%d,%d)", trial, r, c)
				}
			}
		}
		if !got.Symmetric() {
			t.Fatalf("trial %d: Symmetric() is false on a Gram product", trial)
		}
	}
	// Degenerate shapes.
	if g := gramOf(NewFromCoords(0, 0, nil)); g.Rows() != 0 || g.NNZ() != 0 {
		t.Fatal("empty Gram wrong")
	}
	if g := gramOf(NewFromCoords(3, 2, nil)); g.Rows() != 3 || g.Cols() != 3 || g.NNZ() != 0 {
		t.Fatal("all-zero Gram wrong")
	}
}

// TestSymmetricAgainstDense checks Symmetric against the dense
// definition on mirrored random matrices, each one entry away from
// symmetric (a changed value, a missing mirror, an extra entry), and
// non-square shapes.
func TestSymmetricAgainstDense(t *testing.T) {
	dense := func(d [][]float64) bool {
		for r := range d {
			if len(d[r]) != len(d) {
				return false
			}
			for c := range d[r] {
				if d[r][c] != d[c][r] {
					return false
				}
			}
		}
		return true
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(9)
		d := randomDense(rng, n, n)
		for r := 0; r < n; r++ {
			for c := 0; c < r; c++ {
				d[r][c] = d[c][r]
			}
		}
		if trial%4 != 0 {
			r, c := rng.Intn(n), rng.Intn(n)
			switch trial % 4 {
			case 1:
				d[r][c] += 1
			case 2:
				d[r][c] = 0
			case 3:
				d[r][c] = 7
			}
		}
		if got, want := NewFromDense(d).Symmetric(), dense(d); got != want {
			t.Fatalf("trial %d: Symmetric() = %v on %v, want %v", trial, got, d, want)
		}
	}
	for _, m := range []*Matrix{NewFromCoords(2, 3, nil), NewFromDense([][]float64{{1, 0}})} {
		if m.Symmetric() {
			t.Fatalf("%dx%d matrix reported symmetric", m.Rows(), m.Cols())
		}
	}
	if !NewFromCoords(0, 0, nil).Symmetric() || !NewFromCoords(4, 4, nil).Symmetric() {
		t.Fatal("empty square matrices are symmetric")
	}
}

func TestMulDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MulCtx with mismatched dims should panic")
		}
	}()
	mulOf(NewFromDense([][]float64{{1}}), NewFromDense([][]float64{{1, 2}, {3, 4}}))
}

func TestScaleAndSums(t *testing.T) {
	m := NewFromDense([][]float64{{1, 2}, {3, 4}})
	s := m.Scale(2)
	if s.Sum() != 20 {
		t.Errorf("scaled Sum = %v", s.Sum())
	}
	if m.Sum() != 10 {
		t.Errorf("Scale mutated receiver: %v", m.Sum())
	}
	if m.RowSum(1) != 7 {
		t.Errorf("RowSum = %v", m.RowSum(1))
	}
}

func TestDiagonal(t *testing.T) {
	m := NewFromDense([][]float64{{7, 1, 0}, {0, 8, 0}})
	d := m.Diagonal()
	if len(d) != 2 || d[0] != 7 || d[1] != 8 {
		t.Errorf("Diagonal = %v", d)
	}
}

func TestVectorHelpers(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if Dot(a, b) != 32 {
		t.Errorf("Dot = %v", Dot(a, b))
	}
	if !almostEq(Norm2([]float64{3, 4}), 5) {
		t.Error("Norm2 wrong")
	}
	y := append([]float64(nil), b...)
	AXPY(2, a, y)
	if y[0] != 6 || y[2] != 12 {
		t.Errorf("AXPY = %v", y)
	}
	ScaleVec(0.5, y)
	if y[0] != 3 {
		t.Errorf("ScaleVec = %v", y)
	}
	if MaxAbsDiff(a, b) != 3 {
		t.Errorf("MaxAbsDiff = %v", MaxAbsDiff(a, b))
	}
}

// Property: row sums of RowNormalized are 0 or 1.
func TestRowNormalizedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewFromDense(randomDense(rng, 1+rng.Intn(10), 1+rng.Intn(10))).RowNormalized()
		for r := 0; r < m.Rows(); r++ {
			s := m.RowSum(r)
			if !(s == 0 || almostEq(s, 1)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: (A·B)ᵀ = Bᵀ·Aᵀ.
func TestMulTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := NewFromDense(randomDense(rng, 1+rng.Intn(6), 1+rng.Intn(6)))
		b := NewFromDense(randomDense(rng, a.Cols(), 1+rng.Intn(6)))
		lhs := mulOf(a, b).Transpose().Dense()
		rhs := mulOf(b.Transpose(), a.Transpose()).Dense()
		for r := range lhs {
			for c := range lhs[r] {
				if !almostEq(lhs[r][c], rhs[r][c]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
