// Tests for the bandwidth-lean kernel layout: compact int32 column
// indices, all-ones pattern detection, structure sharing of derived
// matrices, the fused row-normalizing mat-vec kernels, and the pooled
// SpGEMM scratch. The randomized equivalence tests pin every new code
// path *bitwise* against straight-line reference loops that spell out
// the original kernel semantics.
package sparse

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// randomPattern builds a rows×cols matrix; unit forces every stored
// value to exactly 1 (the unweighted-relation pattern), otherwise
// values are random and include sign-cancelling rows.
func randomPattern(rng *rand.Rand, rows, cols, avgNNZ int, unit bool) *Matrix {
	var entries []Coord
	for r := 0; r < rows; r++ {
		if rng.Intn(8) == 0 {
			continue // empty row
		}
		n := 1 + rng.Intn(2*avgNNZ)
		seen := make(map[int]bool, n)
		for i := 0; i < n; i++ {
			c := rng.Intn(cols)
			if unit && seen[c] {
				continue // duplicates would sum to 2 and break the pattern
			}
			seen[c] = true
			v := 1.0
			if !unit {
				v = rng.NormFloat64()
			}
			entries = append(entries, Coord{r, c, v})
		}
		if !unit && rng.Intn(4) == 0 && cols >= 2 {
			// A row whose sum cancels to exactly zero while holding
			// nonzero entries — the RowNormalized leave-alone edge case.
			entries = append(entries, Coord{r, 0, 2.5}, Coord{r, 1, -2.5 - RowSumOf(entries, r)})
		}
	}
	return NewFromCoords(rows, cols, entries)
}

// RowSumOf sums the already-collected entries of row r (test helper for
// constructing exactly-cancelling rows).
func RowSumOf(entries []Coord, r int) float64 {
	s := 0.0
	for _, e := range entries {
		if e.Row == r {
			s += e.Val
		}
	}
	return s
}

// refMulVec is the definitional serial mat-vec: y[r] = Σ v·x[c] in
// stored order, always loading the value array.
func refMulVec(m *Matrix, x []float64) []float64 {
	y := make([]float64, m.Rows())
	for r := 0; r < m.Rows(); r++ {
		s := 0.0
		m.Row(r, func(c int, v float64) { s += v * x[c] })
		y[r] = s
	}
	return y
}

// refMulVecT is the definitional serial transposed mat-vec with the
// original x[r]==0 row skip.
func refMulVecT(m *Matrix, x []float64) []float64 {
	y := make([]float64, m.Cols())
	for r := 0; r < m.Rows(); r++ {
		xr := x[r]
		if xr == 0 {
			continue
		}
		m.Row(r, func(c int, v float64) { y[c] += v * xr })
	}
	return y
}

// refMul is the definitional serial Gustavson product, accumulating in
// exactly the kernel's order: rows of M ascending, each expanding B's
// rows in stored order, output columns emitted ascending.
func refMul(m, b *Matrix) [][]float64 {
	out := make([][]float64, m.Rows())
	acc := make([]float64, b.Cols())
	for r := 0; r < m.Rows(); r++ {
		var touched []int
		seen := make(map[int]bool)
		m.Row(r, func(mid int, mv float64) {
			b.Row(mid, func(c int, bv float64) {
				if !seen[c] {
					seen[c] = true
					acc[c] = 0
					touched = append(touched, c)
				}
				acc[c] += mv * bv
			})
		})
		slices.Sort(touched)
		row := make([]float64, b.Cols())
		for _, c := range touched {
			row[c] = acc[c]
		}
		out[r] = row
	}
	return out
}

func bitwiseVec(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: not bitwise identical at %d: %v vs %v", name, i, got[i], want[i])
		}
	}
}

// TestPatternKernelEquivalence pins the int32 / pattern-aware kernel
// paths bitwise against the definitional loops, for both unit
// (value-skipping) and weighted matrices, serial and parallel.
func TestPatternKernelEquivalence(t *testing.T) {
	oldW := Parallelism(0)
	defer Parallelism(oldW)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 12; trial++ {
		rows, cols := 1+rng.Intn(120), 1+rng.Intn(120)
		unit := trial%2 == 0
		m := randomPattern(rng, rows, cols, 4, unit)
		if unit && m.NNZ() > 0 && !m.Unit() {
			t.Fatal("all-ones matrix not detected as unit")
		}
		x := make([]float64, cols)
		xt := make([]float64, rows)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for i := range xt {
			xt[i] = rng.NormFloat64()
		}
		if rng.Intn(3) == 0 {
			xt[rng.Intn(rows)] = 0 // exercise the x[r]==0 skip
		}

		wantV := refMulVec(m, x)
		wantT := refMulVecT(m, xt)
		Parallelism(1)
		bitwiseVec(t, "MulVec/serial", m.MulVec(x, nil), wantV)
		bitwiseVec(t, "MulVecT/serial", m.MulVecT(xt, nil), wantT)

		withParallel(t, 4, func() {
			bitwiseVec(t, "MulVec/parallel", m.MulVec(x, nil), wantV)
			// MulVecT's parallel combine reorders additions; check to
			// tolerance there, bitwise is only contractual serially.
			maxDiffVec(t, "MulVecT/parallel", m.MulVecT(xt, nil), wantT)
		})
	}
}

// TestMulPatternEquivalence pins the SpGEMM pattern paths (unit M, unit
// B, both, neither — all running the pooled scratch) bitwise against
// the definitional Gustavson product.
func TestMulPatternEquivalence(t *testing.T) {
	oldW := Parallelism(0)
	defer Parallelism(oldW)
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 16; trial++ {
		rows, mid, cols := 1+rng.Intn(60), 1+rng.Intn(60), 1+rng.Intn(60)
		m := randomPattern(rng, rows, mid, 3, trial%2 == 0)
		b := randomPattern(rng, mid, cols, 3, trial%4 < 2)
		want := refMul(m, b)

		check := func(mode string) {
			got := mulOf(m, b)
			if got.Rows() != rows || got.Cols() != cols {
				t.Fatalf("%s: wrong shape", mode)
			}
			d := got.Dense()
			for r := range want {
				bitwiseVec(t, "Mul/"+mode, d[r], want[r])
			}
		}
		Parallelism(1)
		check("serial")
		withParallel(t, 3, func() { check("parallel") })

		// Gram must equal Mul(Transpose()) bitwise on the upper triangle
		// regardless of the pattern path taken.
		g := gramOf(m)
		full := mulOf(m, m.Transpose())
		for r := 0; r < rows; r++ {
			for c := r; c < rows; c++ {
				if math.Float64bits(g.At(r, c)) != math.Float64bits(full.At(r, c)) {
					t.Fatalf("Gram upper (%d,%d): %v vs %v", r, c, g.At(r, c), full.At(r, c))
				}
			}
		}
	}
}

// TestFusedNormEquivalence pins the fused inverse-row-sum kernels
// bitwise against normalize-then-multiply, including zero-sum rows
// (both empty and sign-cancelling), serial and parallel.
func TestFusedNormEquivalence(t *testing.T) {
	oldW := Parallelism(0)
	defer Parallelism(oldW)
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 12; trial++ {
		rows, cols := 1+rng.Intn(100), 1+rng.Intn(100)
		m := randomPattern(rng, rows, cols, 4, trial%3 == 0)
		inv := m.RowInvSums()
		norm := m.RowNormalized()
		x := make([]float64, cols)
		xt := make([]float64, rows)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for i := range xt {
			xt[i] = rng.NormFloat64()
		}

		Parallelism(1)
		bitwiseVec(t, "MulVecNorm/serial", m.MulVecNorm(x, inv, nil), norm.MulVec(x, nil))
		bitwiseVec(t, "MulVecTNorm/serial", m.MulVecTNorm(xt, inv, nil), norm.MulVecT(xt, nil))

		withParallel(t, 4, func() {
			bitwiseVec(t, "MulVecNorm/parallel", m.MulVecNorm(x, inv, nil), norm.MulVec(x, nil))
			bitwiseVec(t, "MulVecTNorm/parallel", m.MulVecTNorm(xt, inv, nil), norm.MulVecT(xt, nil))
		})
	}
}

// TestRowInvSumsContract pins the zero-sum-row convention: inv = 1
// leaves those rows exactly as RowNormalized does.
func TestRowInvSumsContract(t *testing.T) {
	m := NewFromDense([][]float64{
		{2, 2},  // normal row
		{0, 0},  // empty row
		{3, -3}, // cancelling row: sum is 0, entries stay unnormalized
	})
	inv := m.RowInvSums()
	if inv[0] != 0.25 || inv[1] != 1 || inv[2] != 1 {
		t.Fatalf("RowInvSums = %v", inv)
	}
	n := m.RowNormalized()
	if n.At(2, 0) != 3 || n.At(2, 1) != -3 {
		t.Fatalf("cancelling row was rescaled: %v", n.Dense()[2])
	}
}

// TestStructureSharing pins the satellite contract: Scale and
// RowNormalized alias the receiver's rowPtr/colIdx instead of copying,
// and never mutate the receiver's values.
func TestStructureSharing(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	m := randomPattern(rng, 40, 30, 3, false)
	before := append([]float64(nil), m.vals...)
	for name, d := range map[string]*Matrix{
		"Scale":         m.Scale(2.5),
		"RowNormalized": m.RowNormalized(),
	} {
		if &d.rowPtr[0] != &m.rowPtr[0] {
			t.Errorf("%s copied rowPtr instead of aliasing", name)
		}
		if d.NNZ() > 0 && &d.colIdx[0] != &m.colIdx[0] {
			t.Errorf("%s copied colIdx instead of aliasing", name)
		}
		if d.NNZ() > 0 && &d.vals[0] == &m.vals[0] {
			t.Errorf("%s aliased vals — derived values must be fresh", name)
		}
	}
	for i, v := range m.vals {
		if v != before[i] {
			t.Fatal("derived matrix mutated the receiver's values")
		}
	}
}

// TestUnitFlagPropagation pins where the all-ones pattern flag is
// detected and how it survives derivation.
func TestUnitFlagPropagation(t *testing.T) {
	u := NewFromDense([][]float64{{1, 0, 1}, {0, 1, 0}})
	w := NewFromDense([][]float64{{2, 0}, {0, 1}})
	if !u.Unit() || w.Unit() {
		t.Fatal("unit detection wrong at construction")
	}
	if !u.Transpose().Unit() {
		t.Fatal("Transpose dropped the unit flag")
	}
	if u.Scale(2).Unit() {
		t.Fatal("Scale(2) kept the unit flag")
	}
	if !u.Scale(1).Unit() {
		t.Fatal("Scale(1) dropped the unit flag")
	}
	// Duplicate entries summing to exactly 1 still count.
	h := NewFromCoords(1, 1, []Coord{{0, 0, 0.5}, {0, 0, 0.5}})
	if !h.Unit() {
		t.Fatal("summed-to-one entry not detected as unit")
	}
	// A permutation matrix row-normalizes to itself: unit re-detected.
	p := NewFromDense([][]float64{{0, 1}, {1, 0}})
	if !p.RowNormalized().Unit() {
		t.Fatal("RowNormalized permutation not unit")
	}
	// Products of 0/1 matrices with overlap produce counts ≥ 2.
	if o := gramOf(u); o.Unit() {
		t.Fatal("Gram with overlapping rows should not be unit")
	}
}

// TestDimOverflowGuard pins the int32 boundary: dimensions beyond the
// index range fail loudly at construction (no silent corruption), and
// dimensions at the boundary still work.
func TestDimOverflowGuard(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic, got none", name)
			}
		}()
		f()
	}
	expectPanic("cols overflow", func() { NewFromCoords(3, maxDim+1, nil) })
	expectPanic("rows overflow", func() { NewFromCoords(maxDim+1, 3, nil) })

	// Exactly at the boundary: column index maxDim-1 must round-trip.
	m := NewFromCoords(2, maxDim, []Coord{{1, maxDim - 1, 7}})
	if got := m.At(1, maxDim-1); got != 7 {
		t.Fatalf("boundary entry read back %v, want 7", got)
	}
	if got := m.At(1, maxDim-2); got != 0 {
		t.Fatalf("neighbor of boundary entry = %v, want 0", got)
	}
}

// TestSpgemmScratchReuse drives many sequential products through the
// pooled scratch to shake out stale-stamp bugs (a stamp surviving from
// an earlier product must never validate a new row's accumulator).
func TestSpgemmScratchReuse(t *testing.T) {
	oldW := Parallelism(0)
	defer Parallelism(oldW)
	Parallelism(1)
	rng := rand.New(rand.NewSource(53))
	for round := 0; round < 30; round++ {
		rows := 1 + rng.Intn(40)
		mid := 1 + rng.Intn(40)
		cols := 1 + rng.Intn(40)
		m := randomPattern(rng, rows, mid, 3, round%2 == 0)
		b := randomPattern(rng, mid, cols, 3, round%3 == 0)
		want := refMul(m, b)
		d := mulOf(m, b).Dense()
		for r := range want {
			bitwiseVec(t, "pooled Mul", d[r], want[r])
		}
	}
}
