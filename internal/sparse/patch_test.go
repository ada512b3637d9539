package sparse

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// identical asserts two matrices are the same CSR, bit for bit:
// dimensions, rowPtr, colIdx, the bits of vals, and the unit flag.
func identical(t *testing.T, label string, got, want *Matrix) {
	t.Helper()
	if got.rows != want.rows || got.cols != want.cols {
		t.Fatalf("%s: %dx%d, want %dx%d", label, got.rows, got.cols, want.rows, want.cols)
	}
	if !slices.Equal(got.rowPtr, want.rowPtr) {
		t.Fatalf("%s: rowPtr differs", label)
	}
	if !slices.Equal(got.colIdx, want.colIdx) {
		t.Fatalf("%s: colIdx differs", label)
	}
	for i, v := range want.vals {
		if math.Float64bits(got.vals[i]) != math.Float64bits(v) {
			t.Fatalf("%s: vals[%d] = %v, want %v", label, i, got.vals[i], v)
		}
	}
	if got.unit != want.unit {
		t.Fatalf("%s: unit = %v, want %v", label, got.unit, want.unit)
	}
}

// mutate returns m with a few rows rewritten (values changed, entries
// inserted and dropped), grown by addRows rows — some populated — and
// addCols columns.
func mutate(rng *rand.Rand, m *Matrix, touch, addRows, addCols int) *Matrix {
	rows, cols := m.rows+addRows, m.cols+addCols
	dense := make([][]float64, rows)
	for r := range dense {
		dense[r] = make([]float64, cols)
		if r < m.rows {
			m.Row(r, func(c int, v float64) { dense[r][c] = v })
		}
	}
	for i := 0; i < touch; i++ {
		r := rng.Intn(rows)
		for j := 0; j < 3; j++ {
			c := rng.Intn(cols)
			switch rng.Intn(3) {
			case 0:
				dense[r][c] = 0
			case 1:
				dense[r][c] = rng.NormFloat64()
			default:
				dense[r][c] += 0.1
			}
		}
	}
	for r := m.rows; r < rows; r++ {
		if rng.Intn(2) == 0 {
			dense[r][rng.Intn(cols)] = rng.NormFloat64()
		}
	}
	return NewFromDense(dense)
}

func union(a, b []int) []int {
	out := append(slices.Clone(a), b...)
	slices.Sort(out)
	return slices.Compact(out)
}

// patchedGram is the Gram patch rule: the |D|×n block into rows D,
// mirrored into columns D.
func patchedGram(t *testing.T, old, h, cur *Matrix) *Matrix {
	t.Helper()
	d := DirtyRows(h, cur)
	block := mulOf(cur.GatherRows(d), cur.Transpose())
	m, err := old.PatchCtx(context.Background(), Patch{Rows: cur.rows, Cols: cur.rows,
		Dirty: d, RowBlock: block, PatchCols: d, ColBlock: block.Transpose()})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestPatchMatchesColdKernels: for random operands and random edits of
// them, a product patched from the pre-edit product is the CSR the cold
// kernel builds from the edited operands — Gram and planned product;
// serial and forced-parallel; with and without growth.
func TestPatchMatchesColdKernels(t *testing.T) {
	run := func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		rows, mid := 20+rng.Intn(40), 4+rng.Intn(12)
		grow := int(seed % 3) // 0: same shape
		h := randomCSR(rng, rows, mid, 3)
		if seed%4 == 0 {
			h = randomMatrix(rng, rows, mid, 0.3, true) // unit operand
		}
		cur := mutate(rng, h, 1+rng.Intn(4), grow, grow/2)

		identical(t, "gram", patchedGram(t, gramOf(h), h, cur), gramOf(cur))

		// Planned product L·R with both operands edited.
		right := randomCSR(rng, mid, 5+rng.Intn(20), 2)
		curRight := mutate(rng, right, rng.Intn(3), cur.cols-mid, grow)
		d := union(DirtyRows(h, cur), cur.RowsTouching(DirtyRows(right, curRight)))
		got, err := mulOf(h, right).PatchCtx(context.Background(), Patch{Rows: cur.rows, Cols: curRight.cols,
			Dirty: d, RowBlock: mulOf(cur.GatherRows(d), curRight)})
		if err != nil {
			t.Fatal(err)
		}
		identical(t, "product", got, mulOf(cur, curRight))
	}
	for seed := int64(0); seed < 60; seed++ {
		run(t, seed)
		withParallel(t, 4, func() { run(t, seed) })
	}
}

// TestPatchSharesStructure: when no row's pattern changes the result
// aliases the base's index arrays, like a value-only ApplyDelta.
func TestPatchSharesStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	h := randomMatrix(rng, 30, 6, 0.5, false)
	cur := h.ApplyDelta([]Coord{{Row: 3, Col: int(h.colIdx[h.rowPtr[3]]), Val: 0.5}})
	base := gramOf(h)
	got := patchedGram(t, base, h, cur)
	identical(t, "value-only", got, gramOf(cur))
	if &got.colIdx[0] != &base.colIdx[0] || &got.rowPtr[0] != &base.rowPtr[0] {
		t.Fatal("a pattern-preserving patch must alias the base's rowPtr/colIdx")
	}
	if &got.vals[0] == &base.vals[0] {
		t.Fatal("the value array must be fresh")
	}
	// Nothing dirty at all: still a new matrix (the base is never handed
	// back), still sharing structure.
	same := patchedGram(t, base, h, h)
	identical(t, "clean", same, base)
	if same == base || &same.colIdx[0] != &base.colIdx[0] {
		t.Fatal("a clean patch must be a new matrix over the same structure")
	}
	// A structural edit gets fresh arrays.
	grown := patchedGram(t, base, h, mutate(rng, h, 3, 2, 0))
	if &grown.colIdx[0] == &base.colIdx[0] {
		t.Fatal("a structural patch must not alias the base's colIdx")
	}
}

func TestDirtyRows(t *testing.T) {
	m := NewFromDense([][]float64{{1, 0, 2}, {0, 0, 0}, {0, 3, 0}})
	if d := DirtyRows(m, m); d != nil {
		t.Fatalf("same matrix: %v", d)
	}
	if d := DirtyRows(m, NewFromDense(m.Dense())); d != nil {
		t.Fatalf("equal copy: %v", d)
	}
	if d := DirtyRows(m, m.Grow(3, 7)); d != nil {
		t.Fatalf("added columns alone: %v", d)
	}
	if d := DirtyRows(m, m.Grow(5, 3)); !slices.Equal(d, []int{3, 4}) {
		t.Fatalf("added rows: %v", d)
	}
	edited := NewFromDense([][]float64{{1, 0, 2.5}, {0, 4, 0}, {0, 3, 0}})
	if d := DirtyRows(m, edited); !slices.Equal(d, []int{0, 1}) {
		t.Fatalf("value + pattern edits: %v", d)
	}
	negZero := &Matrix{rows: 1, cols: 1, rowPtr: []int{0, 1}, colIdx: []int32{0}, vals: []float64{math.Copysign(0, -1)}}
	posZero := &Matrix{rows: 1, cols: 1, rowPtr: []int{0, 1}, colIdx: []int32{0}, vals: []float64{0}}
	if d := DirtyRows(negZero, posZero); !slices.Equal(d, []int{0}) {
		t.Fatalf("-0 vs +0 must differ: %v", d)
	}
	if d := DirtyRows(m.Grow(5, 3), m); !slices.Equal(d, []int{0, 1, 2}) {
		t.Fatalf("a shrunken matrix is all dirty: %v", d)
	}
}

func TestGatherRowsAndRowsTouching(t *testing.T) {
	m := NewFromDense([][]float64{{1, 0, 2}, {0, 0, 0}, {0, 3, 0}, {4, 0, 0}})
	g := m.GatherRows([]int{3, 0})
	if want := [][]float64{{4, 0, 0}, {1, 0, 2}}; !slices.EqualFunc(g.Dense(), want, slices.Equal[[]float64]) {
		t.Fatalf("GatherRows = %v", g.Dense())
	}
	if empty := m.GatherRows(nil); empty.rows != 0 || empty.cols != 3 || mulOf(empty, m.Transpose()).rows != 0 {
		t.Fatal("gathering no rows must give a 0×cols matrix the kernels accept")
	}
	if rows := m.RowsTouching([]int{0}); !slices.Equal(rows, []int{0, 3}) {
		t.Fatalf("RowsTouching(0) = %v", rows)
	}
	if rows := m.RowsTouching(nil); rows != nil {
		t.Fatalf("RowsTouching() = %v", rows)
	}
}

// TestPatchCtxCancelled: a dead context yields its error and no matrix,
// on the serial and the parallel dispatch.
func TestPatchCtxCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	h := randomCSR(rng, 200, 20, 4)
	base := gramOf(h)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	try := func() {
		if out, err := base.PatchCtx(ctx, Patch{Rows: 200, Cols: 200}); !errors.Is(err, context.Canceled) || out != nil {
			t.Fatalf("PatchCtx = (%v, %v), want (nil, context.Canceled)", out, err)
		}
	}
	try()
	withParallel(t, 4, try)
}

// TestSymmetryFlagIsProven: a matrix carries the symmetric flag only
// where this package proves it — a Gram product, and a patch of a
// flagged matrix that writes every dirty row's mirror into its column —
// and never one that is not symmetric. Any other matrix, symmetric or
// not, is left to Symmetric's scan.
func TestSymmetryFlagIsProven(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(11))
	h := randomCSR(rng, 40, 12, 3)
	g := gramOf(h)
	if !g.sym || !transposeOf(g, g) {
		t.Fatalf("a Gram product: flag %v, symmetric %v", g.sym, transposeOf(g, g))
	}
	var entries []Coord
	for r := 0; r < g.rows; r++ {
		g.Row(r, func(c int, v float64) { entries = append(entries, Coord{r, c, v}) })
	}
	coords := NewFromCoords(g.rows, g.cols, entries)
	if coords.sym || !coords.Symmetric() {
		t.Fatalf("the Gram product rebuilt from coordinates: flag %v, Symmetric %v; want false, true", coords.sym, coords.Symmetric())
	}
	for name, d := range map[string]*Matrix{
		"Transpose": g.Transpose(), "Scale": g.Scale(1), "RowNormalized": g.RowNormalized(),
		"ColSlice": g.ColSlice(0, g.cols), "ApplyDelta": g.ApplyDelta([]Coord{{0, 0, 1}}), "Grow": g.Grow(g.rows+1, g.cols+1),
	} {
		if d.sym {
			t.Errorf("%s inherits the flag", name)
		}
	}

	// The patches the meta-path engine writes keep the flag, and the
	// matrix they give is symmetric.
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := randomCSR(rng, 20+rng.Intn(40), 4+rng.Intn(12), 3)
		grow := int(seed % 3)
		cur := mutate(rng, h, 1+rng.Intn(4), grow, grow/2)
		if p := patchedGram(t, gramOf(h), h, cur); !p.sym || !transposeOf(p, p) {
			t.Fatalf("seed %d: a patched Gram product: flag %v, symmetric %v", seed, p.sym, transposeOf(p, p))
		}
	}

	// Hand-built patches the check must refuse.
	cur := mutate(rand.New(rand.NewSource(12)), h, 3, 0, 0)
	d := DirtyRows(h, cur)
	if len(d) < 2 {
		t.Fatalf("the fixture dirties %d rows, want at least two", len(d))
	}
	block := mulOf(cur.GatherRows(d), cur.Transpose())
	n := cur.rows
	// One entry of the dirty×dirty part changed, in the row block and
	// its transpose alike: ColBlock is RowBlockᵀ, yet row d[0] no longer
	// mirrors row d[1].
	skewed := block.ApplyDelta([]Coord{{0, d[1], 1}})
	for _, tc := range []struct {
		name string
		base *Matrix
		p    Patch
	}{
		{"unflagged base", coords, Patch{Rows: n, Cols: n, Dirty: d, RowBlock: block, PatchCols: d, ColBlock: block.Transpose()}},
		{"ColBlock is not RowBlockᵀ", g, Patch{Rows: n, Cols: n, Dirty: d, RowBlock: block,
			PatchCols: d, ColBlock: block.Transpose().ApplyDelta([]Coord{{n - 1, 0, 1}})}},
		{"dirty×dirty part not symmetric", g, Patch{Rows: n, Cols: n, Dirty: d, RowBlock: skewed, PatchCols: d, ColBlock: skewed.Transpose()}},
		{"PatchCols is not Dirty", g, Patch{Rows: n, Cols: n, Dirty: d, RowBlock: block,
			PatchCols: d[:1], ColBlock: block.Transpose().ColSlice(0, 1)}},
		{"rows only", g, Patch{Rows: n, Cols: n, Dirty: d, RowBlock: block}},
	} {
		m, err := tc.base.PatchCtx(ctx, tc.p)
		if err != nil {
			t.Fatal(err)
		}
		if m.sym {
			t.Errorf("%s: the patched matrix carries the flag (symmetric: %v)", tc.name, transposeOf(m, m))
		}
	}
}
