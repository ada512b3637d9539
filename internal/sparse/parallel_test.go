package sparse

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// withParallel forces the parallel path (many workers, threshold 1) for
// the duration of a test and restores the previous knobs afterwards.
func withParallel(t *testing.T, workers int, f func()) {
	t.Helper()
	withKnobs(t, workers, 1, f)
}

// randomCSR builds a rows×cols matrix with ~avgNNZ entries per row,
// including a sprinkling of deliberately empty rows.
func randomCSR(rng *rand.Rand, rows, cols, avgNNZ int) *Matrix {
	var entries []Coord
	for r := 0; r < rows; r++ {
		if rng.Intn(10) == 0 {
			continue // empty row
		}
		n := 1 + rng.Intn(2*avgNNZ)
		for i := 0; i < n; i++ {
			entries = append(entries, Coord{r, rng.Intn(cols), rng.NormFloat64()})
		}
	}
	return NewFromCoords(rows, cols, entries)
}

func maxDiffVec(t *testing.T, name string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length mismatch %d vs %d", name, len(a), len(b))
	}
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > 1e-12 {
			t.Fatalf("%s: parallel/serial diverge at %d: %v vs %v (|Δ|=%g)", name, i, a[i], b[i], d)
		}
	}
}

func sameMatrix(t *testing.T, name string, a, b *Matrix) {
	t.Helper()
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() || a.NNZ() != b.NNZ() {
		t.Fatalf("%s: shape mismatch %dx%d/%d vs %dx%d/%d",
			name, a.Rows(), a.Cols(), a.NNZ(), b.Rows(), b.Cols(), b.NNZ())
	}
	for r := 0; r < a.Rows(); r++ {
		if a.rowPtr[r+1] != b.rowPtr[r+1] {
			t.Fatalf("%s: rowPtr mismatch at row %d", name, r)
		}
		for i := a.rowPtr[r]; i < a.rowPtr[r+1]; i++ {
			if a.colIdx[i] != b.colIdx[i] {
				t.Fatalf("%s: colIdx mismatch at row %d", name, r)
			}
			if d := math.Abs(a.vals[i] - b.vals[i]); d > 1e-12 {
				t.Fatalf("%s: value diverges at row %d: %v vs %v", name, r, a.vals[i], b.vals[i])
			}
		}
	}
}

// TestParallelEquivalence checks every parallel kernel against its
// serial result on random matrices, including the edge cases the
// partitioner must survive: empty rows, a single row, and matrices
// whose work stays below the serial threshold.
func TestParallelEquivalence(t *testing.T) {
	oldW := Parallelism(0)
	defer Parallelism(oldW)
	rng := rand.New(rand.NewSource(42))
	shapes := []struct {
		rows, cols, deg int
	}{
		{200, 150, 8},
		{1, 300, 40},  // single row
		{500, 1, 1},   // single column
		{64, 64, 1},   // very sparse
		{40, 5000, 3}, // wide and hollow: MulVecT/Transpose stay serial by design
		{300, 200, 20},
	}
	for _, sh := range shapes {
		m := randomCSR(rng, sh.rows, sh.cols, sh.deg)
		b := randomCSR(rng, sh.cols, sh.rows, sh.deg)
		x := make([]float64, sh.cols)
		xt := make([]float64, sh.rows)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for i := range xt {
			xt[i] = rng.NormFloat64()
		}

		Parallelism(1)
		serMulVec := m.MulVec(x, nil)
		serMulVecT := m.MulVecT(xt, nil)
		serT := m.Transpose()
		serNorm := m.RowNormalized()
		serMul := mulOf(m, b)
		serGram := gramOf(m)

		for _, workers := range []int{2, 4, 7} {
			withParallel(t, workers, func() {
				maxDiffVec(t, "MulVec", m.MulVec(x, nil), serMulVec)
				maxDiffVec(t, "MulVecT", m.MulVecT(xt, nil), serMulVecT)
				sameMatrix(t, "Transpose", m.Transpose(), serT)
				sameMatrix(t, "RowNormalized", m.RowNormalized(), serNorm)
				sameMatrix(t, "Mul", mulOf(m, b), serMul)
				sameMatrix(t, "Gram", gramOf(m), serGram)
			})
		}
	}
}

// TestParallelEquivalenceEmptyAndZero covers degenerate matrices.
func TestParallelEquivalenceEmptyAndZero(t *testing.T) {
	withParallel(t, 4, func() {
		empty := NewFromCoords(0, 0, nil)
		if got := empty.MulVec(nil, nil); len(got) != 0 {
			t.Fatalf("empty MulVec = %v", got)
		}
		if tt := empty.Transpose(); tt.Rows() != 0 || tt.Cols() != 0 {
			t.Fatal("empty Transpose changed shape")
		}
		zero := NewFromCoords(5, 7, nil) // all rows empty
		y := zero.MulVec(make([]float64, 7), nil)
		for _, v := range y {
			if v != 0 {
				t.Fatal("zero matrix MulVec nonzero")
			}
		}
		yt := zero.MulVecT(make([]float64, 5), nil)
		for _, v := range yt {
			if v != 0 {
				t.Fatal("zero matrix MulVecT nonzero")
			}
		}
		if p := mulOf(zero, NewFromCoords(7, 3, nil)); p.NNZ() != 0 || p.Rows() != 5 || p.Cols() != 3 {
			t.Fatal("zero Mul wrong")
		}
		if n := zero.RowNormalized(); n.NNZ() != 0 {
			t.Fatal("zero RowNormalized wrong")
		}
	})
}

// TestBelowThresholdStaysSerial pins the fallback contract: work under
// the threshold must produce results identical to the serial kernels
// even with many workers configured (it takes the same code path).
func TestBelowThresholdStaysSerial(t *testing.T) {
	oldW := Parallelism(0)
	oldT := SerialThreshold(0)
	defer func() {
		Parallelism(oldW)
		SerialThreshold(oldT)
	}()
	rng := rand.New(rand.NewSource(7))
	m := randomCSR(rng, 20, 20, 3)
	x := make([]float64, 20)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	Parallelism(1)
	want := m.MulVec(x, nil)
	Parallelism(8)
	SerialThreshold(1 << 20) // far above this matrix's nnz
	got := m.MulVec(x, nil)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("below-threshold path not bitwise serial at %d", i)
		}
	}
}

// TestParallelHelpers checks ParRange / ParReduce / ParReduceMax.
func TestParallelHelpers(t *testing.T) {
	withParallel(t, 5, func() {
		n := 10_000
		seen := make([]int32, n)
		ParRange(n, n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				seen[i]++
			}
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("ParRange visited index %d %d times", i, c)
			}
		}
		sum := ParReduce(n, n, func(lo, hi int) float64 {
			s := 0.0
			for i := lo; i < hi; i++ {
				s += float64(i)
			}
			return s
		})
		if want := float64(n*(n-1)) / 2; math.Abs(sum-want) > 1e-6 {
			t.Fatalf("ParReduce = %v, want %v", sum, want)
		}
		max := ParReduceMax(n, n, func(lo, hi int) float64 {
			m := 0.0
			for i := lo; i < hi; i++ {
				if v := float64(i % 997); v > m {
					m = v
				}
			}
			return m
		})
		if max != 996 {
			t.Fatalf("ParReduceMax = %v, want 996", max)
		}
	})
}

// TestParallelKnobs pins the knob contracts.
func TestParallelKnobs(t *testing.T) {
	oldW := Parallelism(0)
	oldT := SerialThreshold(0)
	defer func() {
		Parallelism(oldW)
		SerialThreshold(oldT)
	}()
	if got := Parallelism(3); got != 3 {
		t.Fatalf("Parallelism(3) = %d", got)
	}
	if got := Parallelism(0); got != 3 {
		t.Fatalf("Parallelism query = %d, want 3", got)
	}
	if got := Parallelism(100000); got != maxParallelism {
		t.Fatalf("Parallelism clamp = %d, want %d", got, maxParallelism)
	}
	if got := SerialThreshold(12345); got != 12345 {
		t.Fatalf("SerialThreshold(12345) = %d", got)
	}
}

// TestParallelRace hammers the kernels from many goroutines sharing the
// same matrices; run with `go test -race ./internal/sparse` to verify
// the engine is data-race free (matrices are immutable, outputs are
// goroutine-local).
func TestParallelRace(t *testing.T) {
	oldW := Parallelism(0)
	defer Parallelism(oldW)
	rng := rand.New(rand.NewSource(99))
	m := randomCSR(rng, 400, 300, 12)
	b := randomCSR(rng, 300, 200, 8)
	x := make([]float64, 300)
	xt := make([]float64, 400)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for i := range xt {
		xt[i] = rng.NormFloat64()
	}
	Parallelism(1)
	want := m.MulVec(x, nil)
	withParallel(t, 6, func() {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for it := 0; it < 5; it++ {
					got := m.MulVec(x, nil)
					for i := range got {
						if got[i] != want[i] {
							t.Errorf("concurrent MulVec diverged at %d", i)
							return
						}
					}
					m.MulVecT(xt, nil)
					m.Transpose()
					m.RowNormalized()
					mulOf(m, b)
				}
			}()
		}
		wg.Wait()
	})
}

// TestNestedParallelNoDeadlock runs parallel kernels from inside
// ParRange bodies, the shape the algorithm packages produce (e.g.
// RankClus ranking clusters in parallel, each cluster calling MulVec).
func TestNestedParallelNoDeadlock(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := randomCSR(rng, 300, 300, 10)
	x := make([]float64, 300)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	withParallel(t, 4, func() {
		ParRange(16, 1<<30, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				m.MulVec(x, nil)
				m.MulVecT(x, nil)
			}
		})
	})
}

// TestParallelismShrinksPool pins the knob contract that lowering the
// cap retires excess resident workers (each exits after its next task).
func TestParallelismShrinksPool(t *testing.T) {
	oldW := Parallelism(0)
	oldT := SerialThreshold(0)
	defer func() {
		Parallelism(oldW)
		SerialThreshold(oldT)
	}()
	SerialThreshold(1)
	Parallelism(6)
	ParRange(1000, 1<<20, func(lo, hi int) {}) // grow the pool to 6 workers
	Parallelism(2)
	resident := 0
	for i := 0; i < 500; i++ {
		ParRange(1000, 1<<20, func(lo, hi int) {})
		sharedPool.mu.Lock()
		resident = sharedPool.started
		sharedPool.mu.Unlock()
		if resident <= 2 {
			return
		}
	}
	t.Fatalf("pool did not shrink after cap drop: %d resident workers", resident)
}

// TestParallelPanicPropagates pins that a panic inside a parallel task
// re-raises on the calling goroutine instead of killing the process.
func TestParallelPanicPropagates(t *testing.T) {
	withParallel(t, 4, func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want \"boom\"", r)
			}
		}()
		ParRange(1000, 1<<20, func(lo, hi int) { panic("boom") })
		t.Fatal("ParRange returned instead of panicking")
	})
}
