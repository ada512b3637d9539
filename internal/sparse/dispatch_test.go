package sparse

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// withKnobs runs f under the given Parallelism and SerialThreshold and
// restores the previous settings.
func withKnobs(t testing.TB, workers, threshold int, f func()) {
	t.Helper()
	oldW, oldT := Parallelism(0), SerialThreshold(0)
	Parallelism(workers)
	SerialThreshold(threshold)
	defer func() {
		Parallelism(oldW)
		SerialThreshold(oldT)
	}()
	f()
}

// onCaller reports whether the calling function runs on a goroutine
// that has name among its frames — the test's own, as opposed to a pool
// worker's.
func onCaller(name string) bool {
	buf := make([]byte, 8<<10)
	return strings.Contains(string(buf[:runtime.Stack(buf, false)]), name)
}

// TestDispatchGrain pins the one dispatch rule: blocks = min(workers ×
// blocksPerWorker, work / SerialThreshold, units), one per worker for
// the kernels that carry per-block scratch, and fewer than two is one —
// which runs inline on the caller and never reaches the pool.
func TestDispatchGrain(t *testing.T) {
	const g = 1 << 16
	for _, c := range []struct {
		work, workers, threshold, units int
		split, scratch                  int
	}{
		{35_000, 2, g, 4000, 1, 1},  // a rank iteration's mat-vec stays where it is
		{2*g - 1, 2, g, 4000, 1, 1}, // one grain and a bit: still one block
		{2 * g, 2, g, 4000, 2, 2},   // two full grains split
		{150_000, 2, g, 4000, 2, 2},
		{150_000, 8, g, 4000, 2, 2},  // the grain, not the worker count, bounds a small split
		{1 << 20, 2, g, 4000, 8, 2},  // the workers bound a large one
		{1 << 20, 8, g, 4000, 16, 8}, // …oversubscribed only where blocks carry no scratch
		{1 << 30, 64, g, 5, 5, 5},    // never more blocks than units
		{1 << 30, 1, g, 4000, 1, 1},  // one worker: always inline
		{1 << 30, 4, 1 << 30, 4000, 1, 1},
		{2, 2, 1, 4000, 2, 2}, // SerialThreshold(1) forces every splittable operation
		{4000, 4, 1, 4000, 16, 4},
		{1, 4, 1, 4000, 1, 1},    // …but there is no splitting one unit of work
		{1 << 20, 4, 1, 1, 1, 1}, // or one row
		{0, 4, 1, 0, 1, 1},
	} {
		withKnobs(t, c.workers, c.threshold, func() {
			if got := splitBlocks(c.units, c.work); got != c.split {
				t.Errorf("splitBlocks(units %d, work %d) at %d workers, grain %d = %d, want %d",
					c.units, c.work, c.workers, c.threshold, got, c.split)
			}
			if got := scratchBlocks(c.units, c.work, 0); got != c.scratch { // cols 0: the accumulator guard is checked below
				t.Errorf("scratchBlocks(rows %d, work %d) at %d workers, grain %d = %d, want %d",
					c.units, c.work, c.workers, c.threshold, got, c.scratch)
			}
		})
	}
	// The accumulator guard: work that does not dominate the cols-sized
	// scratch stays serial at any grain.
	withKnobs(t, 4, 1, func() {
		if got := scratchBlocks(40, 120, 5000); got != 1 {
			t.Errorf("scratchBlocks over a wide hollow matrix = %d, want 1", got)
		}
	})

	// One block runs on the goroutine that asked, through every helper
	// and kernel; two or more may run anywhere.
	m := randomCSR(rand.New(rand.NewSource(3)), 300, 300, 10)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inline := func(label string, chunks int, call func(body func())) {
		t.Helper()
		calls, away := 0, 0
		call(func() {
			calls++ // one block: no concurrent caller
			if !onCaller("TestDispatchGrain") {
				away++
			}
		})
		if calls != chunks || away != 0 {
			t.Errorf("%s below two grains: %d calls, %d off the asking goroutine; want %d and 0", label, calls, away, chunks)
		}
	}
	withKnobs(t, 4, m.NNZ(), func() { // work < 2 × grain everywhere below
		inline("ParRange", 1, func(body func()) { ParRange(300, m.NNZ(), func(lo, hi int) { body() }) })
		// A cancelable range polls between chunks, all of them inline.
		inline("ParRangeCtx", 4*blocksPerWorker, func(body func()) {
			if err := ParRangeCtx(ctx, 300, m.NNZ(), func(lo, hi int) { body() }); err != nil {
				t.Error(err)
			}
		})
		inline("ParReduce", 1, func(body func()) {
			ParReduce(300, m.NNZ(), func(lo, hi int) float64 { body(); return 0 })
		})
		inline("ParReduceMax", 1, func(body func()) {
			ParReduceMax(300, m.NNZ(), func(lo, hi int) float64 { body(); return 0 })
		})
		inline("forRowBlocks", 1, func(body func()) { m.forRowBlocks(m.NNZ(), func(lo, hi int) { body() }) })
	})
	var blocks atomic.Int32
	withKnobs(t, 4, 1, func() {
		ParRange(300, 300, func(lo, hi int) { blocks.Add(1) })
	})
	if blocks.Load() != 4*blocksPerWorker {
		t.Errorf("forced ParRange ran %d blocks, want %d", blocks.Load(), 4*blocksPerWorker)
	}
}

// TestDo pins the whole-job helper: inline and in argument order at one
// worker or one job, every job exactly once otherwise, kernels and Do
// itself nested inside jobs at pool caps 1 and 2, no job handed to a
// goroutine that is waiting inside another, and the first panic
// re-raised on the caller after the other jobs have finished.
func TestDo(t *testing.T) {
	Do() // no jobs: nothing to wait for
	ran := false
	withKnobs(t, 4, 1, func() {
		Do(func() { ran = onCaller("TestDo") })
	})
	if !ran {
		t.Fatal("a single job must run inline on the caller")
	}

	var order []int
	withKnobs(t, 1, 1, func() {
		Do(func() { order = append(order, 0) },
			func() { order = append(order, 1) },
			func() { order = append(order, 2) })
	})
	if fmt.Sprint(order) != "[0 1 2]" {
		t.Fatalf("at Parallelism(1) jobs ran as %v, want argument order", order)
	}

	rng := rand.New(rand.NewSource(17))
	m := randomCSR(rng, 300, 300, 10)
	x := make([]float64, 300)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	var want []float64
	withKnobs(t, 1, 1, func() { want = m.MulVec(x, nil) })
	for _, workers := range []int{1, 2, 4} {
		withKnobs(t, workers, 1, func() {
			got := make([][]float64, 6)
			var inner [2]atomic.Int32
			jobs := make([]func(), len(got))
			for i := range jobs {
				jobs[i] = func() {
					// Forced-parallel kernels and a nested Do inside a job.
					got[i] = m.MulVec(x, nil)
					m.MulVecT(x, nil)
					Do(func() { inner[0].Add(1) }, func() { inner[1].Add(1); m.Transpose() })
				}
			}
			Do(jobs...)
			for i, y := range got {
				if len(y) != len(want) {
					t.Fatalf("workers %d: job %d did not run", workers, i)
				}
				for r := range y {
					if y[r] != want[r] {
						t.Fatalf("workers %d: job %d's MulVec differs from the serial one at row %d", workers, i, r)
					}
				}
			}
			if a, b := inner[0].Load(), inner[1].Load(); a != 6 || b != 6 {
				t.Fatalf("workers %d: nested jobs ran %d and %d times, want 6 each", workers, a, b)
			}
		})
	}

	// A job may hold a lock across a kernel: the goroutine waiting for that
	// kernel's blocks must not be handed a sibling job that wants the lock.
	withKnobs(t, 2, 1, func() {
		var mu sync.Mutex
		jobs := []func(){func() {
			mu.Lock()
			defer mu.Unlock()
			for i := 0; i < 20; i++ {
				m.MulVec(x, nil)
			}
		}}
		for i := 0; i < 8; i++ {
			jobs = append(jobs, func() { mu.Lock(); mu.Unlock() })
		}
		Do(jobs...)
	})

	withKnobs(t, 2, 1, func() {
		var finished atomic.Int32
		defer func() {
			if r := recover(); r != "job 1" {
				t.Fatalf("recovered %v, want the panicking job's value", r)
			}
			if finished.Load() != 2 {
				t.Fatalf("%d of the 2 other jobs had finished when the panic surfaced", finished.Load())
			}
		}()
		Do(func() { finished.Add(1) }, func() { panic("job 1") }, func() { finished.Add(1) })
		t.Fatal("Do returned instead of panicking")
	})
}

// TestParallelMulVecTSteadyStateAllocs: the per-block accumulators of a
// parallel MulVecT are recycled through scratchPool without boxing a
// slice header per block, so a steady-state call allocates only its
// dispatch bookkeeping.
func TestParallelMulVecTSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments sync.Pool and allocations")
	}
	rng := rand.New(rand.NewSource(29))
	const n = 4000
	m := randomCSR(rng, n, n, 8)
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()
	}
	y := make([]float64, n)
	withKnobs(t, 2, 1, func() {
		// AllocsPerRun warms up with one call and floors the mean, so the
		// odd refill after a collection has emptied the pool does not count.
		if got := testing.AllocsPerRun(200, func() { m.MulVecT(x, y) }); got > mulVecTBookkeeping {
			t.Fatalf("parallel MulVecT makes %.0f allocations per call, want ≤ %d: an accumulator is allocated, or boxed on its way back to the pool", got, mulVecTBookkeeping)
		}
	})
}

// TestSerialMatVecAllocatesNothing: a product too small to split runs
// inline and allocates nothing, both ways, so an iterative caller's
// step (HITS applies A·Aᵀ as a MulVecT then a MulVec) allocates nothing.
func TestSerialMatVecAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	rng := rand.New(rand.NewSource(31))
	const n = 800
	m := randomCSR(rng, n, n, 10)
	x, y := make([]float64, n), make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()
	}
	withKnobs(t, 2, 64<<10, func() {
		if got := testing.AllocsPerRun(100, func() { m.MulVec(x, y) }); got != 0 {
			t.Errorf("serial MulVec makes %.0f allocations per call", got)
		}
		if got := testing.AllocsPerRun(100, func() { m.MulVecT(x, y) }); got != 0 {
			t.Errorf("serial MulVecT makes %.0f allocations per call", got)
		}
	})
}

// mulVecTBookkeeping is the allocation count of one two-block parallel
// MulVecT at two workers apart from its accumulators: bounds, partial,
// the closures, and for each of its two trips through the pool (the
// scatter, then the combine's ParRange) the group, one task per block,
// the done channel and the waiter goroutine. With the accumulators
// pooled by value it was one more per block.
const mulVecTBookkeeping = 25

// BenchmarkMatVecCrossover is the measurement SerialThreshold's default
// is derived from (table in docs/OPERATIONS.md): MulVec and MulVecT over
// random n×n matrices of growing population, serial (workers 1) against
// split in exactly two blocks on two workers — the marginal decision the
// grain governs. The default puts the split where the two-block rows
// start winning.
func BenchmarkMatVecCrossover(b *testing.B) {
	for _, n := range []int{4000, 16000} {
		for _, nnz := range []int{16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20} {
			rng := rand.New(rand.NewSource(int64(n + nnz)))
			entries := make([]Coord, nnz)
			for i := range entries {
				entries[i] = Coord{rng.Intn(n), rng.Intn(n), rng.Float64()}
			}
			m := NewFromCoords(n, n, entries)
			x := make([]float64, n)
			for i := range x {
				x[i] = rng.Float64()
			}
			y := make([]float64, n)
			for _, k := range []struct {
				name string
				run  func()
			}{
				{"MulVec", func() { m.MulVec(x, y) }},
				{"MulVecT", func() { m.MulVecT(x, y) }},
			} {
				for _, workers := range []int{1, 2} {
					b.Run(fmt.Sprintf("%s/n=%d/nnz=%dk/workers=%d", k.name, n, nnz>>10, workers), func(b *testing.B) {
						withKnobs(b, workers, m.NNZ()/2, func() {
							k.run()
							b.ResetTimer()
							for i := 0; i < b.N; i++ {
								k.run()
							}
						})
					})
				}
			}
		}
	}
}
