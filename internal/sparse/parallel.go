// Parallel execution engine for the sparse kernels.
//
// Every heavy kernel in this package (MulVec, MulVecT, Mul, Transpose,
// RowNormalized) dispatches row blocks onto a shared worker pool sized
// by GOMAXPROCS, under one rule (grainBlocks): a block must carry at
// least SerialThreshold estimated scalar work, and an operation too
// small for two such blocks runs inline on the goroutine that asked —
// a hand-off to another core costs more than it saves below that. The
// same machinery is exported as ParRange / ParReduce / ParReduceMax so
// the iterative algorithm packages (rank, simrank, netclus, core, …)
// can parallelize their own element-wise and reduction loops over the
// identical pool, and as Do, which runs independent whole jobs side by
// side on it — the coarse form: a caller with several things to compute
// that each stay below the grain hands them over one job apiece instead
// of cutting any of them up.
//
// Determinism: for a fixed Parallelism and SerialThreshold setting the
// block partition of any given operation is a pure function of the
// input shape, and block-local partial results are always combined in
// block order. Runs are therefore reproducible; reductions may differ
// from the serial order by floating-point rounding only (≤ 1e-12 in the
// equivalence tests), and an operation below two grains is the serial
// loop whatever the worker count. Jobs handed to Do each own their
// result, so running them side by side changes no bit of any of them.

package sparse

import (
	"context"
	"math"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

const (
	// defaultSerialThreshold is the grain: the least estimated scalar
	// work (multiply-adds) a block must carry, so an operation splits
	// from twice this on. Derived from BenchmarkMatVecCrossover (table in
	// docs/OPERATIONS.md): on the 2-core VM class the benchmark gates on,
	// a mat-vec split in two loses to the serial loop up to 64 k stored
	// entries and wins or ties from 128 k, at 4 000 and at 16 000 rows.
	defaultSerialThreshold = 1 << 16
	// blocksPerWorker oversubscribes blocks for load balance on skewed
	// matrices.
	blocksPerWorker = 4
	// maxParallelism bounds the worker pool.
	maxParallelism = 256
)

var (
	workerCap  atomic.Int64 // 0 ⇒ use GOMAXPROCS
	workLimit  atomic.Int64 // SerialThreshold: the least work per block
	sharedPool struct {
		mu      sync.Mutex
		tasks   chan func() // a kernel's blocks: they only compute, so any waiter may run one
		jobs    chan func() // Do's invitations to whole jobs: for idle workers only
		started int
	}
)

func init() {
	workLimit.Store(defaultSerialThreshold)
	// Deploy-time overrides (see docs/OPERATIONS.md): HINET_WORKERS caps
	// the pool like Parallelism(n), HINET_SERIAL_THRESHOLD moves the
	// serial-vs-parallel cutoff like SerialThreshold(n). Programmatic
	// calls made later (e.g. hinet serve -workers) still win.
	if v, err := strconv.Atoi(os.Getenv("HINET_WORKERS")); err == nil && v > 0 {
		Parallelism(v)
	}
	if v, err := strconv.Atoi(os.Getenv("HINET_SERIAL_THRESHOLD")); err == nil && v > 0 {
		SerialThreshold(v)
	}
}

// Parallelism sets the maximum number of pool workers used by the
// parallel kernels when n > 0 (clamped to [1, 256]) and returns the
// effective value. Parallelism(0) queries without changing anything.
// The default (and the value used when the knob has never been set) is
// GOMAXPROCS. Parallelism(1) forces every kernel down its serial path,
// which is how the benchmarks measure serial baselines. Lowering the
// cap below the current pool size takes effect as each excess resident
// worker finishes its next task and retires.
func Parallelism(n int) int {
	if n > 0 {
		if n > maxParallelism {
			n = maxParallelism
		}
		workerCap.Store(int64(n))
	}
	return effectiveWorkers()
}

// SerialThreshold sets the grain of the parallel engine when n > 0 and
// returns the current value: the least estimated work one block may
// carry, so an operation stays serial — inline on its caller — below
// twice this and is cut into at most work/n blocks above. The unit is
// scalar multiply-adds (≈ NNZ for mat-vec). SerialThreshold(1) forces
// every splittable operation through the pool, which is how the
// equivalence tests drive the parallel paths. SerialThreshold(0)
// queries.
func SerialThreshold(n int) int {
	if n > 0 {
		workLimit.Store(int64(n))
	}
	return int(workLimit.Load())
}

func effectiveWorkers() int {
	w := int(workerCap.Load())
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > maxParallelism {
		w = maxParallelism
	}
	return w
}

// grainBlocks is the engine's one dispatch rule: how many blocks an
// operation of work estimated scalar operations over n independently
// computable units (rows, elements, queries) is cut into —
//
//	min(workers·perWorker, work / SerialThreshold, n)
//
// — where fewer than two means one: the operation runs inline on its
// caller and never reaches the pool. The grain keeps every block worth
// its hand-off; the result depends on the shape and the two knobs only.
func grainBlocks(n, work, perWorker int) int {
	w := effectiveWorkers()
	if w < 2 {
		return 1
	}
	if b := min(w*perWorker, work/int(workLimit.Load()), n); b >= 2 {
		return b
	}
	return 1
}

// splitBlocks is the rule for operations whose blocks share nothing:
// blocksPerWorker per worker, which evens out skewed rows.
func splitBlocks(n, work int) int {
	return grainBlocks(n, work, blocksPerWorker)
}

// scratchBlocks is the rule for the kernels whose every block carries a
// cols-sized dense accumulator or counter array (MulVecT, Transpose,
// MulCtx, GramCtx): one block per worker — more would multiply scratch
// residency, zeroing and the combine without improving balance — and
// none at all unless the work dominates that dimension-proportional
// overhead (wide, hollow matrices — e.g. per-cluster row restrictions
// over a full attribute space — stay serial).
func scratchBlocks(rows, work, cols int) int {
	if work < 4*cols {
		return 1
	}
	return grainBlocks(rows, work, 1)
}

// QueueDepth reports the number of tasks currently waiting on the
// shared pool's queues — a point-in-time backlog gauge for /metrics. A
// zero depth with busy workers is normal (runTasks callers help drain);
// a persistently high depth means kernels are arriving faster than the
// configured Parallelism can retire them.
func QueueDepth() int {
	sharedPool.mu.Lock()
	defer sharedPool.mu.Unlock()
	return len(sharedPool.tasks) + len(sharedPool.jobs)
}

// queues returns the shared pool's two channels, growing the pool to n
// resident workers. Workers are cheap (blocked goroutines); each one
// retires after a task if the Parallelism cap has dropped below its
// id, so a lowered cap shrinks the pool (sharedPool.started always
// equals the resident worker count).
func queues(n int) (tasks, jobs chan func()) {
	sharedPool.mu.Lock()
	if sharedPool.tasks == nil {
		sharedPool.tasks = make(chan func(), maxParallelism)
		sharedPool.jobs = make(chan func(), maxParallelism)
	}
	for sharedPool.started < n {
		go poolWorker(sharedPool.started, sharedPool.tasks, sharedPool.jobs)
		sharedPool.started++
	}
	tasks, jobs = sharedPool.tasks, sharedPool.jobs
	sharedPool.mu.Unlock()
	return tasks, jobs
}

func poolWorker(id int, tasks, jobs chan func()) {
	for {
		select {
		case f := <-tasks:
			f()
		case f := <-jobs:
			f()
		}
		if id >= effectiveWorkers() {
			sharedPool.mu.Lock()
			sharedPool.started--
			sharedPool.mu.Unlock()
			return
		}
	}
}

// group is one fork–join on the pool: what runTasks and Do wait for.
type group struct {
	wg        sync.WaitGroup
	panicOnce sync.Once
	panicVal  any
}

// run executes fn(i) as one member of the group, capturing a panic.
func (g *group) run(fn func(i int), i int) {
	// LIFO defers: the recover runs before wg.Done, so the panicVal
	// write happens-before wg.Wait's return.
	defer g.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			g.panicOnce.Do(func() { g.panicVal = r })
		}
	}()
	fn(i)
}

// wait blocks until every member has finished, running queued block
// tasks meanwhile, so nested parallel kernels can never deadlock the
// pool: a waiter either makes progress on queued work or observes
// completion. Block tasks only — they compute and return, whereas a
// whole job (Do) may wait on a lock or an in-flight computation that
// the waiting goroutine itself holds further down its stack. A panic in
// any member is re-raised here (first panic wins; the original stack is
// lost but the value is preserved), matching the serial kernels'
// recoverability.
func (g *group) wait(tasks chan func()) {
	done := make(chan struct{})
	go func() {
		g.wg.Wait()
		close(done)
	}()
	for {
		select {
		case <-done:
			if g.panicVal != nil {
				panic(g.panicVal)
			}
			return
		case f := <-tasks:
			f()
		}
	}
}

// runTasks executes fn(0..count-1) as block tasks on the shared pool
// and blocks until all complete, the calling goroutine helping (see
// group.wait). fn must only compute: it may call kernels and the Par
// helpers, but not wait on other goroutines' work.
func runTasks(count int, fn func(i int)) {
	if count == 1 {
		fn(0)
		return
	}
	tasks, _ := queues(effectiveWorkers())
	var g group
	g.wg.Add(count)
	for i := 0; i < count; i++ {
		f := func() { g.run(fn, i) }
		select {
		case tasks <- f:
		default:
			f() // pool saturated: run inline
		}
	}
	g.wait(tasks)
}

// Do runs independent whole jobs side by side on the shared pool and
// returns once all have finished — the coarse counterpart of the block
// kernels, for work that is several things to compute rather than one
// big thing to cut up (a write's PageRank, HITS and index refresh). With
// one job, or Parallelism 1, the jobs run inline on the caller in
// argument order, so the worker cap governs Do exactly as it governs the
// kernels. Otherwise the caller invites idle workers to the jobs and
// works through them itself, in order, taking whichever nobody has
// claimed yet: it never depends on a worker being free, so a job may
// itself call kernels, the Par helpers or Do at any pool cap. Unlike a
// kernel's blocks, a job is handed only to an idle worker, never to a
// goroutine that is waiting in the middle of something else — a job may
// take locks and wait on shared computations (the meta-path engine's
// singleflight), and the waiter might be the one holding them. Jobs
// must not share mutable state; the first panic among them is re-raised
// on the caller after the rest have finished.
func Do(jobs ...func()) {
	workers := effectiveWorkers()
	if len(jobs) < 2 || workers < 2 {
		for _, job := range jobs {
			job()
		}
		return
	}
	tasks, handoffs := queues(workers)
	var g group
	g.wg.Add(len(jobs))
	var next atomic.Int64
	run := func(i int) { jobs[i]() }
	claim := func() {
		for i := int(next.Add(1)) - 1; i < len(jobs); i = int(next.Add(1)) - 1 {
			g.run(run, i)
		}
	}
	// One invitation per job beyond the caller's own, as far as there are
	// workers; one answered after the jobs are gone finds nothing to claim.
	for i := 0; i < min(len(jobs)-1, workers); i++ {
		select {
		case handoffs <- claim:
		default: // queue full: the caller gets to it
		}
	}
	claim()
	g.wait(tasks)
}

// scratchPool recycles the cols-sized accumulators of MulVecT's
// parallel path so power iterations don't re-allocate every call. It
// holds *[]float64: a slice stored by value is boxed on every Put.
var scratchPool sync.Pool

func getScratch(n int) *[]float64 {
	if buf, _ := scratchPool.Get().(*[]float64); buf != nil && cap(*buf) >= n {
		*buf = (*buf)[:n]
		clear(*buf)
		return buf
	}
	buf := make([]float64, n)
	return &buf
}

func putScratch(buf *[]float64) { scratchPool.Put(buf) }

// spgemmScratch is the Gustavson working set of one mulRange/gramRange
// call: a dense accumulator, its stamp array, and the touched-column
// list. The pool keeps these alive across products so SpGEMM-heavy
// workloads (meta-path materialization, commuting matrices) stop
// allocating cols-sized scratch per row block per call.
//
// Stamps are never cleared between uses: each call marks row r with
// base+r+1 and advances base past its largest mark on release, so a
// stale stamp from any earlier product can never collide. base resets
// (with a one-off stamp clear) long before integer overflow.
type spgemmScratch struct {
	acc     []float64
	stamp   []int
	touched []int32
	base    int
}

var (
	spgemmPool sync.Pool

	// Pool effectiveness counters: a hit reuses pooled scratch, a miss
	// allocates fresh (first use, GC reclaim, or a too-small pooled
	// buffer). Exported via SpgemmPoolStats for the serving metrics.
	spgemmHits   atomic.Uint64
	spgemmMisses atomic.Uint64
)

// SpgemmPoolStats returns the cumulative SpGEMM scratch-pool hit and
// miss counts since process start.
func SpgemmPoolStats() (hits, misses uint64) {
	return spgemmHits.Load(), spgemmMisses.Load()
}

// getSpgemm returns scratch with acc/stamp sized n whose stamp marks
// base+1 … base+maxMark are guaranteed unused.
func getSpgemm(n, maxMark int) *spgemmScratch {
	if v := spgemmPool.Get(); v != nil {
		s := v.(*spgemmScratch)
		if cap(s.acc) >= n {
			spgemmHits.Add(1)
			s.acc = s.acc[:n]
			s.stamp = s.stamp[:n]
			if s.base > math.MaxInt-maxMark-1 {
				// Reset must clear the stamp's full capacity: a later,
				// wider reslice would otherwise see stale marks beyond
				// the current length colliding with post-reset epochs.
				full := s.stamp[:cap(s.stamp)]
				for i := range full {
					full[i] = 0
				}
				s.base = 0
			}
			return s
		}
	}
	spgemmMisses.Add(1)
	return &spgemmScratch{
		acc:     make([]float64, n),
		stamp:   make([]int, n),
		touched: make([]int32, 0, 256),
	}
}

// putSpgemm releases scratch whose call marked rows up to maxMark.
func putSpgemm(s *spgemmScratch, maxMark int) {
	s.base += maxMark
	spgemmPool.Put(s)
}

// ParRange runs body over contiguous sub-ranges of [0, n), in parallel
// on the shared pool when the estimated scalar work fills at least two
// blocks of the SerialThreshold grain and more than one worker is
// configured; otherwise it calls body(0, n) inline. Blocks are
// disjoint, so body may freely write to per-index slots of shared
// slices.
func ParRange(n, work int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	blocks := splitBlocks(n, work)
	if blocks == 1 {
		body(0, n)
		return
	}
	runTasks(blocks, func(b int) {
		body(n*b/blocks, n*(b+1)/blocks)
	})
}

// ctxDone returns ctx's done channel, or nil when ctx is nil or can
// never be canceled (context.Background and friends). A nil channel is
// the "no cancellation" fast path: kernels skip every poll.
func ctxDone(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}

// chanClosed is the cooperative-cancellation poll: a single
// non-blocking receive, cheap enough to sit inside row-block loops.
func chanClosed(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// checkpoint is a SpGEMM row-block checkpoint under a cancelable ctx:
// it reports whether done is closed and, if not, yields the processor.
// A product built for a request (a cold path= index) then shares one
// core with the reads beside it instead of holding it until async
// preemption; products without a ctx (a write's) never get here.
func checkpoint(done <-chan struct{}) bool {
	if chanClosed(done) {
		return true
	}
	runtime.Gosched()
	return false
}

// ParRangeCtx is ParRange with cooperative cancellation: ctx is polled
// before each block, and once it is done the remaining blocks are
// skipped. Blocks already dispatched still run to completion — bodies
// that want finer-grained cancellation can poll ctx themselves — so on
// a non-nil return (ctx.Err()) the caller must discard any partial
// results. With a non-cancelable ctx this is exactly ParRange.
func ParRangeCtx(ctx context.Context, n, work int, body func(lo, hi int)) error {
	if n <= 0 {
		return nil
	}
	done := ctxDone(ctx)
	if done == nil {
		ParRange(n, work, body)
		return nil
	}
	if chanClosed(done) {
		return ctx.Err()
	}
	blocks := splitBlocks(n, work)
	if blocks == 1 {
		// Inline, but still in chunks, so a long range observes
		// cancellation between them.
		chunks := min(effectiveWorkers()*blocksPerWorker, n)
		for b := 0; b < chunks; b++ {
			if chanClosed(done) {
				return ctx.Err()
			}
			body(n*b/chunks, n*(b+1)/chunks)
		}
		return nil
	}
	runTasks(blocks, func(b int) {
		if chanClosed(done) {
			return
		}
		body(n*b/blocks, n*(b+1)/blocks)
	})
	if chanClosed(done) {
		// Some block may have been skipped; even if none were, the
		// caller asked to stop — report it. (A skipped block implies a
		// closed channel, so nil is only returned for complete runs.)
		return ctx.Err()
	}
	return nil
}

// ParReduce sums f over block partitions of [0, n). Partial sums are
// combined in block order, so results are reproducible for fixed
// parallelism settings (they can differ from the serial sum by rounding
// only). With too little work to split it returns f(0, n).
func ParReduce(n, work int, f func(lo, hi int) float64) float64 {
	if n <= 0 {
		return 0
	}
	blocks := splitBlocks(n, work)
	if blocks == 1 {
		return f(0, n)
	}
	partial := make([]float64, blocks)
	runTasks(blocks, func(b int) {
		partial[b] = f(n*b/blocks, n*(b+1)/blocks)
	})
	s := 0.0
	for _, p := range partial {
		s += p
	}
	return s
}

// ParReduceMax maximizes f over block partitions of [0, n). Max is
// order-independent, so the result is bitwise identical to the serial
// evaluation. f must return -Inf-safe values; ParReduceMax of an empty
// range is 0.
func ParReduceMax(n, work int, f func(lo, hi int) float64) float64 {
	if n <= 0 {
		return 0
	}
	blocks := splitBlocks(n, work)
	if blocks == 1 {
		return f(0, n)
	}
	partial := make([]float64, blocks)
	runTasks(blocks, func(b int) {
		partial[b] = f(n*b/blocks, n*(b+1)/blocks)
	})
	m := partial[0]
	for _, p := range partial[1:] {
		if p > m {
			m = p
		}
	}
	return m
}

// rowBlockBounds splits the matrix's rows into at most `blocks`
// contiguous ranges balanced by stored nonzeros, returning the
// boundary rows (len = count+1, bounds[0] = 0, bounds[count] = rows).
func (m *Matrix) rowBlockBounds(blocks int) []int {
	bounds := make([]int, blocks+1)
	nnz := len(m.vals)
	for b := 1; b < blocks; b++ {
		target := nnz * b / blocks
		// First row whose cumulative nnz reaches the target.
		lo, hi := bounds[b-1], m.rows
		for lo < hi {
			mid := (lo + hi) / 2
			if m.rowPtr[mid] < target {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		bounds[b] = lo
	}
	bounds[blocks] = m.rows
	return bounds
}

// forRowBlocks runs body over nnz-balanced row blocks of m, inline when
// the work estimate is too small to split.
func (m *Matrix) forRowBlocks(work int, body func(lo, hi int)) {
	blocks := splitBlocks(m.rows, work)
	if blocks == 1 {
		body(0, m.rows)
		return
	}
	bounds := m.rowBlockBounds(blocks)
	runTasks(blocks, func(b int) {
		if bounds[b] < bounds[b+1] {
			body(bounds[b], bounds[b+1])
		}
	})
}
