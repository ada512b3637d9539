// Package metapath is the meta-path compilation and materialization
// engine: it turns meta-path specs (strings like "A-P-V-P-A" or typed
// sequences) into commuting matrices the cheap way.
//
// Meta-paths are the paper's central query primitive — PathSim,
// projections and the bipartite/star views all reduce to products of
// relation matrices along a type sequence — and computing those
// products is the scalability bottleneck of the whole family (Shi et
// al.'s HIN survey). The engine attacks the cost three ways:
//
//   - a cost-based planner (plan.go) picks the sparse matrix-chain
//     association order by dynamic programming over nnz/flop estimates,
//     instead of multiplying strictly left-to-right;
//   - symmetric paths are factored through a half-path Gram product
//     (M = H·Hᵀ via the fused sparse.Matrix.Gram kernel), computing
//     half the path and half the final product's multiply work;
//   - an epoch-aware materialization cache canonicalizes sub-paths (a
//     path and its reverse share one entry, reached by a cheap
//     transpose) and reuses every intermediate across queries;
//   - a product invalidated by a mutation is kept as a stale patch base
//     and refreshed row-incrementally (patch.go): only the rows the
//     changed operand rows reach are recomputed, and the rest is copied.
//
// The engine sees the network through the Source interface, so this
// package depends only on internal/sparse; internal/hin adapts its
// Network into a Source and owns one engine per network (see
// Network.PathEngine), which is how every CommutingMatrix call site in
// the repository shares one cache.
package metapath

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hinet/internal/sparse"
)

// Source is the network view the engine plans against. Type names are
// plain strings so implementations outside internal/hin (tests,
// adapters) stay trivial.
type Source interface {
	// Types lists the object type names in registration order.
	Types() []string
	// HasType reports whether t is a registered type.
	HasType(t string) bool
	// Count returns the number of objects of type t.
	Count(t string) int
	// HasRelation reports whether any links exist between the two
	// types, in either orientation.
	HasRelation(a, b string) bool
	// Relation returns the weighted a×b adjacency matrix. The engine
	// relies on Relation(a, b) being the exact transpose of
	// Relation(b, a) whenever a != b.
	Relation(a, b string) *sparse.Matrix
}

// maxEntries bounds the materialization cache, stale patch bases
// included. Beyond it a new path first evicts a stale base and, with
// none left, is still answered but not retained, so a server fed
// adversarial path streams cannot grow memory without bound.
const maxEntries = 256

// entry is one cached materialization. ready is closed once m is set,
// so concurrent askers of the same path share a single computation
// (singleflight) instead of racing duplicate products. path is the
// type sequence the entry was materialized for — selective
// invalidation (Invalidate) matches against it.
//
// An entry also remembers what m was computed from: the operand
// matrices and, for a planned product, the split point. Invalidate
// marks a matching entry stale instead of deleting it; the next asker
// replaces it with a fresh entry whose computation row-diffs the
// current operands against the remembered ones and patches m (see
// patch.go). stale and base are guarded by Engine.mu.
type entry struct {
	ready chan struct{}
	path  []string
	m     *sparse.Matrix

	ops   [2]*sparse.Matrix // operands m was computed from; ops[1] only for a planned product
	split int               // a planned product's split point
	stale bool              // invalidated: m is a patch base, not an answer
	base  *entry            // while in flight: the stale entry this one replaces
}

// closedReady is the pre-closed channel entries adopted by CloneFor
// share (their matrices are already materialized).
var closedReady = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// Stats is a snapshot of the engine's counters.
type Stats struct {
	Epoch       int64 // cache generation (the owning network's version)
	Entries     int   // materialized matrices currently cached (stale patch bases not counted)
	Hits        uint64
	Misses      uint64
	Products    uint64        // sparse products issued (planned splits)
	Grams       uint64        // half-path Gram factorizations issued
	Transposes  uint64        // reversed-orientation answers derived by transpose
	ProductTime time.Duration // cumulative wall time materializing planned products
	GramTime    time.Duration // cumulative wall time materializing Gram products

	// The patch route's share of the above: products (either kind)
	// refreshed from a stale base, the rows recomputed for them, and the
	// wall time that took. A patched Gram counts once in Grams and once
	// here.
	Patches     uint64
	PatchedRows uint64
	PatchTime   time.Duration
}

// Engine compiles, plans, materializes and caches meta-path commuting
// matrices over one Source. All methods are safe for concurrent use;
// computations for distinct paths proceed in parallel, and concurrent
// requests for the same (sub-)path share one computation.
type Engine struct {
	src Source

	mu      sync.Mutex
	epoch   int64
	entries map[string]*entry

	hits       atomic.Uint64
	misses     atomic.Uint64
	products   atomic.Uint64
	grams      atomic.Uint64
	transposes atomic.Uint64
	patches    atomic.Uint64
	patchRows  atomic.Uint64

	// Cumulative nanoseconds spent materializing products — the "where
	// does materialization time go" split the serving tier exports
	// (planned splits vs. Gram factorizations, and the patch route's
	// share of both).
	productNS atomic.Int64
	gramNS    atomic.Int64
	patchNS   atomic.Int64
}

// New returns an engine over src with an empty cache at epoch 0.
func New(src Source) *Engine {
	return &Engine{src: src, entries: make(map[string]*entry)}
}

// SyncEpoch invalidates the cache if v differs from the engine's
// current epoch (the owner calls this with its mutation counter, so a
// network edit after materialization can never serve stale products).
// Owners that know *which* relations a mutation touched should call
// Invalidate instead — it moves the epoch while keeping every entry
// the mutation cannot have affected.
func (e *Engine) SyncEpoch(v int64) {
	e.mu.Lock()
	if v != e.epoch {
		e.epoch = v
		e.entries = make(map[string]*entry)
	}
	e.mu.Unlock()
}

// Invalidate moves the cache to epoch v, withdrawing only the entries
// whose path matches drop. This is the selective form of SyncEpoch the
// incremental-ingestion path uses: a mutation confined to one relation
// (or one grown type) invalidates exactly the sub-paths that read it,
// and every other cached materialization survives the epoch move. A
// withdrawn entry stops being an answer but stays as a stale patch
// base: its next asker recomputes only the rows the mutation reached.
// In-flight computations that match are detached from the cache (the
// entry they were replacing, if any, goes back in their place, stale);
// their waiters still receive the (pre-mutation) result, which is only
// safe because owners never mutate concurrently with queries.
func (e *Engine) Invalidate(v int64, drop func(path []string) bool) {
	e.mu.Lock()
	e.epoch = v
	for k, ent := range e.entries {
		if !drop(ent.path) {
			continue
		}
		select {
		case <-ent.ready:
			ent.stale = true
		default:
			if ent.base != nil {
				ent.base.stale = true
				e.entries[k] = ent.base
			} else {
				delete(e.entries, k)
			}
		}
	}
	e.mu.Unlock()
}

// CloneFor returns a new engine over src at epoch v, seeded with every
// *completed* cached materialization of the receiver (in-flight
// computations are skipped, not awaited, and stale patch bases are left
// behind — a base nobody refreshed during a whole generation is not
// worth carrying into the next). Matrices are shared, not copied —
// they are immutable — so cloning is O(entries). This is how a
// copy-on-write network clone (hin.Network.Clone) carries the warm
// materialization cache into its new generation; counters start at
// zero.
func (e *Engine) CloneFor(src Source, v int64) *Engine {
	ne := New(src)
	ne.epoch = v
	e.mu.Lock()
	for k, ent := range e.entries {
		select {
		case <-ent.ready:
			if !ent.stale {
				ne.entries[k] = &entry{ready: closedReady, path: ent.path, m: ent.m, ops: ent.ops, split: ent.split}
			}
		default:
		}
	}
	e.mu.Unlock()
	return ne
}

// Reset drops every cached materialization, stale patch bases included,
// so the next evaluation of any path runs the full kernels (the
// benchmarks time cold planned evaluations this way, and the
// differential tests use it as the oracle for patched products).
func (e *Engine) Reset() {
	e.mu.Lock()
	e.entries = make(map[string]*entry)
	e.mu.Unlock()
}

// Stats returns the current counter values.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	epoch, entries := e.epoch, 0
	for _, ent := range e.entries {
		if !ent.stale {
			entries++
		}
	}
	e.mu.Unlock()
	return Stats{
		Epoch:       epoch,
		Entries:     entries,
		Hits:        e.hits.Load(),
		Misses:      e.misses.Load(),
		Products:    e.products.Load(),
		Grams:       e.grams.Load(),
		Transposes:  e.transposes.Load(),
		ProductTime: time.Duration(e.productNS.Load()),
		GramTime:    time.Duration(e.gramNS.Load()),
		Patches:     e.patches.Load(),
		PatchedRows: e.patchRows.Load(),
		PatchTime:   time.Duration(e.patchNS.Load()),
	}
}

// Validate checks that path is a well-formed meta-path over the source
// schema: at least two types, every type registered, and every adjacent
// pair connected by a relation. It returns nil or a descriptive error —
// never panics — making it the boundary that keeps malformed client
// paths out of the kernels.
func (e *Engine) Validate(path []string) error {
	if len(path) < 2 {
		return fmt.Errorf("metapath: path %q needs at least two types", join(path))
	}
	for _, t := range path {
		if !e.src.HasType(t) {
			return fmt.Errorf("metapath: unknown type %q (have %s)", t, strings.Join(e.src.Types(), ", "))
		}
	}
	for i := 0; i+1 < len(path); i++ {
		if !e.src.HasRelation(path[i], path[i+1]) {
			return fmt.Errorf("metapath: schema has no %s-%s relation", path[i], path[i+1])
		}
	}
	return nil
}

// CommuteCtx returns the commuting matrix of the meta-path: the product
// of relation matrices along it, evaluated in planned order with Gram
// factorization and sub-path reuse. The result must not be mutated (it
// may be shared with other callers through the cache — sparse matrices
// are immutable by convention).
//
// Cancellation is cooperative through the whole materialization chain:
// the planner recursion, the cached singleflight waits, and the SpGEMM
// kernels themselves (MulCtx / GramCtx row-block checkpoints). On
// cancellation it returns ctx.Err(); a cancelled in-flight computation
// withdraws its cache entry, so waiters with live contexts simply retry
// and recompute — a dead caller can never poison the cache.
func (e *Engine) CommuteCtx(ctx context.Context, path []string) (*sparse.Matrix, error) {
	if err := e.Validate(path); err != nil {
		return nil, err
	}
	return e.matrix(ctx, path)
}

// matrix materializes a validated path through the cache.
func (e *Engine) matrix(ctx context.Context, path []string) (*sparse.Matrix, error) {
	canon, rev := canonicalize(path)
	if !rev {
		return e.cached(ctx, join(path), path, e.compute)
	}
	// Reversed orientation: materialize the canonical orientation, then
	// derive this one by a cheap O(nnz) transpose — also cached, so
	// repeated reverse queries are pure lookups.
	return e.cached(ctx, join(path), path, func(ctx context.Context, _, _ *entry) (*sparse.Matrix, error) {
		m, err := e.cached(ctx, join(canon), canon, e.compute)
		if err != nil {
			return nil, err
		}
		e.transposes.Add(1)
		return m.Transpose(), nil
	})
}

// cached runs compute under a singleflight entry for key. compute
// receives the entry being filled (to record what the result was
// computed from) and, when the key held a stale entry, that entry as
// its patch base. When the cache is full of fresh entries, the value
// is computed but not retained. A waiter whose ctx dies while another
// goroutine computes abandons the wait (the computation itself keeps
// running for the live callers); a computing goroutine that fails —
// panic or cancellation — withdraws its entry, putting the stale base
// back if it had one, so later callers retry from the same place.
func (e *Engine) cached(ctx context.Context, key string, path []string, compute func(ctx context.Context, ent, base *entry) (*sparse.Matrix, error)) (*sparse.Matrix, error) {
	e.mu.Lock()
	base := e.entries[key] // nil, or stale once the fresh case below is past
	if ent := base; ent != nil && !ent.stale {
		e.mu.Unlock()
		if done := ctx.Done(); done != nil {
			select {
			case <-ent.ready:
			case <-done:
				return nil, ctx.Err()
			}
		} else {
			<-ent.ready
		}
		if ent.m == nil {
			// The computing goroutine panicked (or was cancelled) and
			// withdrew the entry; retry against the refreshed map.
			return e.cached(ctx, key, path, compute)
		}
		e.hits.Add(1)
		return ent.m, nil
	}
	e.misses.Add(1)
	ent := &entry{ready: make(chan struct{}), path: path, base: base}
	if base == nil && len(e.entries) >= maxEntries && !e.evictStale() {
		e.mu.Unlock()
		return compute(ctx, ent, nil)
	}
	e.entries[key] = ent
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		if ent.m == nil && e.entries[key] == ent {
			// compute panicked or was cancelled: step aside so later calls
			// retry, and release waiters (they observe the nil and
			// recompute). The pointer check keeps a concurrent Invalidate
			// + re-register under the same key from losing the fresh
			// entry.
			if base != nil {
				e.entries[key] = base
			} else {
				delete(e.entries, key)
			}
		}
		ent.base = nil // a completed entry must not pin the matrix it replaced
		e.mu.Unlock()
		close(ent.ready)
	}()
	m, err := compute(ctx, ent, base)
	if err != nil {
		return nil, err
	}
	ent.m = m
	return m, nil
}

// evictStale drops one stale patch base to make room for a new path,
// reporting whether there was one. Callers hold mu.
func (e *Engine) evictStale() bool {
	for k, ent := range e.entries {
		if ent.stale {
			delete(e.entries, k)
			return true
		}
	}
	return false
}

// halfOf returns the first half of a Gram-eligible path: the H of
// M = H·Hᵀ.
func halfOf(path []string) []string {
	n := (len(path)-1)/2 + 1
	return path[:n:n]
}

// compute evaluates a validated path with the planner. Sub-chains
// recurse through matrix(), so every intermediate lands in the cache
// under its own canonical key and is shared across top-level paths
// (e.g. A-P-V-P-A's half A-P-V also answers V-P-A requests) — and a
// stale sub-chain is refreshed the same way before its consumer is.
// With a base, the product is patched from it when the operand diff is
// small (patch.go); either route produces the same bits.
func (e *Engine) compute(ctx context.Context, ent, base *entry) (*sparse.Matrix, error) {
	path := ent.path
	rels := len(path) - 1
	if rels == 1 {
		return e.src.Relation(path[0], path[1]), nil
	}
	if gramEligible(path) {
		h, err := e.matrix(ctx, halfOf(path))
		if err != nil {
			return nil, err
		}
		ent.ops[0] = h
		e.grams.Add(1)
		start := time.Now()
		defer func() { e.gramNS.Add(int64(time.Since(start))) }()
		if m, err := e.patchGram(ctx, base, h); m != nil || err != nil {
			return m, err
		}
		return h.GramCtx(ctx)
	}
	k, err := e.bestSplit(ctx, path)
	if err != nil {
		return nil, err
	}
	left, err := e.matrix(ctx, path[:k+2:k+2])
	if err != nil {
		return nil, err
	}
	right, err := e.matrix(ctx, path[k+1:])
	if err != nil {
		return nil, err
	}
	ent.ops, ent.split = [2]*sparse.Matrix{left, right}, k
	e.products.Add(1)
	start := time.Now()
	defer func() { e.productNS.Add(int64(time.Since(start))) }()
	if m, err := e.patchProduct(ctx, base, left, right, k); m != nil || err != nil {
		return m, err
	}
	return left.MulCtx(ctx, right)
}

// FactorCtx returns the half-path factor of a Gram-eligible path: h, the
// very product compute multiplies into M = h·hᵀ, and hᵀ, the reversed
// half — each the cache entry of its own path: two relations, each as
// the source holds it, or a planned product (patched from its stale
// self after a mutation) and its O(nnz) transpose. A caller that reads M
// one row at a time needs nothing else: row x is Σ_mid h[x,mid]·hᵀ[mid,·],
// and summed in ascending mid every entry has the bits the Gram kernel
// stores (it accumulates the same terms in the same order; see
// patch.go). Both are nil for a path that is not Gram-eligible.
func (e *Engine) FactorCtx(ctx context.Context, path []string) (h, ht *sparse.Matrix, err error) {
	if err := e.Validate(path); err != nil {
		return nil, nil, err
	}
	if !gramEligible(path) {
		return nil, nil, nil
	}
	half := halfOf(path)
	if h, err = e.matrix(ctx, half); err != nil {
		return nil, nil, err
	}
	if ht, err = e.matrix(ctx, reverseOf(half)); err != nil {
		return nil, nil, err
	}
	return h, ht, nil
}

// bestSplit returns the top-level split point (relations 0..k and
// k+1..rels-1) chosen by the chain planner.
func (e *Engine) bestSplit(ctx context.Context, path []string) (int, error) {
	dims, nnz, err := e.leafStats(ctx, path)
	if err != nil {
		return 0, err
	}
	dp := planChain(dims, nnz)
	return dp.split[0][len(nnz)-1], nil
}

// leafStats materializes (through the cache) the relation matrices
// along the path and returns the chain dimensions and per-leaf nonzero
// counts the planner costs against.
func (e *Engine) leafStats(ctx context.Context, path []string) (dims []int, nnz []float64, err error) {
	rels := len(path) - 1
	dims = make([]int, rels+1)
	nnz = make([]float64, rels)
	for i, t := range path {
		dims[i] = e.src.Count(t)
	}
	for i := 0; i < rels; i++ {
		leaf, err := e.matrix(ctx, path[i:i+2:i+2])
		if err != nil {
			return nil, nil, err
		}
		nnz[i] = float64(leaf.NNZ())
	}
	return dims, nnz, nil
}

// gramEligible reports whether the path can be evaluated as H·Hᵀ of its
// half-path product: a palindrome with an odd number of types (so the
// relation count is even), and no adjacent repeated type — the Gram
// identity needs every mirrored relation to be the exact transpose of
// its partner, which Source.Relation guarantees only for distinct type
// pairs (a homogeneous X-X relation need not be symmetric).
func gramEligible(path []string) bool {
	if len(path) < 3 || len(path)%2 == 0 {
		return false
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		if path[i] != path[j] {
			return false
		}
	}
	for i := 0; i+1 < len(path); i++ {
		if path[i] == path[i+1] {
			return false
		}
	}
	return true
}

// canonicalize returns the cache orientation of a path: of the path and
// its reverse, the lexicographically smaller key wins, so a path and
// its reverse share one materialization (the other is a transpose
// away). Paths with an adjacent repeated type are not canonicalized —
// reversal is only transpose-equivalent when every relation along the
// path joins two distinct types — and neither is a single relation: the
// source keeps both orientations (Relation's contract), so transposing
// one would only duplicate the other.
func canonicalize(path []string) (canon []string, reversed bool) {
	if len(path) == 2 {
		return path, false
	}
	for i := 0; i+1 < len(path); i++ {
		if path[i] == path[i+1] {
			return path, false
		}
	}
	if rev := reverseOf(path); join(rev) < join(path) {
		return rev, true
	}
	return path, false
}

func reverseOf(path []string) []string {
	rev := slices.Clone(path)
	slices.Reverse(rev)
	return rev
}

func join(path []string) string { return strings.Join(path, "-") }
