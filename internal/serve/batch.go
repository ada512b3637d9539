// Micro-batching of top-k similarity queries, group-commit style: there
// is no dispatcher. A request that finds a free leader slot — one per
// core (GOMAXPROCS) — runs the batched kernel call (topKKernel,
// cluster.go) on its own goroutine, for itself plus whoever queued for
// the same index while every slot was busy; a request that finds every
// slot taken queues as a follower. So an uncontended miss crosses no
// goroutine boundary, misses on different cores compute side by side,
// and batches form exactly when no core is left to start another kernel
// call on. A leader that leaves followers behind hands its slot to a
// helper goroutine, which ends with the queue: an idle server has no
// batcher goroutine. An optional window keeps a leader's batch open, and
// arrivals join it instead of leading, to trade first-query latency for
// wider batches; the admission controller widens it under load
// (setWindow).
//
// Deadlines propagate into the kernel: already-dead requests are
// dropped from a batch before the kernel runs, and once every rider of
// a batch is gone the kernel call itself is cancelled mid-flight. A
// leader answers its live followers past its own deadline: it returns
// its error when their kernel call returns, not at the deadline.

package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hinet/internal/chaos"
	"hinet/internal/pathsim"
)

var errShutdown = errors.New("serve: server is shutting down")

type topKReq struct {
	ctx  context.Context // caller's context: deadline + disconnect signal
	x, k int
	kern topKKernel    // what the query runs against: (epoch, path) groups a batch
	out  chan topKResp // a follower's reply; nil on the request its own goroutine leads
}

type topKResp struct {
	pairs  []pathsim.Pair
	epoch  int64
	batch  int           // size of the coalesced batch this query rode in
	kernel time.Duration // wall time of the BatchTopK call that answered it
	err    error
}

// batcher owns the leader slots and the follower queue.
type batcher struct {
	maxBatch int
	slots    int          // leader slots: GOMAXPROCS at boot
	windowNS atomic.Int64 // coalescing window in ns (adaptive, see setWindow)
	inj      *chaos.Injector
	idle     chan struct{} // closed once stopped and every slot is back

	mu     sync.Mutex
	queue  []topKReq   // followers no leader has picked up yet
	free   int         // slots nobody holds
	open   *time.Timer // the window of the batch a leader holds open, if any; Reset(0) closes it early
	closed bool

	batches atomic.Uint64 // BatchTopK calls issued
	queries atomic.Uint64 // requests answered through batches
	unique  atomic.Uint64 // distinct ids actually computed (post-dedup)
	largest atomic.Int64  // widest batch observed (in requests)
}

func newBatcher(maxBatch int, window time.Duration, inj *chaos.Injector) *batcher {
	if maxBatch <= 0 {
		maxBatch = 64
	}
	slots := runtime.GOMAXPROCS(0)
	b := &batcher{maxBatch: maxBatch, slots: slots, free: slots, inj: inj, idle: make(chan struct{})}
	b.windowNS.Store(int64(window))
	return b
}

// setWindow adjusts the coalescing window; the admission controller
// calls it each tick to widen batches while the limit is depressed.
func (b *batcher) setWindow(d time.Duration) { b.windowNS.Store(int64(d)) }

// TopK answers one query against req.kern — on the calling goroutine if
// a leader slot is free, else as a follower — and returns when its batch
// is answered, the context is canceled (a leader: once its batch's
// kernel call has returned) or the batcher shuts down.
func (b *batcher) TopK(ctx context.Context, req topKReq) (topKResp, error) {
	if err := ctx.Err(); err != nil {
		return topKResp{}, err
	}
	req.ctx = ctx
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return topKResp{}, errShutdown
	}
	if b.free == 0 || b.open != nil {
		req.out = make(chan topKResp, 1)
		b.queue = append(b.queue, req)
		if b.open != nil && len(b.queue) >= b.maxBatch-1 {
			b.open.Reset(0) // the open batch is full
		}
		b.mu.Unlock()
		// Everything queued is answered: by a leader, a helper or stopCtx.
		select {
		case resp := <-req.out:
			return resp, resp.err
		case <-ctx.Done():
			// The reply still lands in the buffered channel; nothing leaks.
			return topKResp{}, ctx.Err()
		}
	}
	b.free--
	if window := time.Duration(b.windowNS.Load()); window > 0 {
		t := time.NewTimer(window)
		b.open = t
		b.mu.Unlock()
		select {
		case <-t.C:
		case <-ctx.Done():
		}
		b.mu.Lock()
		t.Stop()
		b.open = nil
	}
	one := [1]topKReq{req} // a lone rider's batch never leaves the stack
	batch := b.take(one[:])
	b.mu.Unlock()
	resp := b.flush(batch)
	if next := b.next(); next != nil {
		go b.help(next)
	}
	if err := ctx.Err(); err != nil {
		return topKResp{}, err
	}
	return resp, resp.err
}

// take moves the queued requests for the index batch[0] targets into
// batch, up to the batch cap; an empty batch starts from the head of
// the queue. One batch is one (epoch, path): a rebuild or a mix of
// path= parameters never cross-pollinates, and whatever stays queued
// is the next batch. Callers hold b.mu.
func (b *batcher) take(batch []topKReq) []topKReq {
	keep := b.queue[:0]
	for _, r := range b.queue {
		switch {
		case len(batch) == 0:
			batch = append(make([]topKReq, 0, min(len(b.queue), b.maxBatch)), r)
		case len(batch) < b.maxBatch && r.kern.epoch == batch[0].kern.epoch && r.kern.path == batch[0].kern.path:
			batch = append(batch, r)
		default:
			keep = append(keep, r)
		}
	}
	clear(b.queue[len(keep):]) // taken requests must not stay reachable from the queue
	b.queue = keep
	return batch
}

// next is how a slot changes hands: it returns the next batch for the
// caller's slot to answer, or takes the slot back when nothing is queued.
func (b *batcher) next() []topKReq {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.queue) == 0 {
		if b.free++; b.closed && b.free == b.slots {
			close(b.idle)
		}
		return nil
	}
	return b.take(nil)
}

// help answers queued batches on a leader's slot after the leader has
// gone back to its own client; it ends when the queue is empty.
func (b *batcher) help(batch []topKReq) {
	for ; batch != nil; batch = b.next() {
		b.flush(batch)
	}
}

// stopCtx shuts the batcher down: later TopK calls and every queued
// follower fail with errShutdown, and it waits for the batches in flight
// at most until ctx expires — a wedged kernel call cannot hang Shutdown.
func (b *batcher) stopCtx(ctx context.Context) error {
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		if b.open != nil {
			b.open.Reset(0)
		}
		for _, r := range b.queue {
			r.out <- topKResp{err: errShutdown}
		}
		b.queue = nil
		if b.free == b.slots {
			close(b.idle)
		}
	}
	b.mu.Unlock()
	select {
	case <-b.idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// kernelCtx is the context a lone rider's kernel call runs under: done
// when the rider is, and carrying none of its values — the kernel call
// stays off the rider's trace, as in a shared batch.
type kernelCtx struct{ context.Context }

func (kernelCtx) Value(any) any { return nil }

// flush answers one batch with one BatchTopK call and returns the reply
// of the request that has no channel (the leader's own). Requests whose
// context is already dead are dropped before the kernel runs (a
// follower's buffered channel absorbs the reply), ids outside the index
// get an error, and the rest deduplicate by id (concurrent askers of one
// object share one computation, singleflight-style) at the widest
// requested k, trimmed back to each request's own k on delivery.
func (b *batcher) flush(batch []topKReq) (own topKResp) {
	reply := func(r topKReq, resp topKResp) {
		if r.out == nil {
			own = resp
		} else {
			r.out <- resp
		}
	}
	kern := batch[0].kern
	live := batch[:0]
	for _, r := range batch {
		if err := r.ctx.Err(); err != nil {
			reply(r, topKResp{err: err})
		} else if r.x < 0 || r.x >= kern.dim {
			reply(r, topKResp{err: fmt.Errorf("serve: id %d out of range [0,%d)", r.x, kern.dim)})
		} else {
			live = append(live, r)
		}
	}
	if len(live) == 0 {
		return own
	}
	// A batch is at most maxBatch wide, so finding an id's slot by scanning
	// xs costs less than the map it replaces.
	xs := make([]int, 0, len(live))
	kmax := 0
	for _, r := range live {
		kmax = max(kmax, r.k)
		if !slices.Contains(xs, r.x) {
			xs = append(xs, r.x)
		}
	}

	// A lone rider's own context cancels its kernel call. With company the
	// call is cancelled once ALL riders are gone; a rider whose context
	// cannot be cancelled never counts down, so the kernel then runs to
	// completion — someone still wants the answer.
	kctx := context.Context(kernelCtx{live[0].ctx})
	if len(live) > 1 {
		var cancel context.CancelFunc
		kctx, cancel = context.WithCancel(context.Background())
		defer cancel()
		var left atomic.Int64
		left.Store(int64(len(live)))
		for _, r := range live {
			defer context.AfterFunc(r.ctx, func() {
				if left.Add(-1) == 0 {
					cancel()
				}
			})()
		}
	}

	if d := b.inj.KernelDelay(); d > 0 {
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-kctx.Done():
		}
		t.Stop()
	}
	kstart := time.Now()
	res, err := kern.coord.BatchTopKAt(kctx, kern.epoch, kern.path, xs, kmax)
	kernel := time.Since(kstart)
	if err != nil {
		// Abandoned mid-flight: every rider already left, but deliver
		// the error anyway (buffered channels) for uniformity.
		for _, r := range live {
			reply(r, topKResp{err: err})
		}
		return own
	}
	b.batches.Add(1)
	b.queries.Add(uint64(len(live)))
	b.unique.Add(uint64(len(xs)))
	w := int64(len(live))
	for cur := b.largest.Load(); w > cur && !b.largest.CompareAndSwap(cur, w); cur = b.largest.Load() {
	}
	for _, r := range live {
		pairs := res[slices.Index(xs, r.x)]
		if r.k < len(pairs) {
			pairs = pairs[:r.k]
		}
		reply(r, topKResp{pairs: pairs, epoch: kern.epoch, batch: len(live), kernel: kernel})
	}
	return own
}
