// Micro-batching of top-k similarity queries, group-commit style: there
// is no dispatcher. A request that finds a free leader slot — one per
// core (GOMAXPROCS) — runs its kernel call (topKKernel, cluster.go) on
// its own goroutine; a request that finds every slot taken queues as a
// follower. So an uncontended miss crosses no goroutine boundary, misses
// on different cores compute side by side, and batches form exactly
// when no core is left to start another kernel call on. A leader that
// finds followers queued when its call returns hands its slot to a
// helper goroutine, which answers them batch by batch and ends with the
// queue: an idle server has no batcher goroutine. Nothing holds a batch
// open: a batch is what queued while every slot was busy, and over HTTP
// its riders are admitted requests, so the admission limit bounds its
// width before maxBatch does.
//
// Deadlines propagate into the kernel: already-dead requests are
// dropped from a batch before the kernel runs, and once every rider of
// a batch is gone the kernel call itself is cancelled mid-flight.

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

// maxBatch caps the riders of one kernel call.
const maxBatch = 64

type topKReq struct {
	ctx  context.Context // caller's context: deadline + disconnect signal
	x, k int
	kern topKKernel    // what the query runs against: one kernel is one batch
	out  chan topKResp // a follower's reply; nil on the request its own goroutine leads
}

type topKResp struct {
	pairs  []pathsim.Pair
	batch  int           // size of the coalesced batch this query rode in
	kernel time.Duration // wall time of the BatchTopK call that answered it
	err    error
}

// batcher owns the leader slots and the follower queue.
type batcher struct {
	slots int // leader slots: GOMAXPROCS at boot
	inj   *chaos.Injector
	idle  chan struct{} // closed once stopped and every slot is back

	mu     sync.Mutex
	queue  []topKReq // followers no leader has picked up yet
	free   int       // slots nobody holds
	closed bool

	batches atomic.Uint64 // BatchTopK calls issued
	queries atomic.Uint64 // requests answered through batches
	unique  atomic.Uint64 // distinct ids actually computed (post-dedup)
	largest atomic.Int64  // widest batch observed (in requests)
}

func newBatcher(inj *chaos.Injector) *batcher {
	slots := runtime.GOMAXPROCS(0)
	return &batcher{slots: slots, free: slots, inj: inj, idle: make(chan struct{})}
}

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
	if b.free == 0 {
		req.out = make(chan topKResp, 1)
		b.queue = append(b.queue, req)
		b.mu.Unlock()
		// Everything queued is answered: by a helper or stopCtx.
		select {
		case resp := <-req.out:
			return resp, resp.err
		case <-ctx.Done():
			// The reply still lands in the buffered channel; nothing leaks.
			return topKResp{}, ctx.Err()
		}
	}
	b.free--
	b.mu.Unlock()
	one := [1]topKReq{req} // a lone rider's batch never leaves the stack
	resp := b.flush(one[:])
	if next := b.next(); next != nil {
		go b.help(next)
	}
	if err := ctx.Err(); err != nil {
		return topKResp{}, err
	}
	return resp, resp.err
}

// next is how a slot changes hands: it returns the next batch for the
// caller's slot to answer, or takes the slot back when nothing is queued.
// A batch is the head of the queue plus every queued request for the
// same kernel — one View and path — up to maxBatch: a write or a mix of
// path= parameters never cross-pollinates, and whatever stays queued is
// the next batch.
func (b *batcher) next() []topKReq {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.queue) == 0 {
		if b.free++; b.closed && b.free == b.slots {
			close(b.idle)
		}
		return nil
	}
	batch := make([]topKReq, 0, min(len(b.queue), maxBatch))
	keep := b.queue[:0]
	for _, r := range b.queue {
		if len(batch) == 0 || len(batch) < maxBatch && r.kern == batch[0].kern {
			batch = append(batch, r)
		} else {
			keep = append(keep, r)
		}
	}
	clear(b.queue[len(keep):]) // taken requests must not stay reachable from the queue
	b.queue = keep
	return batch
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
	res, err := kern.view.BatchTopK(kctx, kern.path, xs, kmax)
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
		reply(r, topKResp{pairs: pairs, batch: len(live), kernel: kernel})
	}
	return own
}
