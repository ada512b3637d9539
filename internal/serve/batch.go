// Micro-batching queue for top-k similarity queries. Concurrent
// requests funnel into one dispatcher goroutine that coalesces them
// into a single batched kernel call (topKKernel, cluster.go), which
// fans the batch out over the shards and the sparse worker pool. Coalescing is "natural" by default: while one
// batch computes, new arrivals pile up in the queue and form the next
// batch, so an idle server adds no latency and a loaded server batches
// automatically. An optional window keeps a batch open a little longer
// to trade first-query latency for wider batches; the admission
// controller widens it dynamically under load (setWindow).
//
// Deadlines propagate into the kernel: each request carries its
// context, already-dead requests are dropped from a batch before the
// kernel runs, and if every rider of a batch is gone the kernel call
// itself is cancelled mid-flight.

package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
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
	kern topKKernel // what the query runs against: (epoch, path) groups a batch
	out  chan topKResp
}

type topKResp struct {
	pairs  []pathsim.Pair
	epoch  int64
	batch  int           // size of the coalesced batch this query rode in
	kernel time.Duration // wall time of the BatchTopK call that answered it
	err    error
}

// batcher owns the queue and the single dispatcher goroutine.
type batcher struct {
	queue    chan topKReq
	maxBatch int
	windowNS atomic.Int64 // coalescing window in ns (adaptive, see setWindow)
	inj      *chaos.Injector
	quit     chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	batches atomic.Uint64 // BatchTopK calls issued
	queries atomic.Uint64 // requests answered through batches
	unique  atomic.Uint64 // distinct ids actually computed (post-dedup)
	largest atomic.Int64  // widest batch observed (in requests)
}

func newBatcher(maxBatch int, window time.Duration, inj *chaos.Injector) *batcher {
	if maxBatch <= 0 {
		maxBatch = 64
	}
	b := &batcher{
		queue:    make(chan topKReq, 4*maxBatch),
		maxBatch: maxBatch,
		inj:      inj,
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	b.windowNS.Store(int64(window))
	go b.run()
	return b
}

// setWindow adjusts the coalescing window; the admission controller
// calls it each tick to widen batches while the limit is depressed.
func (b *batcher) setWindow(d time.Duration) { b.windowNS.Store(int64(d)) }

// TopK submits one query against req.kern and blocks until its batch is
// answered, the context is canceled, or the batcher shuts down.
func (b *batcher) TopK(ctx context.Context, req topKReq) (topKResp, error) {
	if err := ctx.Err(); err != nil {
		return topKResp{}, err
	}
	out := make(chan topKResp, 1)
	req.ctx = ctx
	req.out = out
	select {
	case b.queue <- req:
	case <-b.quit:
		return topKResp{}, errShutdown
	case <-ctx.Done():
		return topKResp{}, ctx.Err()
	}
	select {
	case resp := <-out:
		return resp, resp.err
	case <-ctx.Done():
		// The dispatcher will still complete (or drop) the query into
		// the buffered out channel; nothing leaks.
		return topKResp{}, ctx.Err()
	case <-b.quit:
		// The dispatcher may already be gone (the enqueue above can
		// win a race against a closed quit); don't wait on a reply
		// that will never come.
		return topKResp{}, errShutdown
	}
}

// stop ends the dispatcher and fails any queued requests. Callers must
// stop accepting new TopK submissions first (the HTTP server is drained
// before stop runs).
func (b *batcher) stop() {
	b.stopOnce.Do(func() { close(b.quit) })
	<-b.done
}

// stopCtx is stop with a deadline: it signals shutdown and waits for
// the dispatcher to finish at most until ctx expires, so Shutdown
// stays bounded even if a kernel call is mid-flight.
func (b *batcher) stopCtx(ctx context.Context) error {
	b.stopOnce.Do(func() { close(b.quit) })
	select {
	case <-b.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (b *batcher) run() {
	defer close(b.done)
	for {
		select {
		case <-b.quit:
			b.drain()
			return
		case first := <-b.queue:
			batch := append(make([]topKReq, 0, b.maxBatch), first)
			b.flush(b.fill(batch))
		}
	}
}

// fill widens the batch: first a greedy drain of everything queued,
// then a cooperative-yield phase so clients that are runnable but not
// yet scheduled (typically ones just woken by the previous flush) get
// to enqueue — on an idle server the yield is a near no-op, under load
// it is what lets batches form on few-core hosts, where the scheduler's
// direct handoff would otherwise wake the dispatcher after every single
// enqueue. Finally, if a window is configured, the batch stays open up
// to window for stragglers.
func (b *batcher) fill(batch []topKReq) []topKReq {
	batch = b.drainInto(batch)
	for i := 0; i < 2 && len(batch) < b.maxBatch; i++ {
		n := len(batch)
		runtime.Gosched()
		batch = b.drainInto(batch)
		if len(batch) == n {
			break
		}
	}
	window := time.Duration(b.windowNS.Load())
	if window <= 0 || len(batch) >= b.maxBatch {
		return batch
	}
	timer := time.NewTimer(window)
	defer timer.Stop()
	for len(batch) < b.maxBatch {
		select {
		case r := <-b.queue:
			batch = append(batch, r)
		case <-timer.C:
			return batch
		case <-b.quit:
			return batch
		}
	}
	return batch
}

// drainInto moves everything currently queued into batch, up to the
// batch cap, without blocking.
func (b *batcher) drainInto(batch []topKReq) []topKReq {
	for len(batch) < b.maxBatch {
		select {
		case r := <-b.queue:
			batch = append(batch, r)
		default:
			return batch
		}
	}
	return batch
}

// flush answers one coalesced batch. Requests are grouped by the
// (epoch, path) of the index they target — a rebuild or a mix of path=
// parameters inside one batch never cross-pollinates — and each group
// runs as one BatchTopK call: requests whose id falls outside the index
// get an error, the rest deduplicate by id (concurrent askers of the
// same object share one computation, singleflight-style) at the widest
// requested k, trimmed back to each request's own k on delivery.
func (b *batcher) flush(batch []topKReq) {
	groups := make(map[string][]topKReq)
	order := make([]string, 0, 1)
	for _, r := range batch {
		key := fmt.Sprintf("%d|%s", r.kern.epoch, r.kern.path)
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], r)
	}
	for _, key := range order {
		b.flushGroup(groups[key])
	}
}

// flushGroup answers one same-index group of a batch. Requests whose
// context is already dead are dropped before the kernel runs (their
// waiter has moved on; the buffered out channel absorbs the reply), and
// a watcher cancels the kernel mid-flight if every remaining rider
// disconnects while it computes — a batch never outlives all of its
// askers.
func (b *batcher) flushGroup(group []topKReq) {
	kern := group[0].kern
	n := kern.dim
	xs := make([]int, 0, len(group))
	slot := make(map[int]int, len(group)) // id → index in xs
	live := make([]topKReq, 0, len(group))
	kmax := 0
	for _, r := range group {
		if r.ctx != nil && r.ctx.Err() != nil {
			r.out <- topKResp{err: r.ctx.Err()}
			continue
		}
		if r.x < 0 || r.x >= n {
			r.out <- topKResp{err: fmt.Errorf("serve: id %d out of range [0,%d)", r.x, n)}
			continue
		}
		if r.k > kmax {
			kmax = r.k
		}
		if _, ok := slot[r.x]; !ok {
			slot[r.x] = len(xs)
			xs = append(xs, r.x)
		}
		live = append(live, r)
	}
	if len(live) == 0 {
		return
	}

	// Kernel context: cancelled once ALL live riders are gone. The
	// watcher waits on each rider's Done in turn — order is irrelevant,
	// all of them must fire — and exits via stop on normal completion.
	// A rider with a non-cancellable context (nil Done) parks the
	// watcher until stop: the kernel then always runs to completion,
	// which is the correct behavior when someone still wants the answer.
	kctx, cancel := context.WithCancel(context.Background())
	stop := make(chan struct{})
	go func() {
		for _, r := range live {
			var dc <-chan struct{}
			if r.ctx != nil {
				dc = r.ctx.Done()
			}
			select {
			case <-dc:
			case <-stop:
				return
			}
		}
		cancel()
	}()

	if d := b.inj.KernelDelay(); d > 0 {
		time.Sleep(d)
	}
	kstart := time.Now()
	res, err := kern.coord.BatchTopKAt(kctx, kern.epoch, kern.path, xs, kmax)
	kernel := time.Since(kstart)
	close(stop)
	cancel()
	if err != nil {
		// Abandoned mid-flight: every rider already left, but deliver
		// the error anyway (buffered channels) for uniformity.
		for _, r := range live {
			r.out <- topKResp{err: err}
		}
		return
	}
	b.batches.Add(1)
	b.queries.Add(uint64(len(live)))
	b.unique.Add(uint64(len(xs)))
	if w := int64(len(live)); w > b.largest.Load() {
		b.largest.Store(w)
	}
	for _, r := range live {
		pairs := res[slot[r.x]]
		if r.k < len(pairs) {
			pairs = pairs[:r.k]
		}
		r.out <- topKResp{pairs: pairs, epoch: kern.epoch, batch: len(live), kernel: kernel}
	}
}

// drain fails everything still queued at shutdown.
func (b *batcher) drain() {
	for {
		select {
		case r := <-b.queue:
			r.out <- topKResp{err: errShutdown}
		default:
			return
		}
	}
}
