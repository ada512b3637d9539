// Adaptive admission control: an AIMD concurrency limiter plus
// brownout (degraded-mode) state, replacing PR 6's static semaphore.
//
// The limiter keeps the semaphore but makes its effective capacity a
// control variable: a background controller compares the windowed p99
// of admitted query requests against an SLO target every tick and
// walks the limit between a floor and the configured ceiling — additive
// increase while healthy, multiplicative decrease while over target
// (the classic AIMD shape, same reasoning as TCP: converge fast on
// overload, probe gently on recovery).
//
// Request classes give shedding an order: critical endpoints (healthz,
// metrics) never touch admission; cheap precomputed reads (stats, rank,
// clusters, slowlog) are never shed — they cost microseconds and no
// kernel time; query (topk) sheds when the adaptive limit is full;
// write (ingest, rebuild) sheds earlier, at 3/4 of the limit, and
// always during a brownout. Sustained overload — `enter` consecutive
// over-target ticks — trips the brownout: topk answers from cache only
// with k truncated, annotated "degraded": true, and writes shed
// outright. `exit` consecutive healthy ticks recover automatically.
package serve

import (
	"sync/atomic"
	"time"

	"hinet/internal/obs"
)

// Request classes, in shed order (never → first).
const (
	classCritical = "critical" // healthz, metrics: never shed
	classCheap    = "cheap"    // precomputed reads: never shed
	classQuery    = "query"    // heavy uncached queries: shed at the limit
	classWrite    = "write"    // ingest/rebuild: shed at 3/4 limit and in brownout
)

// minWindowSamples is the fewest admitted-request observations a
// control window needs before its p99 is trusted for a decrease
// decision; smaller windows only ever increase the limit.
const minWindowSamples = 4

// admission is the adaptive limiter. Requests interact with sem (and
// the atomics) only; the controller goroutine owns held/prev and the
// tick counters.
type admission struct {
	floor, ceil int
	slo         time.Duration
	interval    time.Duration
	enter, exit int // brownout entry/exit thresholds, in ticks

	// sem has capacity ceil; the controller "holds" ceil-limit tokens
	// to shrink the effective limit, releasing them to grow it again.
	sem      chan struct{}
	limit    atomic.Int64
	held     int          // tokens held by the controller (controller-only)
	inflight atomic.Int64 // currently admitted heavy requests

	// lat collects full-request latencies of admitted, successful query
	// requests — the controller's feedback signal. prev is the last
	// tick's bucket snapshot (controller-only): quantiles are computed
	// over the delta, so one bad burst ages out instead of poisoning
	// the signal forever.
	lat  *obs.Hist
	prev obs.HistSnap

	degraded    atomic.Bool
	overTicks   int          // consecutive over-target ticks (controller-only)
	underTicks  int          // consecutive healthy ticks (controller-only)
	windowedP99 atomic.Int64 // last window's p99 (ns), exported via /v1/stats

	shedQuery      atomic.Uint64 // query-class requests shed
	shedWrite      atomic.Uint64 // write-class requests shed
	brownouts      atomic.Uint64 // brownout entries
	degradedServed atomic.Uint64 // responses answered in degraded mode
	timeouts       atomic.Uint64 // requests surfaced as 504 (deadline exceeded)

	quit chan struct{}
	done chan struct{}
}

func newAdmission(floor, ceil int, slo, interval time.Duration, enter, exit int) *admission {
	if floor < 1 {
		floor = 1
	}
	if floor > ceil {
		floor = ceil
	}
	a := &admission{
		floor:    floor,
		ceil:     ceil,
		slo:      slo,
		interval: interval,
		enter:    enter,
		exit:     exit,
		sem:      make(chan struct{}, ceil),
		lat:      obs.NewHist(),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	a.limit.Store(int64(ceil))
	return a
}

// Limit returns the current effective admission limit.
func (a *admission) Limit() int { return int(a.limit.Load()) }

// Degraded reports whether the server is in brownout mode.
func (a *admission) Degraded() bool { return a.degraded.Load() }

// step runs one control tick against the latest latency window.
// queueDepth is the sparse pool's backlog gauge; a backed-up pool
// blocks additive increase even when latencies look healthy (the
// latency signal lags the queue signal by one window).
func (a *admission) step(queueDepth int) {
	cnt := a.lat.CountSince(&a.prev)
	p99 := a.lat.QuantileSince(&a.prev, 0.99)
	a.prev = a.lat.Snap()
	a.windowedP99.Store(int64(p99))
	lim := int(a.limit.Load())
	switch {
	case cnt >= minWindowSamples && p99 > a.slo:
		// Multiplicative decrease: ×0.7 per over-target tick, floored.
		nl := lim * 7 / 10
		if nl >= lim {
			nl = lim - 1
		}
		if nl < a.floor {
			nl = a.floor
		}
		a.limit.Store(int64(nl))
		a.overTicks++
		a.underTicks = 0
		if !a.degraded.Load() && a.overTicks >= a.enter {
			a.degraded.Store(true)
			a.brownouts.Add(1)
		}
	case cnt == 0 || p99 <= a.slo*4/5:
		// Healthy (or idle): additive increase toward the ceiling,
		// unless the kernel pool is visibly backed up.
		if nl := lim + 1; nl <= a.ceil && queueDepth <= a.ceil {
			a.limit.Store(int64(nl))
		}
		a.healthyTick()
	default:
		// Inside the band (80%–100% of target): hold the limit.
		a.healthyTick()
	}
	a.converge()
}

func (a *admission) healthyTick() {
	a.overTicks = 0
	a.underTicks++
	if a.degraded.Load() && a.underTicks >= a.exit {
		a.degraded.Store(false)
	}
}

// converge moves the controller's held-token count toward ceil−limit.
// Shrinking acquires tokens non-blockingly — slots occupied by running
// requests are picked up as they release, over the next ticks — and
// growing hands tokens back immediately.
func (a *admission) converge() {
	want := a.ceil - int(a.limit.Load())
	for a.held < want {
		select {
		case a.sem <- struct{}{}:
			a.held++
		default:
			return
		}
	}
	for a.held > want {
		<-a.sem
		a.held--
	}
}

// retryAfterMS is the backoff hint attached to shed responses: a couple
// of control ticks for a transient queue-full blip, a full second
// during a brownout (clients should get out of the way of recovery).
func (a *admission) retryAfterMS() int {
	if a.degraded.Load() {
		return 1000
	}
	iv := int(a.interval / time.Millisecond)
	if iv <= 0 {
		iv = 100
	}
	return 2 * iv
}

// stop terminates the controller goroutine (idempotent via Server's
// shutdown-once). Callers that never started a controller (negative
// ControlInterval) close done at construction time instead.
func (a *admission) stop() {
	select {
	case <-a.quit:
	default:
		close(a.quit)
	}
	<-a.done
}
