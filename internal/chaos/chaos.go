// Package chaos is a deterministic fault-injection harness for the
// serving tier. An Injector is configured with a seed and a set of
// fault patterns — kernel slowdowns, request latency spikes, error
// bursts — and hands out per-call decisions that are a pure function of
// (seed, call index). Two runs with the same configuration and the same
// request sequence therefore inject exactly the same faults, which is
// what makes the overload-protection tests (shed-not-collapse, brownout
// entry/exit, deadline propagation) reproducible instead of flaky.
//
// The serving layer consumes an Injector through Options.Chaos
// (internal/serve): request-path faults fire in the route wrapper
// before admission, kernel delays fire in the batch leader just before
// the BatchTopK call. All methods are nil-receiver-safe, so production
// code paths carry no conditionals beyond a pointer check.
package chaos

import (
	"sync/atomic"
	"time"
)

// Config declares the fault patterns. Every pattern is counter-driven:
// with Every = E and Burst = B, calls n where n mod E < B are affected
// (n counts from 0), so faults arrive in deterministic bursts of B
// every E calls. Zero values disable a pattern.
type Config struct {
	// Seed perturbs the jitter stream; two injectors with different
	// seeds but the same patterns spike the same calls with different
	// jitter amplitudes.
	Seed int64

	// KernelDelay is added to every batched kernel dispatch — the knob
	// that pins a test server's capacity to a known, machine-independent
	// value. KernelJitter adds a deterministic pseudo-random extra in
	// [0, KernelJitter) per dispatch.
	KernelDelay  time.Duration
	KernelJitter time.Duration

	// ErrorEvery/ErrorBurst inject forced 500s on the request path:
	// of every ErrorEvery heavy requests, the first ErrorBurst fail.
	ErrorEvery int
	ErrorBurst int

	// SpikeEvery/SpikeBurst/SpikeDelay inject latency spikes on the
	// request path: of every SpikeEvery heavy requests, the first
	// SpikeBurst sleep SpikeDelay before the handler runs.
	SpikeEvery int
	SpikeBurst int
	SpikeDelay time.Duration
}

// Stats counts the faults an injector has actually delivered.
type Stats struct {
	Requests int64 // request-path decisions made
	Kernels  int64 // kernel-path decisions made
	Errors   int64 // forced errors injected
	Spikes   int64 // latency spikes injected
}

// Injector hands out deterministic fault decisions. The zero/nil
// injector injects nothing.
type Injector struct {
	cfg     Config
	reqs    atomic.Int64
	kernels atomic.Int64
	errs    atomic.Int64
	spikes  atomic.Int64
}

// New returns an injector for cfg.
func New(cfg Config) *Injector { return &Injector{cfg: cfg} }

// splitmix64 is the one-step splitmix generator: a bijective hash good
// enough to decorrelate per-call jitter from the call index.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// inBurst reports whether call n falls in the leading burst of its
// cycle.
func inBurst(n int64, every, burst int) bool {
	return every > 0 && burst > 0 && int(n%int64(every)) < burst
}

// RequestFault returns the fault decision for the next heavy request:
// whether to fail it outright and how long to stall it first. Nil-safe.
func (i *Injector) RequestFault() (fail bool, delay time.Duration) {
	if i == nil {
		return false, 0
	}
	n := i.reqs.Add(1) - 1
	if inBurst(n, i.cfg.ErrorEvery, i.cfg.ErrorBurst) {
		i.errs.Add(1)
		fail = true
	}
	if i.cfg.SpikeDelay > 0 && inBurst(n, i.cfg.SpikeEvery, i.cfg.SpikeBurst) {
		i.spikes.Add(1)
		delay = i.cfg.SpikeDelay
	}
	return fail, delay
}

// KernelDelay returns the slowdown for the next kernel dispatch:
// the configured base delay plus deterministic jitter. Nil-safe.
func (i *Injector) KernelDelay() time.Duration {
	if i == nil {
		return 0
	}
	n := i.kernels.Add(1) - 1
	d := i.cfg.KernelDelay
	if j := i.cfg.KernelJitter; j > 0 {
		d += time.Duration(splitmix64(uint64(i.cfg.Seed)^uint64(n)) % uint64(j))
	}
	return d
}

// Stats returns the injector's delivered-fault counters. Nil-safe.
func (i *Injector) Stats() Stats {
	if i == nil {
		return Stats{}
	}
	return Stats{
		Requests: i.reqs.Load(),
		Kernels:  i.kernels.Load(),
		Errors:   i.errs.Load(),
		Spikes:   i.spikes.Load(),
	}
}
