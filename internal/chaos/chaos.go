// Package chaos is a deterministic fault-injection harness for the
// serving tier. An Injector is configured with a set of fault
// patterns — a kernel slowdown, error bursts — and hands out per-call
// decisions that are a pure function of the call index. Two runs with
// the same configuration and the same request sequence therefore inject
// exactly the same faults, which is what makes the overload-protection
// tests (shed-not-collapse, brownout entry/exit, deadline propagation)
// reproducible instead of flaky.
//
// The serving layer consumes an Injector through Options.Chaos
// (internal/serve): request-path faults fire in the route wrapper
// before admission, kernel delays fire on the request's goroutine just
// before a top-k miss's View.TopK call. All methods are
// nil-receiver-safe, so production code paths carry no conditionals
// beyond a pointer check.
package chaos

import (
	"sync/atomic"
	"time"
)

// Config declares the fault patterns. Zero values disable a pattern.
type Config struct {
	// KernelDelay is added to every top-k miss's kernel call — the knob
	// that pins a test server's capacity to a known, machine-independent
	// value.
	KernelDelay time.Duration

	// ErrorEvery/ErrorBurst inject forced 500s on the request path:
	// heavy request n (counting from 0) fails when n mod ErrorEvery <
	// ErrorBurst, so failures arrive in deterministic bursts of
	// ErrorBurst every ErrorEvery requests.
	ErrorEvery int
	ErrorBurst int
}

// Stats counts the faults an injector has actually delivered.
type Stats struct {
	Requests int64 // request-path decisions made
	Kernels  int64 // kernel-path decisions made
	Errors   int64 // forced errors injected
}

// Injector hands out deterministic fault decisions. The zero/nil
// injector injects nothing.
type Injector struct {
	cfg     Config
	reqs    atomic.Int64
	kernels atomic.Int64
	errs    atomic.Int64
}

// New returns an injector for cfg.
func New(cfg Config) *Injector { return &Injector{cfg: cfg} }

// inBurst reports whether call n falls in the leading burst of its
// cycle.
func inBurst(n int64, every, burst int) bool {
	return every > 0 && burst > 0 && int(n%int64(every)) < burst
}

// RequestFault reports whether to fail the next heavy request outright.
// Nil-safe.
func (i *Injector) RequestFault() bool {
	if i == nil {
		return false
	}
	n := i.reqs.Add(1) - 1
	if !inBurst(n, i.cfg.ErrorEvery, i.cfg.ErrorBurst) {
		return false
	}
	i.errs.Add(1)
	return true
}

// KernelDelay returns the slowdown for the next kernel dispatch.
// Nil-safe.
func (i *Injector) KernelDelay() time.Duration {
	if i == nil {
		return 0
	}
	i.kernels.Add(1)
	return i.cfg.KernelDelay
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
	}
}
