// Package obs is the observability layer: an allocation-lean span
// tracer with context propagation, lock-free log-bucketed latency
// histograms, and a slow-query log.
//
// The serving tier (internal/serve) threads a Trace through every
// request — admission wait, meta-path resolution, cache lookup,
// kernel execution, serialization — and each
// finished span lands in a per-endpoint per-stage histogram. The same
// Hist type backs the load generator's client-side measurements, so
// client-observed and server-attributed latency are directly
// comparable. Completed traces are retained in fixed-size rings (the N
// most recent and the N slowest, see Slowlog) and served as JSON span
// trees at /v1/debug/slowlog.
//
// The design optimizes the hot path: one heap allocation per trace
// (the Trace itself, with inline span storage), atomic-only histogram
// writes, and nil-receiver-safe methods so disabled tracing costs a
// few predicted branches and nothing else.
package obs

import (
	"context"
	"slices"
	"sync"
	"time"
)

// maxSpans bounds the spans recorded per trace; later Start calls are
// dropped (the trace stays valid, just truncated). 24 covers the
// deepest serving path (9 stages) with generous headroom.
const maxSpans = 24

// maxDepth bounds span nesting. Deeper Start calls still record spans,
// parented to the deepest tracked ancestor.
const maxDepth = 8

// Options configures a Registry.
type Options struct {
	Clock   func() time.Time // injected clock (default time.Now; tests pin it)
	Recent  int              // most-recent completed traces retained (default 64)
	Slowest int              // slowest completed traces retained (default 32)
}

// Registry owns the per-endpoint stage histogram families and the
// slowlog, and mints traces. A nil *Registry is valid: StartTrace
// returns a nil *Trace whose methods all no-op.
type Registry struct {
	clock func() time.Time
	log   *Slowlog

	mu   sync.RWMutex
	fams map[string]*Family
}

// NewRegistry builds a registry. Families are declared up front (see
// Family.Declare) so the exported metric series set is fixed at boot.
func NewRegistry(opts Options) *Registry {
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	if opts.Recent <= 0 {
		opts.Recent = 64
	}
	if opts.Slowest <= 0 {
		opts.Slowest = 32
	}
	return &Registry{
		clock: opts.Clock,
		log:   newSlowlog(opts.Recent, opts.Slowest),
		fams:  make(map[string]*Family),
	}
}

// Family returns the stage-histogram family for an endpoint, creating
// it if needed. Call at boot, then Declare the endpoint's stage names;
// stages are never created lazily, so the /metrics series set cannot
// drift between scrapes.
func (r *Registry) Family(endpoint string) *Family {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	f := r.fams[endpoint]
	r.mu.RUnlock()
	if f != nil {
		return f
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f = r.fams[endpoint]; f == nil {
		f = &Family{name: endpoint, stages: make(map[string]*Hist)}
		r.fams[endpoint] = f
	}
	return f
}

// Families returns the declared families sorted by endpoint name.
func (r *Registry) Families() []*Family {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	out := make([]*Family, 0, len(r.fams))
	for _, f := range r.fams {
		out = append(out, f)
	}
	r.mu.RUnlock()
	slices.SortFunc(out, func(a, b *Family) int {
		switch {
		case a.name < b.name:
			return -1
		case a.name > b.name:
			return 1
		}
		return 0
	})
	return out
}

// Log returns the registry's slowlog (nil on a nil registry).
func (r *Registry) Log() *Slowlog {
	if r == nil {
		return nil
	}
	return r.log
}

// StartTrace begins a trace for one request against an endpoint. The
// returned trace is not safe for concurrent use by multiple goroutines
// (one request, one goroutine owns it until Finish); after Finish it is
// immutable and may be read from anywhere.
func (r *Registry) StartTrace(endpoint string) *Trace {
	if r == nil {
		return nil
	}
	return &Trace{
		reg:      r,
		fam:      r.Family(endpoint),
		endpoint: endpoint,
		begin:    r.clock(),
	}
}

// Family is the per-endpoint set of stage histograms.
type Family struct {
	name string

	mu     sync.RWMutex
	stages map[string]*Hist
}

// Name returns the endpoint the family belongs to.
func (f *Family) Name() string { return f.name }

// Declare registers stage names, creating an empty histogram for each.
// Call once at boot; spans whose name was never declared are kept in
// the trace tree but not aggregated into any histogram.
func (f *Family) Declare(stages ...string) *Family {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	for _, s := range stages {
		if f.stages[s] == nil {
			f.stages[s] = NewHist()
		}
	}
	f.mu.Unlock()
	return f
}

// Stage returns the histogram for a declared stage, or nil.
func (f *Family) Stage(name string) *Hist {
	if f == nil {
		return nil
	}
	f.mu.RLock()
	h := f.stages[name]
	f.mu.RUnlock()
	return h
}

// Stages returns the declared stage names, sorted.
func (f *Family) Stages() []string {
	if f == nil {
		return nil
	}
	f.mu.RLock()
	out := make([]string, 0, len(f.stages))
	for s := range f.stages {
		out = append(out, s)
	}
	f.mu.RUnlock()
	slices.Sort(out)
	return out
}

// spanRec is one span, stored inline in the trace. Offsets are
// nanoseconds since the trace began; end < 0 marks an open span.
type spanRec struct {
	name   string
	note   string
	start  int64
	end    int64
	parent int16 // index of the parent span, -1 for roots
}

// Trace is one request's span record. All methods are safe on a nil
// receiver (tracing disabled). The struct is sized so a whole trace is
// a single heap allocation.
type Trace struct {
	reg      *Registry
	fam      *Family
	endpoint string
	begin    time.Time
	status   int
	total    int64  // ns, set at Finish
	seq      uint64 // slowlog insertion order, stamped by the slowlog
	n        int16  // spans recorded
	depth    int16  // open-span stack depth
	stack    [maxDepth]int16
	spans    [maxSpans]spanRec
}

// since returns nanoseconds since the trace began.
func (t *Trace) since() int64 {
	return int64(t.reg.clock().Sub(t.begin))
}

// Endpoint returns the endpoint the trace was started for.
func (t *Trace) Endpoint() string {
	if t == nil {
		return ""
	}
	return t.endpoint
}

// Status returns the HTTP status recorded at Finish (0 before).
func (t *Trace) Status() int {
	if t == nil {
		return 0
	}
	return t.status
}

// Total returns the trace duration recorded at Finish.
func (t *Trace) Total() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.total)
}

// Start opens a span named name, nested under the innermost open span,
// and returns its id (-1 when the trace is nil or full — the id is
// always safe to pass back to End/Next).
func (t *Trace) Start(name string) int {
	if t == nil {
		return -1
	}
	return t.open(name, t.since())
}

func (t *Trace) open(name string, now int64) int {
	if int(t.n) >= maxSpans {
		return -1
	}
	id := t.n
	parent := int16(-1)
	if t.depth > 0 {
		parent = t.stack[t.depth-1]
	}
	t.spans[id] = spanRec{name: name, start: now, end: -1, parent: parent}
	t.n++
	if int(t.depth) < maxDepth {
		t.stack[t.depth] = id
		t.depth++
	}
	return int(id)
}

// End closes span id. Closing an already-closed or invalid id no-ops.
func (t *Trace) End(id int) {
	if t == nil {
		return
	}
	t.close(id, t.since())
}

func (t *Trace) close(id int, now int64) {
	if id < 0 || id >= int(t.n) || t.spans[id].end >= 0 {
		return
	}
	t.spans[id].end = now
	if t.depth > 0 && t.stack[t.depth-1] == int16(id) {
		t.depth--
	}
}

// Next closes span id and opens a sibling named name at the same
// instant, so consecutive stages tile the timeline without gaps. It
// returns the new span's id.
func (t *Trace) Next(id int, name string) int {
	if t == nil {
		return -1
	}
	now := t.since()
	t.close(id, now)
	return t.open(name, now)
}

// Note annotates the innermost open span (e.g. "hit", "miss",
// "prebuilt") — shown in span trees, not aggregated.
func (t *Trace) Note(note string) {
	if t == nil || t.depth == 0 {
		return
	}
	t.spans[t.stack[t.depth-1]].note = note
}

// AddTimed records an already-measured child span of parent, ending
// now and starting d earlier — how externally timed work (a shard's
// part of a scatter, run on another goroutine) is attributed to the
// request's trace.
func (t *Trace) AddTimed(parent int, name string, d time.Duration) {
	if t == nil || int(t.n) >= maxSpans {
		return
	}
	now := t.since()
	start := now - int64(d)
	if start < 0 {
		start = 0
	}
	p := int16(-1)
	if parent >= 0 && parent < int(t.n) {
		p = int16(parent)
	}
	t.spans[t.n] = spanRec{name: name, start: start, end: now, parent: p}
	t.n++
}

// Finish completes the trace: closes any still-open spans at the final
// timestamp, records every span's duration into the endpoint's stage
// histograms, inserts the trace into the slowlog, and returns the
// total duration. The trace is immutable afterwards.
func (t *Trace) Finish(status int) time.Duration {
	if t == nil {
		return 0
	}
	now := t.since()
	t.status = status
	t.total = now
	for i := 0; i < int(t.n); i++ {
		if t.spans[i].end < 0 {
			t.spans[i].end = now
		}
	}
	t.depth = 0
	if t.fam != nil {
		for i := 0; i < int(t.n); i++ {
			sp := &t.spans[i]
			if h := t.fam.Stage(sp.name); h != nil {
				h.Observe(time.Duration(sp.end - sp.start))
			}
		}
	}
	if t.reg != nil && t.reg.log != nil {
		t.reg.log.insert(t)
	}
	return time.Duration(now)
}

// SpanJSON is one rendered span. Times are microseconds relative to
// the trace start, fractional to keep nanosecond precision.
type SpanJSON struct {
	Stage    string      `json:"stage"`
	Note     string      `json:"note,omitempty"`
	StartUS  float64     `json:"start_us"`
	DurUS    float64     `json:"dur_us"`
	Children []*SpanJSON `json:"children,omitempty"`
}

// TraceJSON is a rendered trace: the span tree plus identity.
type TraceJSON struct {
	Endpoint string      `json:"endpoint"`
	Status   int         `json:"status"`
	Start    string      `json:"start"` // RFC3339Nano wall-clock begin
	DurUS    float64     `json:"dur_us"`
	Stages   []*SpanJSON `json:"stages"`
}

// Snapshot renders the trace as a span tree. Safe on finished traces
// from any goroutine; on a live trace (the ?debug=1 echo renders
// before Finish) open spans are shown as running up to now.
func (t *Trace) Snapshot() *TraceJSON {
	if t == nil {
		return nil
	}
	total := t.total
	var now int64
	if t.status == 0 { // not finished: render in-flight state
		now = t.since()
		total = now
	}
	out := &TraceJSON{
		Endpoint: t.endpoint,
		Status:   t.status,
		Start:    t.begin.UTC().Format(time.RFC3339Nano),
		DurUS:    float64(total) / 1e3,
	}
	nodes := make([]*SpanJSON, t.n)
	for i := 0; i < int(t.n); i++ {
		sp := &t.spans[i]
		end := sp.end
		if end < 0 {
			end = now
		}
		nodes[i] = &SpanJSON{
			Stage:   sp.name,
			Note:    sp.note,
			StartUS: float64(sp.start) / 1e3,
			DurUS:   float64(end-sp.start) / 1e3,
		}
		if sp.parent >= 0 {
			p := nodes[sp.parent]
			p.Children = append(p.Children, nodes[i])
		} else {
			out.Stages = append(out.Stages, nodes[i])
		}
	}
	return out
}

// ctxKey is the private context key for trace propagation.
type ctxKey struct{}

// WithTrace returns a context carrying tr, for propagation into layers
// that cannot see the request (snapshot resolution, the scatter).
func WithTrace(ctx context.Context, tr *Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, tr)
}

// FromContext returns the trace carried by ctx, or nil — always safe
// to call methods on the result.
func FromContext(ctx context.Context) *Trace {
	tr, _ := ctx.Value(ctxKey{}).(*Trace)
	return tr
}
