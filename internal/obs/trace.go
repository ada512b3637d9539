// Package obs is the observability layer: an allocation-lean span
// tracer with context propagation, lock-free log-bucketed latency
// histograms, and a slow-query log.
//
// The serving tier (internal/serve) hands NewRegistry its endpoints and
// their stage plans once, at boot: each endpoint gets a Family that
// owns its request count, error count and latency histogram, plus one
// histogram per planned stage. Nothing is created afterwards, so the
// registry needs no lock and the /metrics series set cannot drift. A
// Trace is threaded through every request — admission wait, meta-path
// resolution, cache lookup, kernel execution, serialization — and each
// finished span lands in its family's stage histogram. The same Hist
// type backs the load generator's client-side measurements, so
// client-observed and server-attributed latency are directly
// comparable. Completed traces are retained in fixed-size rings (the
// most recent and the slowest, see Slowlog) and served as JSON span
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
	"strings"
	"sync/atomic"
	"time"
)

// maxSpans bounds the spans recorded per trace; later Start calls are
// dropped (the trace stays valid, just truncated). 24 covers the
// deepest serving path (9 stages) with generous headroom.
const maxSpans = 24

// maxDepth bounds span nesting. Deeper Start calls still record spans,
// parented to the deepest tracked ancestor.
const maxDepth = 8

// The slowlog's ring sizes: the most recent and the slowest completed
// traces retained.
const (
	keepRecent  = 64
	keepSlowest = 32
)

// Endpoint is one served endpoint and its stage plan: the span names
// its handler opens that are aggregated into histograms. Spans whose
// name is not in the plan are kept in the trace tree only.
type Endpoint struct {
	Name   string
	Stages []string
}

// Registry owns the per-endpoint families and the slowlog, and mints
// traces. Its family set is fixed by NewRegistry. A nil *Registry is
// valid: its families are nil, and a nil Family mints nil traces whose
// methods all no-op.
type Registry struct {
	clock func() time.Time
	log   *Slowlog
	fams  []*Family // sorted by endpoint name
}

// NewRegistry builds a registry with one family per endpoint, each
// with an empty histogram per planned stage.
func NewRegistry(endpoints ...Endpoint) *Registry {
	r := &Registry{clock: time.Now, log: newSlowlog(keepRecent, keepSlowest)}
	for _, e := range endpoints {
		names := slices.Clone(e.Stages)
		slices.Sort(names)
		f := &Family{reg: r, name: e.Name, lat: NewHist(), names: slices.Compact(names), stages: make(map[string]*Hist)}
		for _, s := range f.names {
			f.stages[s] = NewHist()
		}
		r.fams = append(r.fams, f)
	}
	slices.SortFunc(r.fams, func(a, b *Family) int { return strings.Compare(a.name, b.name) })
	return r
}

// Family returns the family of an endpoint, or nil if NewRegistry was
// not given it.
func (r *Registry) Family(endpoint string) *Family {
	if r == nil {
		return nil
	}
	i, ok := slices.BinarySearchFunc(r.fams, endpoint, func(f *Family, e string) int { return strings.Compare(f.name, e) })
	if !ok {
		return nil
	}
	return r.fams[i]
}

// Families returns the families sorted by endpoint name. The slice is
// the registry's own; do not modify it.
func (r *Registry) Families() []*Family {
	if r == nil {
		return nil
	}
	return r.fams
}

// Log returns the registry's slowlog (nil on a nil registry).
func (r *Registry) Log() *Slowlog {
	if r == nil {
		return nil
	}
	return r.log
}

// Family is one endpoint's instruments: its request count, error count
// (status ≥ 400) and request-latency histogram, fed by Observe, and its
// stage histograms, fed by the traces it mints.
type Family struct {
	reg      *Registry
	name     string
	requests atomic.Uint64
	errors   atomic.Uint64
	lat      *Hist
	names    []string // stage names, sorted
	stages   map[string]*Hist
}

// Name returns the endpoint the family belongs to.
func (f *Family) Name() string { return f.name }

// Observe counts one finished request with its status and latency.
func (f *Family) Observe(status int, d time.Duration) {
	f.requests.Add(1)
	if status >= 400 {
		f.errors.Add(1)
	}
	f.lat.Observe(d)
}

// Requests returns the number of requests observed.
func (f *Family) Requests() uint64 { return f.requests.Load() }

// Errors returns the number of requests observed with status ≥ 400.
func (f *Family) Errors() uint64 { return f.errors.Load() }

// Latency returns the request-latency histogram.
func (f *Family) Latency() *Hist { return f.lat }

// Stage returns the histogram of a planned stage, or nil.
func (f *Family) Stage(name string) *Hist {
	if f == nil {
		return nil
	}
	return f.stages[name]
}

// Stages returns the planned stage names, sorted. The slice is the
// family's own; do not modify it.
func (f *Family) Stages() []string {
	if f == nil {
		return nil
	}
	return f.names
}

// StartTrace begins a trace for one request against the family's
// endpoint (nil on a nil family). The returned trace is not safe for
// concurrent use by multiple goroutines (one request, one goroutine
// owns it until Finish); after Finish it is immutable and may be read
// from anywhere.
func (f *Family) StartTrace() *Trace {
	if f == nil {
		return nil
	}
	return &Trace{fam: f, begin: f.reg.clock()}
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
	fam    *Family // the endpoint's family; its registry keeps the clock and slowlog
	begin  time.Time
	status int
	total  int64  // ns, set at Finish
	seq    uint64 // slowlog insertion order, stamped by the slowlog
	n      int16  // spans recorded
	depth  int16  // open-span stack depth
	stack  [maxDepth]int16
	spans  [maxSpans]spanRec
}

// since returns nanoseconds since the trace began.
func (t *Trace) since() int64 {
	return int64(t.fam.reg.clock().Sub(t.begin))
}

// Endpoint returns the endpoint the trace was started for.
func (t *Trace) Endpoint() string {
	if t == nil {
		return ""
	}
	return t.fam.name
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
	for i := 0; i < int(t.n); i++ {
		sp := &t.spans[i]
		if h := t.fam.stages[sp.name]; h != nil {
			h.Observe(time.Duration(sp.end - sp.start))
		}
	}
	t.fam.reg.log.insert(t)
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
		Endpoint: t.fam.name,
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
// that cannot see the request (the top-k query path).
func WithTrace(ctx context.Context, tr *Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, tr)
}

// FromContext returns the trace carried by ctx, or nil — always safe
// to call methods on the result.
func FromContext(ctx context.Context) *Trace {
	tr, _ := ctx.Value(ctxKey{}).(*Trace)
	return tr
}
