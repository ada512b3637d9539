package obs

import (
	"slices"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock for deterministic span tests.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func ms(n float64) float64                   { return n * 1000 } // µs helper
// regWith builds a registry over eps whose clock is clk and whose
// slowlog keeps ro recent and so slowest traces.
func regWith(clk *fakeClock, ro, so int, eps ...Endpoint) *Registry {
	r := NewRegistry(eps...)
	r.clock = clk.now
	r.log = newSlowlog(ro, so)
	return r
}

// TestSpanTreeDeterministic drives one trace under a pinned clock and
// asserts the exact assembled span tree: names, nesting, notes, and
// durations.
func TestSpanTreeDeterministic(t *testing.T) {
	clk := newFakeClock()
	reg := regWith(clk, 4, 4, Endpoint{"/x", []string{"a", "b", "c", "k"}})

	tr := reg.Family("/x").StartTrace()
	clk.advance(1 * time.Millisecond)
	a := tr.Start("a")
	clk.advance(1 * time.Millisecond)
	b := tr.Start("b")
	tr.Note("hit")
	clk.advance(1 * time.Millisecond)
	tr.End(b)
	clk.advance(1 * time.Millisecond)
	tr.Next(a, "c")
	clk.advance(1 * time.Millisecond)
	k := tr.Start("k")
	clk.advance(500 * time.Microsecond)
	tr.End(k)
	clk.advance(500 * time.Microsecond)
	total := tr.Finish(200)

	if total != 6*time.Millisecond {
		t.Fatalf("Finish total = %v, want 6ms", total)
	}
	if tr.Status() != 200 || tr.Endpoint() != "/x" {
		t.Fatalf("identity: status=%d endpoint=%q", tr.Status(), tr.Endpoint())
	}

	js := tr.Snapshot()
	if js.DurUS != ms(6) {
		t.Fatalf("snapshot dur = %v µs, want 6000", js.DurUS)
	}
	if len(js.Stages) != 2 {
		t.Fatalf("root stages = %d, want 2 (a, c)", len(js.Stages))
	}
	ra, rc := js.Stages[0], js.Stages[1]
	if ra.Stage != "a" || ra.StartUS != ms(1) || ra.DurUS != ms(3) {
		t.Errorf("span a = %+v, want start 1000 dur 3000", ra)
	}
	if len(ra.Children) != 1 || ra.Children[0].Stage != "b" {
		t.Fatalf("a children = %+v, want [b]", ra.Children)
	}
	rb := ra.Children[0]
	if rb.Note != "hit" || rb.StartUS != ms(2) || rb.DurUS != ms(1) {
		t.Errorf("span b = %+v, want note=hit start 2000 dur 1000", rb)
	}
	// Next tiles: c starts exactly where a ends.
	if rc.Stage != "c" || rc.StartUS != ra.StartUS+ra.DurUS {
		t.Errorf("span c = %+v, want start %v", rc, ra.StartUS+ra.DurUS)
	}
	// c was left open; Finish closed it at the final timestamp.
	if rc.DurUS != ms(2) {
		t.Errorf("span c dur = %v, want 2000", rc.DurUS)
	}
	if len(rc.Children) != 1 {
		t.Fatalf("c children = %+v, want [k]", rc.Children)
	}
	rk := rc.Children[0]
	if rk.Stage != "k" || rk.DurUS != 500 || rk.StartUS != ms(5) {
		t.Errorf("span k = %+v, want start 5000 dur 500", rk)
	}

	// Every closed span landed in its declared stage histogram.
	for stage, want := range map[string]time.Duration{
		"a": 3 * time.Millisecond,
		"b": 1 * time.Millisecond,
		"c": 2 * time.Millisecond,
		"k": 500 * time.Microsecond,
	} {
		h := reg.Family("/x").Stage(stage)
		if h.Count() != 1 || h.Max() != want {
			t.Errorf("stage %s: count=%d max=%v, want 1 × %v", stage, h.Count(), h.Max(), want)
		}
	}
}

// TestNilSafety: a nil registry and nil trace must absorb the full API
// without panicking — this is the "tracing disabled" mode.
func TestNilSafety(t *testing.T) {
	var reg *Registry
	tr := reg.Family("/x").StartTrace()
	if tr != nil {
		t.Fatal("nil registry minted a trace")
	}
	sp := tr.Start("a")
	if sp != -1 {
		t.Fatalf("nil trace Start = %d, want -1", sp)
	}
	sp = tr.Next(sp, "b")
	tr.Note("n")
	tr.End(sp)
	if d := tr.Finish(200); d != 0 {
		t.Fatalf("nil Finish = %v", d)
	}
	if tr.Snapshot() != nil {
		t.Fatal("nil trace rendered a snapshot")
	}
	if reg.Log().Recent() != nil || reg.Log().Slowest() != nil {
		t.Fatal("nil slowlog returned traces")
	}
	if reg.Family("/x").Stage("a") != nil {
		t.Fatal("nil registry returned a family stage")
	}
}

// TestSpanOverflow: a trace past maxSpans stays valid and truncated.
func TestSpanOverflow(t *testing.T) {
	clk := newFakeClock()
	reg := regWith(clk, 4, 4, Endpoint{Name: "/x"})
	tr := reg.Family("/x").StartTrace()
	for i := 0; i < maxSpans+10; i++ {
		clk.advance(time.Microsecond)
		id := tr.Start("s")
		tr.End(id)
	}
	tr.Finish(200)
	js := tr.Snapshot()
	if len(js.Stages) != maxSpans {
		t.Fatalf("rendered %d spans, want %d", len(js.Stages), maxSpans)
	}
}

// TestTraceAllocs pins the hot-path cost: one heap allocation per
// trace lifecycle (the Trace itself; spans are inline).
func TestTraceAllocs(t *testing.T) {
	fam := NewRegistry(Endpoint{"/x", []string{"a", "b"}}).Family("/x")
	allocs := testing.AllocsPerRun(200, func() {
		tr := fam.StartTrace()
		sp := tr.Start("a")
		sp = tr.Next(sp, "b")
		tr.End(sp)
		tr.Finish(200)
	})
	if allocs > 1 {
		t.Fatalf("trace lifecycle costs %.1f allocs, want ≤ 1", allocs)
	}
}

// TestRegistryFixedAtBoot: NewRegistry sorts the families and each
// family's stages once, knows no endpoint it was not given, and a
// family counts its requests, its errors (status ≥ 400) and their
// latency whether or not a trace ran.
func TestRegistryFixedAtBoot(t *testing.T) {
	reg := NewRegistry(Endpoint{"/b", []string{"z", "a", "m"}}, Endpoint{Name: "/a"})
	fams := reg.Families()
	if len(fams) != 2 || fams[0].Name() != "/a" || fams[1].Name() != "/b" {
		t.Fatalf("families = %v, want [/a /b]", fams)
	}
	if got := fams[1].Stages(); !slices.Equal(got, []string{"a", "m", "z"}) {
		t.Fatalf("stages = %v, want [a m z]", got)
	}
	if reg.Family("/nope") != nil || reg.Family("/nope").StartTrace() != nil {
		t.Fatal("an endpoint not given to NewRegistry has a family")
	}
	f := reg.Family("/a")
	f.Observe(200, time.Millisecond)
	f.Observe(404, 2*time.Millisecond)
	f.Observe(503, 3*time.Millisecond)
	if f.Requests() != 3 || f.Errors() != 2 || f.Latency().Count() != 3 || f.Latency().Max() != 3*time.Millisecond {
		t.Fatalf("requests=%d errors=%d latency count=%d max=%v, want 3, 2, 3, 3ms",
			f.Requests(), f.Errors(), f.Latency().Count(), f.Latency().Max())
	}
}
