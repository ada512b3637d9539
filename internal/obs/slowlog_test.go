package obs

import (
	"testing"
	"time"
)

// finish runs one trace of exactly dur under the fake clock.
func finish(reg *Registry, clk *fakeClock, endpoint string, dur time.Duration, status int) {
	tr := reg.Family(endpoint).StartTrace()
	clk.advance(dur)
	tr.Finish(status)
}

// TestSlowlogEvictionOrder drives both rings past capacity and pins
// the exact retention and ordering semantics: the recent ring evicts
// oldest-first, the slowest ring evicts its fastest member, and both
// listings come back sorted (newest first, slowest first).
func TestSlowlogEvictionOrder(t *testing.T) {
	clk := newFakeClock()
	reg := regWith(clk, 4, 3, Endpoint{Name: "/x"})

	durs := []time.Duration{
		50 * time.Millisecond,
		10 * time.Millisecond,
		30 * time.Millisecond,
		20 * time.Millisecond,
		40 * time.Millisecond,
		60 * time.Millisecond,
		5 * time.Millisecond,
	}
	for _, d := range durs {
		finish(reg, clk, "/x", d, 200)
	}

	recent := reg.Log().Recent()
	if len(recent) != 4 {
		t.Fatalf("recent retained %d traces, want ring size 4", len(recent))
	}
	wantRecent := []time.Duration{5, 60, 40, 20} // newest first, in ms
	for i, tr := range recent {
		if tr.Total() != wantRecent[i]*time.Millisecond {
			t.Errorf("recent[%d] = %v, want %v", i, tr.Total(), wantRecent[i]*time.Millisecond)
		}
	}

	slow := reg.Log().Slowest()
	if len(slow) != 3 {
		t.Fatalf("slowest retained %d traces, want 3", len(slow))
	}
	wantSlow := []time.Duration{60, 50, 40} // slowest first, in ms
	for i, tr := range slow {
		if tr.Total() != wantSlow[i]*time.Millisecond {
			t.Errorf("slowest[%d] = %v, want %v", i, tr.Total(), wantSlow[i]*time.Millisecond)
		}
	}

	// A burst of fast requests must not displace anything retained as
	// slow (the atomic threshold fast path).
	for i := 0; i < 20; i++ {
		finish(reg, clk, "/x", time.Millisecond, 200)
	}
	slow = reg.Log().Slowest()
	for i, tr := range slow {
		if tr.Total() != wantSlow[i]*time.Millisecond {
			t.Errorf("after fast burst, slowest[%d] = %v, want %v",
				i, tr.Total(), wantSlow[i]*time.Millisecond)
		}
	}
	// ...while the recent ring now holds only the burst.
	for i, tr := range reg.Log().Recent() {
		if tr.Total() != time.Millisecond {
			t.Errorf("after fast burst, recent[%d] = %v, want 1ms", i, tr.Total())
		}
	}

	// A new slowest arrival evicts exactly the fastest retained trace.
	finish(reg, clk, "/x", 55*time.Millisecond, 200)
	slow = reg.Log().Slowest()
	want := []time.Duration{60, 55, 50}
	for i, tr := range slow {
		if tr.Total() != want[i]*time.Millisecond {
			t.Errorf("after 55ms arrival, slowest[%d] = %v, want %v",
				i, tr.Total(), want[i]*time.Millisecond)
		}
	}
}

// TestSlowlogTies: equal totals are retained in insertion order and
// listed stably.
func TestSlowlogTies(t *testing.T) {
	clk := newFakeClock()
	reg := regWith(clk, 8, 2, Endpoint{Name: "/a"}, Endpoint{Name: "/b"}, Endpoint{Name: "/c"})
	finish(reg, clk, "/a", 10*time.Millisecond, 200)
	finish(reg, clk, "/b", 10*time.Millisecond, 200)
	finish(reg, clk, "/c", 10*time.Millisecond, 200)
	slow := reg.Log().Slowest()
	if len(slow) != 2 {
		t.Fatalf("retained %d, want 2", len(slow))
	}
	if slow[0].Endpoint() != "/a" || slow[1].Endpoint() != "/b" {
		t.Errorf("tie order: got [%s %s], want [/a /b]",
			slow[0].Endpoint(), slow[1].Endpoint())
	}
}
