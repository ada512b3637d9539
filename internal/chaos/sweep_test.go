// Overload sweep: the end-to-end shed-not-collapse contract, driven by
// the deterministic fault injector. A chaos-slowed server is pushed to
// 4× its measured capacity open-loop; the admission limiter and shed
// paths must keep goodput near capacity with bounded admitted-request
// latency, and the server must recover to full capacity once the storm
// passes. Lives in package chaos_test (external) because serve imports
// chaos — the test composes serve + loadgen on top of it.
package chaos_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"hinet/internal/chaos"
	"hinet/internal/dblp"
	"hinet/internal/loadgen"
	"hinet/internal/serve"
)

// sweepServer boots a serving stack whose kernel cost is pinned by the
// injector, so capacity is a property of the chaos config, not the
// host: every top-k miss's kernel call pays a deterministic 4ms.
func sweepServer(t *testing.T) (*serve.Server, loadgen.Target, *chaos.Injector) {
	t.Helper()
	inj := chaos.New(chaos.Config{KernelDelay: 4 * time.Millisecond})
	s := serve.New(serve.Options{
		Seed: 1,
		Models: serve.ModelConfig{Corpus: dblp.Config{
			Areas:         []string{"database", "datamining"},
			VenuesPerArea: 3, AuthorsPerArea: 40, TermsPerArea: 30,
			SharedTerms: 15, Papers: 300,
		}},
		MaxConcurrent:   8,
		AdmissionFloor:  1,
		AdmissionWait:   -1, // fail fast: overload answers 503 now, not later
		SLOTargetP99:    60 * time.Millisecond,
		ControlInterval: 20 * time.Millisecond,
		Chaos:           inj,
	})
	addr, err := s.Start()
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, loadgen.NewTarget("http://" + addr), inj
}

// topkEvents builds n top-k queries cycling over the author space with
// a fixed k (k partitions the cache keyspace between phases).
func topkEvents(n, k int, rate float64) []loadgen.Event {
	evs := make([]loadgen.Event, n)
	var spacing float64
	if rate > 0 {
		spacing = 1e6 / rate // µs between arrivals
	}
	for i := range evs {
		evs[i] = loadgen.Event{
			OffsetUS: int64(float64(i) * spacing),
			Cohort:   "pathsim",
			Path:     fmt.Sprintf("/v1/pathsim/topk?id=%d&k=%d", i%80, k),
		}
	}
	return evs
}

// TestOverloadSweep: measure capacity closed-loop, offer 4× that rate
// open-loop, and hold the overload contract: goodput ≥ 80% of capacity,
// admitted p99 ≤ 2× the SLO target, queues bounded by the admission
// ceiling, full recovery afterwards.
func TestOverloadSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second load test")
	}
	if raceEnabled {
		t.Skip("capacity thresholds assume native speed; race instrumentation distorts them")
	}
	s, target, inj := sweepServer(t)

	// Phase 1 — calibrate: a modest closed-loop fleet measures what the
	// chaos-pinned server can actually deliver.
	cal := loadgen.Run(target, topkEvents(300, 7, 0), loadgen.RunOptions{Concurrency: 6})
	capacity := float64(cal.Admitted.Count()) / cal.Duration.Seconds()
	if capacity <= 0 {
		t.Fatalf("calibration measured no goodput: %+v", cal)
	}
	t.Logf("calibrated capacity: %.0f q/s (p99 %v)", capacity, cal.Admitted.Quantile(0.99))

	// Phase 2 — overload: 4× capacity, open loop, fresh cache keys. The
	// in-flight cap bounds client-side queueing so the admitted-latency
	// tail measures the server, not a pile of parked connections (over
	// the cap arrivals count as client-side sheds, which is itself the
	// open-loop overload signal).
	rate := 4 * capacity
	n := int(rate * 1.5) // ~1.5s of arrivals
	over := loadgen.Run(target, topkEvents(n, 9, rate), loadgen.RunOptions{MaxInFlight: 128})
	goodput := float64(over.Admitted.Count()) / over.Duration.Seconds()
	t.Logf("overload: offered %.0f q/s, goodput %.0f q/s, shed %d (server) + %d (client cap), timeouts %d, admitted p99 %v",
		rate, goodput, over.ShedServer, over.Shed, over.Timeouts, over.Admitted.Quantile(0.99))

	if goodput < 0.8*capacity {
		t.Errorf("goodput %.0f q/s under 4× overload, want ≥ 80%% of capacity %.0f q/s", goodput, capacity)
	}
	slo := 60 * time.Millisecond
	if p99 := over.Admitted.Quantile(0.99); p99 > 2*slo {
		t.Errorf("admitted p99 %v under overload, want ≤ 2×SLO (%v)", p99, 2*slo)
	}
	// Shed, not collapsed: overload was answered (mostly 503s), never
	// dropped on the floor, and the server is still healthy.
	if over.ShedServer == 0 {
		t.Error("4× overload produced no server-side sheds; admission is not engaging")
	}
	st := s.Admission()
	if st.Inflight < 0 || st.Inflight > int64(st.Ceiling) {
		t.Errorf("inflight %d outside [0, ceiling %d]: queue accounting leaked", st.Inflight, st.Ceiling)
	}
	if st.Limit < st.Floor || st.Limit > st.Ceiling {
		t.Errorf("adaptive limit %d escaped [floor %d, ceiling %d]", st.Limit, st.Floor, st.Ceiling)
	}

	// Phase 3 — recovery: idle control ticks must walk the limit back to
	// the ceiling and clear any brownout, and serving must be healthy.
	deadline := time.Now().Add(3 * time.Second)
	for {
		st = s.Admission()
		if st.Limit == st.Ceiling && !st.Degraded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no recovery after overload: limit %d/%d, degraded %v", st.Limit, st.Ceiling, st.Degraded)
		}
		time.Sleep(20 * time.Millisecond)
	}
	post := loadgen.Run(target, topkEvents(40, 11, 0), loadgen.RunOptions{Concurrency: 2})
	if post.Admitted.Count() != 40 || post.Errors != 0 {
		t.Errorf("post-recovery: %d/40 admitted, %d errors", post.Admitted.Count(), post.Errors)
	}

	// The injector really drove the kernels (determinism anchor).
	if ks := inj.Stats().Kernels; ks == 0 {
		t.Error("chaos injector saw no kernel dispatches")
	}
}

// TestErrorBurstsSurfaceAndRecover: injected 500 bursts show up as
// request failures without wedging admission — slots always come back.
func TestErrorBurstsSurfaceAndRecover(t *testing.T) {
	inj := chaos.New(chaos.Config{ErrorEvery: 4, ErrorBurst: 1})
	s := serve.New(serve.Options{
		Seed: 1,
		Models: serve.ModelConfig{Corpus: dblp.Config{
			Areas:         []string{"database", "datamining"},
			VenuesPerArea: 3, AuthorsPerArea: 40, TermsPerArea: 30,
			SharedTerms: 15, Papers: 300,
		}},
		ControlInterval: -1,
		Chaos:           inj,
	})
	addr, err := s.Start()
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	target := loadgen.NewTarget("http://" + addr)

	res := loadgen.Run(target, topkEvents(40, 5, 0), loadgen.RunOptions{Concurrency: 4})
	// Calls 0 of every 4-cycle fail: exactly 10 of 40.
	if res.Errors != 10 {
		t.Errorf("errors = %d, want exactly 10 (deterministic burst pattern)", res.Errors)
	}
	if st := s.Admission(); st.Inflight != 0 {
		t.Errorf("inflight = %d after run, want 0 (failed requests must release their slots)", st.Inflight)
	}
}
