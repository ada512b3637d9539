package loadgen

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hinet/internal/serve"
)

// -update regenerates testdata/golden_trace.jsonl from goldenConfig.
var update = flag.Bool("update", false, "rewrite golden trace fixtures")

// goldenConfig pins the committed golden trace's schedule. Closed-loop,
// so replay is a pure function of the request sequence, not of timing.
func goldenConfig() Config {
	return Config{
		Seed:     42,
		Arrival:  ArrivalClosed,
		Requests: 60,
		Paths:    []string{"", "A-P-A"},
	}
}

const goldenPath = "testdata/golden_trace.jsonl"

// TestRunSmoke drives a short open-loop schedule end-to-end against an
// in-process server and checks the measurement plumbing.
func TestRunSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a server")
	}
	target := startTestServer(t, serve.Options{})
	ks := testKeyspace(t, nil)
	tr, err := Generate(Config{Seed: 5, Rate: 150, Duration: 2 * time.Second}, ks)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	res := Run(target, tr.Events, RunOptions{})
	if res.Requests == 0 {
		t.Fatal("no requests completed")
	}
	if res.Errors > 0 {
		t.Fatalf("%d errors: %v", res.Errors, res.MismatchDetails)
	}
	if res.Hist.Count() != res.Requests {
		t.Fatalf("histogram count %d != requests %d", res.Hist.Count(), res.Requests)
	}
	if res.ThroughputRPS() <= 0 {
		t.Fatal("zero throughput")
	}
	if res.MetricsAfter == nil {
		t.Fatal("metrics scrape failed against a server that exposes /metrics")
	}
	rep := BuildReport(goldenConfig(), res, DefaultSLO())
	if rep.Schema != ReportSchema {
		t.Fatalf("schema %q", rep.Schema)
	}
	if rep.CacheHit < 0 {
		t.Error("cache hit rate unavailable despite bracketing scrapes")
	}
	if len(rep.Stages) == 0 {
		t.Error("no server-side stage latencies despite bracketing scrapes")
	}
	found := false
	for _, st := range rep.Stages {
		if st.Endpoint == "/v1/pathsim/topk" && st.Stage == "kernel" {
			found = true
			if st.Count == 0 || st.P99US <= 0 {
				t.Errorf("kernel stage summary empty: %+v", st)
			}
		}
	}
	if !found {
		t.Errorf("no kernel stage for topk in %+v", rep.Stages)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(ReportSchema)) {
		t.Fatal("report JSON lacks schema tag")
	}
}

// TestRecordReplayRoundTrip records a run and immediately replays it:
// every digest must match, including the ingest-mutated tail.
func TestRecordReplayRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("boots two servers")
	}
	ks := testKeyspace(t, goldenConfig().Paths)
	tr, err := Generate(goldenConfig(), ks)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}

	rec := startTestServer(t, serve.Options{})
	Run(rec, tr.Events, RunOptions{Record: true})
	for i, ev := range tr.Events {
		if ev.ExpectStatus == 0 || ev.Digest == "" {
			t.Fatalf("event %d not recorded: %+v", i, ev)
		}
	}

	// Serialize and re-parse: the replay path sees exactly what a
	// committed trace file carries.
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	parsed, err := ParseTrace(&buf)
	if err != nil {
		t.Fatalf("ParseTrace: %v", err)
	}

	rep := startTestServer(t, serve.Options{})
	res := Run(rep, parsed.Events, RunOptions{Concurrency: 1, CheckDigests: true})
	if res.Mismatches > 0 || res.Errors > 0 {
		t.Fatalf("replay diverged: %d mismatches %d errors: %v",
			res.Mismatches, res.Errors, res.MismatchDetails)
	}
}

// TestGoldenReplay replays the committed golden trace against a fresh
// same-seed server: a wire-format regression test. Regenerate the
// fixture with `go test ./internal/loadgen -run TestGoldenReplay -update`
// after intentional response-format changes.
func TestGoldenReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a server")
	}
	target := startTestServer(t, serve.Options{})

	if *update {
		ks := testKeyspace(t, goldenConfig().Paths)
		tr, err := Generate(goldenConfig(), ks)
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		Run(target, tr.Events, RunOptions{Record: true})
		tr.Header.Concurrency = 1
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		f, err := os.Create(goldenPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteTrace(f, tr); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d events", goldenPath, len(tr.Events))
		return
	}

	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("open golden trace (regenerate with -update): %v", err)
	}
	defer f.Close()
	tr, err := ParseTrace(f)
	if err != nil {
		t.Fatalf("ParseTrace: %v", err)
	}
	if len(tr.Events) == 0 {
		t.Fatal("golden trace is empty")
	}
	res := Run(target, tr.Events, RunOptions{Concurrency: 1, CheckDigests: true})
	if res.Errors > 0 || res.Mismatches > 0 {
		t.Fatalf("golden replay diverged: %d errors %d mismatches: %v",
			res.Errors, res.Mismatches, res.MismatchDetails)
	}
}

// TestGoldenShardedReplay replays the same committed golden trace
// through a 3-shard scatter-gather server: every digest recorded
// against a single-process server must match the sharded tier's
// responses — the serving-layer face of the bitwise-equivalence
// guarantee (internal/cluster pins the kernel-level half).
func TestGoldenShardedReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a server")
	}
	if *update {
		t.Skip("fixture being rewritten")
	}
	target := startTestServer(t, serve.Options{Shards: 3})
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("open golden trace (regenerate with -update): %v", err)
	}
	defer f.Close()
	tr, err := ParseTrace(f)
	if err != nil {
		t.Fatalf("ParseTrace: %v", err)
	}
	res := Run(target, tr.Events, RunOptions{Concurrency: 1, CheckDigests: true})
	if res.Errors > 0 || res.Mismatches > 0 {
		t.Fatalf("sharded golden replay diverged: %d errors %d mismatches: %v",
			res.Errors, res.Mismatches, res.MismatchDetails)
	}
}

// TestGoldenTraceScheduleStable: regenerating the schedule half of the
// golden trace (offsets, cohorts, paths, bodies) from goldenConfig must
// reproduce the committed file exactly — the bit-determinism acceptance
// check, run against the real fixture.
func TestGoldenTraceScheduleStable(t *testing.T) {
	if *update {
		t.Skip("fixture being rewritten")
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("open golden trace: %v", err)
	}
	defer f.Close()
	committed, err := ParseTrace(f)
	if err != nil {
		t.Fatalf("ParseTrace: %v", err)
	}
	ks := testKeyspace(t, goldenConfig().Paths)
	regen, err := Generate(goldenConfig(), ks)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(regen.Events) != len(committed.Events) {
		t.Fatalf("regenerated %d events, committed %d", len(regen.Events), len(committed.Events))
	}
	for i := range regen.Events {
		g, w := regen.Events[i], committed.Events[i]
		if g.OffsetUS != w.OffsetUS || g.Cohort != w.Cohort || g.Method != w.Method ||
			g.Path != w.Path || g.Body != w.Body {
			t.Fatalf("event %d schedule drift:\nregen:     %+v\ncommitted: %+v", i, g, w)
		}
	}
}
