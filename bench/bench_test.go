package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestSmoke runs all four workloads, untraced and traced, at about 1/100
// scale, and checks the contract the driver and later issues rely on:
// every metric BENCHMARK.json names is emitted exactly once per workload
// under a well-formed name, nothing fails, and the trace's spans nest.
func TestSmoke(t *testing.T) {
	cfg := config{seed: 42, seconds: 0.25, rounds: 1, smoke: true,
		spec: filepath.Join("..", "BENCHMARK.json"), outDir: t.TempDir()}
	sp, err := loadSpec(cfg.spec)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	correct, err := run(cfg, &out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if !correct {
		t.Fatalf("oracle mismatches or failed requests:\n%s", out.String())
	}

	// The driver reads the JSON lines: one per workload and mode.
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var results []result
	for _, line := range strings.Split(out.String(), "\n") {
		if !strings.HasPrefix(line, "{") {
			continue
		}
		dec := json.NewDecoder(strings.NewReader(line))
		dec.DisallowUnknownFields()
		var r result
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("result line %q: %v", line, err)
		}
		results = append(results, r)
	}
	if want := 2 * len(sp.Workloads); len(results) != want {
		t.Fatalf("got %d result lines, want %d (each workload untraced and traced)", len(results), want)
	}
	for i, r := range results {
		want := sp.EndToEnd
		if i >= len(sp.Workloads) {
			want = sp.PerLayer
		}
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("result %d: correct=%t attempted=%d failed=%d", i, r.Correct, r.Attempted, r.Failed)
		}
		if len(r.Metrics) != len(want) {
			t.Errorf("result %d: %d metrics, BENCHMARK.json names %d", i, len(r.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := r.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("result %d: metric %s (%s) missing or with unit %q", i, m.Name, m.Unit, got.Unit)
			}
			if !name.MatchString(m.Name) {
				t.Errorf("metric name %q is outside the contract's alphabet", m.Name)
			}
			if i < len(sp.Workloads) && got.Value <= 0 {
				t.Errorf("result %d: end-to-end metric %s = %v, must never be 0", i, m.Name, got.Value)
			}
		}
	}

	// A traced run's spans: children inside their parents, one root per
	// request.
	f, err := os.Open(filepath.Join(cfg.outDir, "mixed_rw.trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans := map[int32]span{}
	roots := map[int32]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		spans[s.ID] = s
		if s.Parent < 0 {
			roots[s.Req]++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	children := 0
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if roots[s.Req] != 1 {
			t.Errorf("request %d has %d root spans", s.Req, roots[s.Req])
		}
		if s.Parent < 0 {
			continue
		}
		children++
		p, ok := spans[s.Parent]
		if !ok || p.Req != s.Req || s.Start < p.Start || s.End > p.End {
			t.Errorf("span %d (%s) does not nest in its parent %d", s.ID, s.Name, s.Parent)
		}
	}
	if children == 0 {
		t.Error("the trace holds no server-side child span")
	}
}
