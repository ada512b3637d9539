// Command bench is the repository's one benchmark: end-to-end runs of
// the hinet serving path over loopback TCP plus a per-layer latency
// ladder, all measured from outside through exported functions.
//
// The driver contract (BENCHMARK.json) runs one workload per process:
//
//	go run ./bench --workload topk_cold --seed 7 --seconds 15 --trace 0
//
// and reads the last line of standard output, one JSON object with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Without --workload the whole suite runs: every workload untraced, then
// traced. See README.md for the metric tables and how to read them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// clients is the closed-loop client count and the GOMAXPROCS the run is
// pinned to: the benchmark is sized for the 2-core box it gates on.
const clients = 2

type config struct {
	workload  string  // "" = all four
	seed      int64   // schedule seed; the server seed is fixed at 1
	seconds   float64 // timed seconds of one workload run, split over the rounds
	rounds    int     // fresh-server rounds per run
	trace     bool
	selfcheck bool
	smoke     bool   // tiny corpora and counts: the go test smoke run
	spec      string // path of BENCHMARK.json
	outDir    string
}

// spec is the part of BENCHMARK.json the program needs: which metrics a
// run must emit, their units, and the regression bounds -selfcheck uses.
type spec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []metricSpec `json:"end_to_end"`
	PerLayer  []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &s, nil
}

// summary is one metric over the windows (or rounds) of a run. The
// median is the reported value; min and max show how far single windows
// strayed.
type summary struct {
	Min, Median, Max float64
	Values           []float64 // in time order
}

func summarize(vals []float64) summary {
	s := slices.Clone(vals)
	slices.Sort(s)
	med := s[len(s)/2]
	if len(s)%2 == 0 {
		med = (s[len(s)/2-1] + med) / 2
	}
	return summary{Min: s[0], Median: med, Max: s[len(s)-1], Values: vals}
}

// percentile reads quantile q off ascending samples (nearest rank).
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// result is the driver-facing outcome of one workload run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is everything one workload run produced: the driver-facing
// result plus the per-window detail written to the out directory.
type outcome struct {
	Workload string             `json:"workload"`
	Trace    bool               `json:"trace"`
	Result   result             `json:"result"`
	Values   map[string]summary `json:"values"`   // per window or round; scaled to the reference clock
	Unscaled map[string]summary `json:"unscaled"` // the same as the clock read them
	Context  map[string]any     `json:"context"`
}

// suite carries what is shared across the workloads of one process: the
// ladder is workload-independent, so a whole-suite run measures it once.
type suite struct {
	cfg    config
	spec   *spec
	out    io.Writer
	ladder map[string]float64
}

// runOne measures one workload and prints its report; the last line
// printed is the driver's JSON object.
func (su *suite) runOne(w workload, trace bool) (*outcome, error) {
	cfg := su.cfg
	start := time.Now()
	var rec *recorder
	want := su.spec.EndToEnd
	rounds := cfg.rounds
	if trace {
		// Two rounds suffice for the per-workload counters; the rest of a
		// traced run's time goes to the ladder.
		rounds = min(rounds, 2)
		rec = newRecorder(200_000)
		want = su.spec.PerLayer
	}
	run, err := w.run(cfg, rounds, rec)
	if err != nil {
		return nil, err
	}
	vals := run.e2e
	if trace {
		if su.ladder == nil {
			if su.ladder, err = ladder(cfg, rec); err != nil {
				return nil, err
			}
		}
		vals = run.layer
		for name, v := range su.ladder {
			vals[name] = summarize([]float64{v})
		}
		spread := 0.0
		for _, s := range run.e2e {
			spread = max(spread, 100*(s.Max-s.Min)/s.Median)
		}
		vals["bench.round_spread_pct"] = summarize([]float64{spread})
		if err := rec.write(filepath.Join(cfg.outDir, w.name+".trace.jsonl")); err != nil {
			return nil, err
		}
	}

	res := result{Correct: run.failed == 0, Attempted: run.attempted, Failed: run.failed, Metrics: map[string]metric{}}
	fmt.Fprintf(su.out, "\n== %s (trace=%t, seed %d, %d rounds x %.2fs, %d clients) ==\n",
		w.name, trace, cfg.seed, rounds, cfg.seconds/float64(cfg.rounds), clients)
	for _, m := range want {
		s, ok := vals[m.Name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s is in BENCHMARK.json but was not measured", w.name, m.Name)
		}
		res.Metrics[m.Name] = metric{Value: s.Median, Unit: m.Unit}
		fmt.Fprintf(su.out, "%-36s %14.4f %-6s  min %.4f  max %.4f", m.Name, s.Median, m.Unit, s.Min, s.Max)
		if r, ok := run.raw[m.Name]; ok && !trace {
			fmt.Fprintf(su.out, "  unscaled %.4f", r.Median)
		}
		fmt.Fprintln(su.out)
	}
	if len(res.Metrics) != len(vals) {
		for name := range vals {
			if _, ok := res.Metrics[name]; !ok {
				return nil, fmt.Errorf("%s: metric %s was measured but is not in BENCHMARK.json", w.name, name)
			}
		}
	}
	fmt.Fprintf(su.out, "attempted %d  failed %d  error_rate %.6f\n", run.attempted, run.failed,
		float64(run.failed)/float64(max(run.attempted, 1)))
	for _, msg := range run.notes {
		fmt.Fprintln(su.out, "  failure:", msg)
	}

	o := &outcome{Workload: w.name, Trace: trace, Result: res, Values: vals, Unscaled: run.raw, Context: runContext(cfg, w, rounds, run.events, time.Since(start))}
	name := fmt.Sprintf("%s.trace%d.json", w.name, btoi(trace))
	if err := writeJSON(filepath.Join(cfg.outDir, name), o); err != nil {
		return nil, err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(su.out, "%s\n", line)
	return o, nil
}

// runContext records what a number depends on besides the code.
func runContext(cfg config, w workload, rounds, events int, wall time.Duration) map[string]any {
	return map[string]any{
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go":             runtime.Version(),
		"cpu":            cpuModel(),
		"seed":           cfg.seed,
		"rounds":         rounds,
		"round_seconds":  cfg.seconds / float64(cfg.rounds),
		"clients":        clients,
		"schedule":       events,
		"authors":        4 * w.corpus(cfg.smoke).AuthorsPerArea,
		"papers":         w.corpus(cfg.smoke).Papers,
		"shards":         max(w.shards, 1),
		"cache_capacity": w.cache,
		"wall_seconds":   wall.Seconds(),
	}
}

func cpuModel() string {
	b, _ := os.ReadFile("/proc/cpuinfo") // absent off Linux: the model is then unknown
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runSuite runs the selected workloads untraced and, unless only the
// end-to-end numbers are wanted, traced. It returns the untraced
// outcomes and whether every output was correct.
func (su *suite) runSuite(ws []workload, traced bool) (map[string]*outcome, bool, error) {
	outs := map[string]*outcome{}
	correct := true
	for _, trace := range []bool{false, true} {
		if trace && !traced {
			break
		}
		for _, w := range ws {
			o, err := su.runOne(w, trace)
			if err != nil {
				return nil, false, err
			}
			correct = correct && o.Result.Correct
			if !trace {
				outs[w.name] = o
			}
		}
	}
	return outs, correct, nil
}

// selfcheck runs the end-to-end suite twice and fails when two runs of
// the same code disagree by more than a metric's own bound: a metric
// that cannot pass here cannot gate a later change either.
func (su *suite) selfcheck(ws []workload) (bool, error) {
	a, okA, err := su.runSuite(ws, false)
	if err != nil {
		return false, err
	}
	b, okB, err := su.runSuite(ws, false)
	if err != nil {
		return false, err
	}
	pass := okA && okB
	fmt.Fprintf(su.out, "\n== selfcheck: second run against first ==\n")
	for _, w := range ws {
		for _, m := range su.spec.EndToEnd {
			va, vb := a[w.name].Result.Metrics[m.Name].Value, b[w.name].Result.Metrics[m.Name].Value
			worse := (vb - va) / va
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if math.Abs(worse) > m.Bound {
				verdict, pass = "FAIL", false
			}
			fmt.Fprintf(su.out, "%-10s %-16s %12.4f %12.4f  %+6.1f%% (bound %.0f%%) %s\n",
				w.name, m.Name, va, vb, 100*worse, 100*m.Bound, verdict)
		}
	}
	return pass, nil
}

func run(cfg config, out io.Writer) (bool, error) {
	sp, err := loadSpec(cfg.spec)
	if err != nil {
		return false, err
	}
	runtime.GOMAXPROCS(clients)
	su := &suite{cfg: cfg, spec: sp, out: out}
	all := workloads()
	if len(all) != len(sp.Workloads) {
		return false, fmt.Errorf("BENCHMARK.json names %d workloads, the program has %d", len(sp.Workloads), len(all))
	}
	ws := all
	if cfg.workload != "" {
		i := slices.IndexFunc(all, func(w workload) bool { return w.name == cfg.workload })
		if i < 0 {
			return false, fmt.Errorf("unknown workload %q", cfg.workload)
		}
		ws = all[i : i+1]
	}
	switch {
	case cfg.selfcheck:
		return su.selfcheck(ws)
	case cfg.workload != "":
		o, err := su.runOne(ws[0], cfg.trace)
		if err != nil {
			return false, err
		}
		return o.Result.Correct, nil
	default:
		_, correct, err := su.runSuite(ws, true)
		return correct, err
	}
}

func main() {
	cfg := config{spec: "BENCHMARK.json", outDir: filepath.Join("bench", "out")}
	trace := 0
	flag.StringVar(&cfg.workload, "workload", "", "run one workload (topk_hot, topk_cold, sharded3, mixed_rw); default all")
	flag.Int64Var(&cfg.seed, "seed", 42, "schedule seed")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "timed seconds per workload run")
	flag.IntVar(&cfg.rounds, "rounds", 5, "fresh-server rounds per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.BoolVar(&cfg.selfcheck, "selfcheck", false, "run the end-to-end suite twice and compare against the bounds")
	flag.Parse()
	cfg.trace = trace != 0
	if cfg.rounds < 1 || cfg.seconds <= 0 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: need -rounds >= 1, -seconds > 0 and no positional arguments")
		os.Exit(2)
	}
	correct, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !correct {
		os.Exit(1)
	}
}
