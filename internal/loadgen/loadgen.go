// Package loadgen is the deterministic workload generator, trace
// record/replay harness and capacity-planning tool for the serving
// tier (internal/serve). The paper's premise is online analytical
// querying over a live information network; this package is how the
// repository measures that claim end-to-end instead of by kernel
// microbenchmarks alone.
//
// Three layers:
//
//   - schedule generation (this file + arrival.go): a seeded PRNG turns
//     a Config into a list of timestamped requests — mixed query
//     cohorts over the serving endpoints with Zipf-skewed key
//     popularity, under an open-loop Poisson, closed-loop, or bursty
//     (sinusoidal-envelope) arrival process. No wall-clock enters the
//     schedule, so the same seed always yields a byte-identical trace;
//   - trace record/replay (trace.go, run.go): schedules serialize to a
//     JSONL trace; a sequential recorded run captures per-request
//     status and a stable response digest, and replaying the trace
//     against a server turns wire-format drift into test failures;
//   - measurement (run.go, report.go): per-cohort latency histograms
//     (obs.Hist; p50/p90/p99/p999), one outcome tally per cohort that
//     the run's counts sum, error rates, cache-hit rates
//     scraped from /metrics, a stepped-rate saturation sweep that
//     locates the throughput knee against an SLO, and a
//     machine-readable BENCH_SERVE.json report.
//
// The CLI entry point is `hinet loadgen`; see docs/OPERATIONS.md
// ("Load testing & capacity planning").
package loadgen

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"hinet/internal/dblp"
	"hinet/internal/hin"
	"hinet/internal/ingest"
	"hinet/internal/stats"
)

// Cohort labels: one per serving endpoint family the generator drives.
const (
	CohortPathSim  = "pathsim"
	CohortRank     = "rank"
	CohortClusters = "clusters"
	CohortIngest   = "ingest"
	CohortStats    = "stats"
)

// cohortOrder fixes the draw order of the cohort sampler — part of the
// determinism contract, never reorder.
var cohortOrder = []string{CohortPathSim, CohortRank, CohortClusters, CohortIngest, CohortStats}

// Arrival process kinds.
const (
	ArrivalPoisson = "poisson" // open-loop, exponential gaps at Rate
	ArrivalClosed  = "closed"  // closed-loop, Requests issued by Concurrency workers
	ArrivalBursty  = "bursty"  // open-loop Poisson under a sinusoidal rate envelope
)

// Mix weighs the query cohorts; weights need not sum to anything.
type Mix struct {
	PathSim  float64
	Rank     float64
	Clusters float64
	Ingest   float64
	Stats    float64
}

// DefaultMix approximates a read-heavy analytical deployment:
// similarity search dominates, rankings are common, cluster views and
// operational polls are occasional, and a trickle of ingest keeps
// epochs (and thus cache invalidation) realistic.
func DefaultMix() Mix {
	return Mix{PathSim: 60, Rank: 20, Clusters: 5, Ingest: 5, Stats: 10}
}

func (m Mix) weights() []float64 {
	return []float64{m.PathSim, m.Rank, m.Clusters, m.Ingest, m.Stats}
}

// ParseMix reads "pathsim=60,rank=20,ingest=5"-style specs; omitted
// cohorts get weight 0.
func ParseMix(spec string) (Mix, error) {
	var m Mix
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return m, fmt.Errorf("loadgen: mix term %q is not cohort=weight", part)
		}
		var w float64
		if _, err := fmt.Sscanf(v, "%g", &w); err != nil || w < 0 {
			return m, fmt.Errorf("loadgen: mix weight %q must be a non-negative number", v)
		}
		switch k {
		case CohortPathSim:
			m.PathSim = w
		case CohortRank:
			m.Rank = w
		case CohortClusters:
			m.Clusters = w
		case CohortIngest:
			m.Ingest = w
		case CohortStats:
			m.Stats = w
		default:
			return m, fmt.Errorf("loadgen: unknown cohort %q (want %v)", k, cohortOrder)
		}
	}
	if sum := m.PathSim + m.Rank + m.Clusters + m.Ingest + m.Stats; sum <= 0 {
		return m, fmt.Errorf("loadgen: mix %q has no positive weight", spec)
	}
	return m, nil
}

// Config parameterizes schedule generation. The zero value is not
// runnable; use withDefaults via Generate.
type Config struct {
	Seed        int64
	Arrival     string        // ArrivalPoisson | ArrivalClosed | ArrivalBursty
	Rate        float64       // open-loop mean arrivals/s
	Duration    time.Duration // open-loop schedule horizon
	Requests    int           // closed-loop request count (default Rate·Duration)
	Mix         Mix           // cohort weights (zero value = DefaultMix)
	ZipfS       float64       // key-popularity skew exponent (default 1.1)
	K           int           // top-k for pathsim queries (default 10)
	Paths       []string      // pathsim path= variants; "" = the prebuilt index
	IngestBatch int           // papers per ingest request (default 3)

	// Bursty envelope: rate(t) = Rate · (1 + BurstAmp·sin(2πt/BurstPeriod)).
	BurstPeriod time.Duration // default 10s
	BurstAmp    float64       // in [0,1); default 0.8
}

func (c Config) withDefaults() Config {
	if c.Arrival == "" {
		c.Arrival = ArrivalPoisson
	}
	if c.Rate == 0 {
		c.Rate = 200
	}
	if c.Duration == 0 {
		c.Duration = 10 * time.Second
	}
	if c.Mix == (Mix{}) {
		c.Mix = DefaultMix()
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.1
	}
	if c.K == 0 {
		c.K = 10
	}
	if len(c.Paths) == 0 {
		c.Paths = []string{"", "A-P-A"}
	}
	if c.IngestBatch == 0 {
		c.IngestBatch = 3
	}
	if c.BurstPeriod == 0 {
		c.BurstPeriod = 10 * time.Second
	}
	if c.BurstAmp == 0 {
		c.BurstAmp = 0.8
	}
	if c.Requests == 0 {
		c.Requests = int(c.Rate * c.Duration.Seconds())
	}
	return c
}

// Keyspace resolves the generator's draws against a concrete corpus:
// per-path endpoint dimensions for Zipf key sampling and object names
// for ingest deltas. Build it from the same seed/config as the target
// server (the `hinet ingest` convention) and every generated request is
// valid there.
type Keyspace struct {
	corpus *dblp.Corpus
	paths  []pathKeys
}

type pathKeys struct {
	spec     string   // as sent in path= ("" = prebuilt index)
	endpoint hin.Type // type queried at the path's ends
	dim      int      // object count of the endpoint type
}

// NewKeyspace validates the path specs against the corpus schema and
// captures the endpoint dimensions.
func NewKeyspace(c *dblp.Corpus, specs []string) (*Keyspace, error) {
	if len(specs) == 0 {
		specs = []string{""}
	}
	ks := &Keyspace{corpus: c}
	for _, spec := range specs {
		resolved := spec
		if resolved == "" {
			resolved = "A-P-V-P-A" // the server's prebuilt index
		}
		mp, err := c.Net.ParseMetaPath(resolved)
		if err != nil {
			return nil, fmt.Errorf("loadgen: path %q: %v", spec, err)
		}
		dim := c.Net.Count(mp[0])
		if dim == 0 {
			return nil, fmt.Errorf("loadgen: path %q has an empty endpoint type %q", spec, mp[0])
		}
		ks.paths = append(ks.paths, pathKeys{spec: spec, endpoint: mp[0], dim: dim})
	}
	return ks, nil
}

// Generate turns a config into a schedule: arrival offsets from the
// configured process, one request per arrival drawn from the cohort
// mix, keys Zipf-skewed over a seeded popularity permutation. The
// entire schedule is a pure function of (config, keyspace) — no
// wall-clock, no global state — so identical inputs yield a
// byte-identical trace.
func Generate(cfg Config, ks *Keyspace) (*Trace, error) {
	cfg = cfg.withDefaults()
	rng := stats.NewRNG(cfg.Seed)
	offsets, err := arrivalOffsets(cfg, rng)
	if err != nil {
		return nil, err
	}

	cohorts := stats.NewCategorical(rng, cfg.Mix.weights())
	// Per-path Zipf samplers over a seeded popularity permutation:
	// rank-0 popularity lands on a different object per path and per
	// seed, rather than always id 0.
	type keyDraw struct {
		zipf *stats.Zipf
		perm []int
	}
	draws := make([]keyDraw, len(ks.paths))
	for i, p := range ks.paths {
		draws[i] = keyDraw{zipf: stats.NewZipf(rng, p.dim, cfg.ZipfS), perm: rng.Perm(p.dim)}
	}

	tr := &Trace{Header: Header{
		Version: 1, Seed: cfg.Seed, Arrival: cfg.Arrival, Rate: cfg.Rate,
		DurationUS: cfg.Duration.Microseconds(), Requests: len(offsets),
	}}
	tr.Events = make([]Event, 0, len(offsets))
	ingestSeq := 0
	for _, off := range offsets {
		ev := Event{OffsetUS: off, ExpectStatus: 200}
		switch cohortOrder[cohorts.Draw()] {
		case CohortPathSim:
			pi := 0
			if len(ks.paths) > 1 {
				pi = rng.Intn(len(ks.paths))
			}
			d := draws[pi]
			id := d.perm[d.zipf.Draw()]
			ev.Cohort = CohortPathSim
			ev.Path = fmt.Sprintf("/v1/pathsim/topk?id=%d&k=%d", id, cfg.K)
			if ks.paths[pi].spec != "" {
				ev.Path += "&path=" + ks.paths[pi].spec
			}
		case CohortRank:
			metrics := []string{"pagerank", "pagerank", "authority", "hub"}
			tops := []int{5, 10, 25}
			ev.Cohort = CohortRank
			ev.Path = fmt.Sprintf("/v1/rank?metric=%s&top=%d", metrics[rng.Intn(len(metrics))], tops[rng.Intn(len(tops))])
		case CohortClusters:
			algos := []string{"rankclus", "netclus"}
			tops := []int{3, 5}
			ev.Cohort = CohortClusters
			ev.Path = fmt.Sprintf("/v1/clusters?algo=%s&top=%d", algos[rng.Intn(len(algos))], tops[rng.Intn(len(tops))])
		case CohortIngest:
			body, err := ks.ingestBody(rng, cfg.IngestBatch, ingestSeq)
			if err != nil {
				return nil, err
			}
			ingestSeq += cfg.IngestBatch
			ev.Cohort = CohortIngest
			ev.Method = "POST"
			ev.Path = "/v1/ingest"
			ev.Body = body
		case CohortStats:
			ev.Cohort = CohortStats
			ev.Path = "/v1/stats"
		}
		tr.Events = append(tr.Events, ev)
	}
	return tr, nil
}

// ingestBody builds one POST /v1/ingest payload: batch new papers, each
// wired to a venue, 1–3 authors and 2 terms drawn from the initial
// corpus. Paper names carry a running sequence number, so every event
// in a schedule adds distinct papers, yet the whole schedule stays
// replayable (names resolve against any same-seed server, and re-adding
// a name is idempotent at the node level).
func (ks *Keyspace) ingestBody(rng *stats.RNG, batch, seq int) (string, error) {
	n := ks.corpus.Net
	nA, nV, nT := n.Count(dblp.TypeAuthor), n.Count(dblp.TypeVenue), n.Count(dblp.TypeTerm)
	var ds []ingest.Delta
	for p := 0; p < batch; p++ {
		name := fmt.Sprintf("loadgen-paper-%d", seq+p)
		ds = append(ds, ingest.Delta{Op: ingest.OpAddNode, Type: string(dblp.TypePaper), Name: name})
		edge := func(dt hin.Type, id int) {
			ds = append(ds, ingest.Delta{
				Op:      ingest.OpAddEdge,
				SrcType: string(dblp.TypePaper), Src: name,
				DstType: string(dt), Dst: n.Name(dt, id),
			})
		}
		if nV > 0 {
			edge(dblp.TypeVenue, rng.Intn(nV))
		}
		for a, picked := 0, 1+rng.Intn(3); a < picked && a < nA; a++ {
			edge(dblp.TypeAuthor, rng.Intn(nA))
		}
		for t := 0; t < 2 && t < nT; t++ {
			edge(dblp.TypeTerm, rng.Intn(nT))
		}
	}
	b, err := json.Marshal(map[string]any{"deltas": ds})
	if err != nil {
		return "", err
	}
	return string(b), nil
}
