// Command hinet is the toolbox CLI over the library: generate a
// synthetic corpus, run an algorithm, print the resulting rankings,
// clusters or statistics. Every subcommand is deterministic under
// -seed.
//
// Subcommands:
//
//	rankclus   cluster+rank DBLP venues (RankClus)
//	netclus    net-clusters over the DBLP star network (NetClus)
//	pagerank   PageRank / HITS on a synthetic web graph
//	scan       SCAN structural clustering of a planted partition
//	stats      network measurements of generator models
//	truth      truth discovery on conflicting claims
//	pathsim    top-k peer search on a DBLP meta-path (-path A-P-V-P-A)
//	dbnet      relational DB → information network conversion demo
//	serve      online HTTP query server (snapshots, result cache, top-k)
//	ingest     stream JSONL deltas into a corpus or a running server
//	loadgen    deterministic load generator, trace record/replay, capacity sweep
//
// Unknown subcommands print usage and exit with status 2.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hinet/internal/core"
	"hinet/internal/dblp"
	"hinet/internal/eval"
	"hinet/internal/hin"
	"hinet/internal/ingest"
	"hinet/internal/netclus"
	"hinet/internal/netgen"
	"hinet/internal/netstat"
	"hinet/internal/pathsim"
	"hinet/internal/rank"
	"hinet/internal/relational"
	"hinet/internal/scan"
	"hinet/internal/serve"
	"hinet/internal/stats"
	"hinet/internal/truth"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	seed := fs.Int64("seed", 1, "RNG seed")
	k := fs.Int("k", 4, "clusters")
	topN := fs.Int("top", 5, "top items to print")
	addr := fs.String("addr", ":8080", "serve/loadgen: listen address (\":0\" picks a free port; loadgen's in-process server uses it only when given)")
	workers := fs.Int("workers", 0, "serve: sparse pool worker cap (0 = GOMAXPROCS)")
	cacheCap := fs.Int("cache", 4096, "serve: result cache entries (-1 disables)")
	papers := fs.Int("papers", 0, "serve: corpus size in papers (0 = library default)")
	pprofFlag := fs.Bool("pprof", false, "serve/loadgen: expose net/http/pprof under /debug/pprof/")
	defaultTimeout := fs.Duration("default-timeout", 0, "serve: per-request deadline when the client sends no ?timeout_ms (0 = none)")
	maxConcurrent := fs.Int("max-concurrent", 0, "serve: admission ceiling for heavy queries (0 = library default)")
	admissionFloor := fs.Int("admission-floor", 0, "serve: lowest concurrency the adaptive limiter may reach (0 = default)")
	sloTarget := fs.Duration("slo-target", 0, "serve: admitted-query p99 target driving the adaptive limiter (0 = default 150ms)")
	controlInterval := fs.Duration("control-interval", 0, "serve: admission controller tick (0 = default 100ms, negative disables)")
	pathSpec := fs.String("path", "A-P-V-P-A", "pathsim: symmetric meta-path over the DBLP schema (e.g. A-P-A)")
	emit := fs.Int("emit", 0, "ingest: emit N sample paper-arrival deltas as JSONL to stdout and exit")
	file := fs.String("file", "", "ingest: JSONL delta file to apply (\"-\" reads stdin)")
	server := fs.String("server", "", "ingest/loadgen: target a running hinet serve (e.g. http://localhost:8080)")
	refresh := fs.Bool("refresh-models", false, "ingest: ask the server to recompute clustering models")
	arrival := fs.String("arrival", "poisson", "loadgen: arrival process (poisson|closed|bursty)")
	rate := fs.Float64("rate", 200, "loadgen: open-loop mean arrivals/s")
	duration := fs.Duration("duration", 10*time.Second, "loadgen: schedule horizon")
	concurrency := fs.Int("concurrency", 0, "loadgen: closed-loop workers (0 = open-loop from offsets)")
	requests := fs.Int("requests", 0, "loadgen: closed-loop request count (0 = rate x duration)")
	mix := fs.String("mix", "", "loadgen: cohort weights, e.g. pathsim=60,rank=20,clusters=5,ingest=5,stats=10")
	zipf := fs.Float64("zipf", 1.1, "loadgen: key-popularity skew exponent (s > 1)")
	lgPaths := fs.String("paths", "", "loadgen: comma-separated pathsim path= variants (empty entry = prebuilt index)")
	record := fs.String("record", "", "loadgen: run sequentially and record status+digests to FILE")
	replay := fs.String("replay", "", "loadgen: replay a recorded trace FILE with digest checks")
	out := fs.String("out", "", "loadgen: write the JSON report (schema hinet-serve/1) to FILE")
	sweep := fs.Bool("sweep", false, "loadgen: stepped-rate saturation sweep; report the SLO knee")
	sweepSteps := fs.Int("sweep-steps", 5, "loadgen: max sweep steps (rate doubles per step)")
	stepDuration := fs.Duration("step-duration", 5*time.Second, "loadgen: duration of each sweep step")
	sloP99 := fs.Duration("slo-p99", 0, "loadgen: p99 latency SLO (0 = default 250ms)")
	sloErrors := fs.Float64("slo-errors", 0, "loadgen: max error-rate SLO in [0,1] (0 = default 0.01)")
	strict := fs.Bool("strict", false, "loadgen: exit nonzero on any error, mismatch or empty run")
	honorRetryAfter := fs.Bool("honor-retry-after", false, "loadgen: closed-loop workers back off per 503 Retry-After hints")
	scheduleOnly := fs.String("schedule-only", "", "loadgen: write the generated schedule to FILE and exit")
	_ = fs.Parse(os.Args[2:])

	switch cmd {
	case "rankclus":
		runRankClus(*seed, *k, *topN)
	case "netclus":
		runNetClus(*seed, *k, *topN)
	case "pagerank":
		runPageRank(*seed, *topN)
	case "scan":
		runSCAN(*seed)
	case "stats":
		runStats(*seed)
	case "truth":
		runTruth(*seed)
	case "pathsim":
		runPathSim(*seed, *topN, *pathSpec)
	case "dbnet":
		runDBNet(*seed)
	case "serve":
		runServe(serveFlags{
			seed: *seed, k: *k, addr: *addr, workers: *workers,
			cacheCap: *cacheCap, papers: *papers,
			pprof: *pprofFlag, defaultTimeout: *defaultTimeout,
			maxConcurrent: *maxConcurrent, admissionFloor: *admissionFloor,
			sloTarget: *sloTarget, controlInterval: *controlInterval,
		})
	case "ingest":
		runIngest(*seed, *emit, *file, *server, *refresh, *papers)
	case "loadgen":
		// -addr's default belongs to serve: loadgen takes it only when given.
		lgAddr := ""
		fs.Visit(func(fl *flag.Flag) {
			if fl.Name == "addr" {
				lgAddr = *addr
			}
		})
		runLoadgen(loadgenFlags{
			seed: *seed, k: *k, papers: *papers, workers: *workers,
			addr: lgAddr, pprof: *pprofFlag,
			cacheCap: *cacheCap, server: *server,
			arrival: *arrival, rate: *rate, duration: *duration,
			concurrency: *concurrency, requests: *requests, mix: *mix,
			zipf: *zipf, paths: *lgPaths, record: *record, replay: *replay,
			out: *out, sweep: *sweep, sweepSteps: *sweepSteps,
			stepDuration: *stepDuration, sloP99: *sloP99, sloErrors: *sloErrors,
			strict: *strict, scheduleOnly: *scheduleOnly, honorRetryAfter: *honorRetryAfter,
		})
	default:
		fmt.Fprintf(os.Stderr, "hinet: unknown subcommand %q\n", cmd)
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: hinet <subcommand> [-seed N] [-k K] [-top N]

subcommands:
  rankclus   cluster+rank DBLP venues (RankClus)
  netclus    net-clusters over the DBLP star network (NetClus)
  pagerank   PageRank / HITS on a synthetic web graph
  scan       SCAN structural clustering of a planted partition
  stats      network measurements of generator models
  truth      truth discovery on conflicting claims
  pathsim    top-k peer search on a DBLP meta-path [-path A-P-V-P-A]
  dbnet      relational DB -> information network conversion demo
  serve      online HTTP query server (snapshots, result cache, top-k)
             [-addr A] [-workers N] [-cache N] [-papers N] [-pprof]
             [-default-timeout D] [-max-concurrent N] [-admission-floor N]
             [-slo-target D] [-control-interval D]
  ingest     stream JSONL deltas into a corpus or a running server
             [-emit N] [-file F|-] [-server URL] [-refresh-models] [-papers N]
  loadgen    deterministic load generator, trace record/replay, capacity sweep
             [-arrival poisson|closed|bursty] [-rate R] [-duration D] [-mix SPEC]
             [-record F | -replay F | -schedule-only F] [-sweep] [-out F] [-strict]
             [-honor-retry-after] [-addr A] [-pprof]
`)
}

// runIngest has three modes, matched to the incremental-ingestion
// walkthrough in docs/OPERATIONS.md:
//
//	-emit N              print N sample paper-arrival deltas (JSONL)
//	-file F              apply a JSONL delta file to a local corpus
//	-file F -server URL  POST the batch to a running `hinet serve`
//
// Emission and local application are deterministic under -seed, and
// emitted batches reference objects by name, so they apply cleanly to
// any server built from the same seed/config.
func runIngest(seed int64, emit int, file, server string, refresh bool, papers int) {
	cfg := dblp.Config{}
	if papers > 0 {
		cfg.Papers = papers
	}
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "hinet ingest: %v\n", err)
		os.Exit(1)
	}
	if emit > 0 {
		c := dblp.Generate(stats.NewRNG(seed), cfg)
		if err := ingest.WriteJSONL(os.Stdout, ingest.SamplePapers(c, stats.NewRNG(seed+1000), emit)); err != nil {
			fail(err)
		}
		return
	}
	if file == "" {
		fail(fmt.Errorf("need -emit N or -file F (see -h)"))
	}
	in := os.Stdin
	if file != "-" {
		f, err := os.Open(file)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		in = f
	}
	deltas, err := ingest.ParseJSONL(in)
	if err != nil {
		fail(err)
	}
	if server != "" {
		body, err := json.Marshal(map[string]any{"deltas": deltas, "refresh_models": refresh})
		if err != nil {
			fail(err)
		}
		client := &http.Client{Timeout: 60 * time.Second}
		resp, err := client.Post(strings.TrimRight(server, "/")+"/v1/ingest", "application/json", bytes.NewReader(body))
		if err != nil {
			fail(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		if resp.StatusCode != http.StatusOK {
			fail(fmt.Errorf("server returned %s: %s", resp.Status, strings.TrimSpace(string(out))))
		}
		fmt.Printf("applied %d deltas: %s\n", len(deltas), strings.TrimSpace(string(out)))
		return
	}
	// Local mode: apply to a freshly generated corpus and report what
	// changed, including the incremental-path timing.
	c := dblp.Generate(stats.NewRNG(seed), cfg)
	apvpa := hin.MetaPath{dblp.TypeAuthor, dblp.TypePaper, dblp.TypeVenue, dblp.TypePaper, dblp.TypeAuthor}
	c.Net.CommutingMatrix(apvpa) // warm the caches the merge path keeps current
	before := time.Now()
	sum, err := ingest.Apply(c.Net, deltas, ingest.Options{})
	if err != nil {
		fail(err)
	}
	apply := time.Since(before)
	before = time.Now()
	c.Net.CommutingMatrix(apvpa)
	fmt.Printf("applied %d deltas in %s (+%s incremental APVPA refresh)\n",
		len(deltas), apply.Round(time.Microsecond), time.Since(before).Round(time.Microsecond))
	fmt.Printf("  nodes +%d/-%d  edges +%d/-%d  relations touched %d\n",
		sum.NodesAdded, sum.NodesRemoved, sum.EdgesAdded, sum.EdgesRemoved, sum.Relations)
	for _, t := range c.Net.Types() {
		fmt.Printf("  %-8s %d objects\n", t, c.Net.Count(t))
	}
}

// serveFlags carries the serve-specific flag values out of main's
// shared FlagSet.
type serveFlags struct {
	seed            int64
	k               int
	addr            string
	workers         int
	cacheCap        int
	papers          int
	pprof           bool
	defaultTimeout  time.Duration
	maxConcurrent   int
	admissionFloor  int
	sloTarget       time.Duration
	controlInterval time.Duration
}

func runServe(f serveFlags) {
	opts := serve.Options{
		Addr:            f.addr,
		Seed:            f.seed,
		Models:          serve.ModelConfig{K: f.k},
		CacheCapacity:   f.cacheCap,
		Workers:         f.workers,
		Pprof:           f.pprof,
		DefaultTimeout:  f.defaultTimeout,
		MaxConcurrent:   f.maxConcurrent,
		AdmissionFloor:  f.admissionFloor,
		SLOTargetP99:    f.sloTarget,
		ControlInterval: f.controlInterval,
	}
	if f.papers > 0 {
		opts.Models.Corpus.Papers = f.papers
	}
	seed := f.seed
	fmt.Printf("building snapshot (seed %d)...\n", seed)
	s := serve.New(opts)
	snap := s.Snapshot()
	fmt.Printf("snapshot epoch %d built in %s (%d authors, pathsim nnz %d)\n",
		snap.Epoch, snap.BuildTime.Round(time.Millisecond),
		snap.IndexDim, snap.IndexNNZ)
	bound, err := s.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "hinet serve: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("listening on http://%s (try /healthz, /v1/pathsim/topk?id=0&k=5)\n", bound)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down...")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "hinet serve: shutdown: %v\n", err)
		os.Exit(1)
	}
}

func runRankClus(seed int64, k, topN int) {
	c := dblp.Generate(stats.NewRNG(seed), dblp.Config{})
	b := c.VenueAuthorBipartite()
	m := core.Run(stats.NewRNG(seed+1), b, core.Options{K: k, Method: core.AuthorityRanking, Restarts: 3})
	fmt.Printf("RankClus on %d venues x %d authors: NMI vs ground truth = %.3f\n",
		c.Net.Count(dblp.TypeVenue), c.Net.Count(dblp.TypeAuthor), eval.NMI(c.VenueArea, m.Assign))
	for cl := 0; cl < m.K; cl++ {
		fmt.Printf("cluster %d:\n  venues:", cl)
		for _, v := range m.TopX(cl, topN) {
			fmt.Printf(" %s(%.3f)", c.Net.Name(dblp.TypeVenue, v), m.RankX[cl][v])
		}
		fmt.Printf("\n  authors:")
		for _, a := range m.TopY(cl, topN) {
			fmt.Printf(" %s(%.4f)", c.Net.Name(dblp.TypeAuthor, a), m.RankY[cl][a])
		}
		fmt.Println()
	}
}

func runNetClus(seed int64, k, topN int) {
	c := dblp.Generate(stats.NewRNG(seed), dblp.Config{})
	m := netclus.Run(stats.NewRNG(seed+1), c.Star(), netclus.Options{K: k, Restarts: 2})
	fmt.Printf("NetClus on %d papers: paper NMI = %.3f, venue NMI = %.3f\n",
		c.Net.Count(dblp.TypePaper),
		eval.NMI(c.PaperArea, m.AssignCenter),
		eval.NMI(c.VenueArea, m.AssignAttr(1)))
	types := []struct {
		idx  int
		name hin.Type
	}{{0, dblp.TypeAuthor}, {1, dblp.TypeVenue}, {2, dblp.TypeTerm}}
	for cl := 0; cl < m.K; cl++ {
		fmt.Printf("net-cluster %d:\n", cl)
		for _, t := range types {
			fmt.Printf("  top %s:", t.name)
			for _, o := range m.TopAttr(t.idx, cl, topN) {
				fmt.Printf(" %s", c.Net.Name(t.name, o))
			}
			fmt.Println()
		}
	}
}

func runPageRank(seed int64, topN int) {
	g := netgen.BarabasiAlbert(stats.NewRNG(seed), 2000, 3)
	adj := g.Adjacency()
	pr := rank.PageRank(adj, rank.Options{})
	ht := rank.HITS(adj, rank.Options{})
	fmt.Printf("BA graph n=%d m=%d: PageRank converged in %d iters, HITS in %d\n",
		g.N(), g.M(), pr.Iterations, ht.Iterations)
	fmt.Print("top PageRank nodes:")
	for _, v := range pr.TopK(topN) {
		fmt.Printf(" %d(%.4f)", v, pr.Scores[v])
	}
	fmt.Println()
}

func runSCAN(seed int64) {
	g, truthL := netgen.PlantedPartition(stats.NewRNG(seed), 3, 50, 0.4, 0.02)
	res := scan.Run(g, scan.Options{Epsilon: 0.5, Mu: 3})
	var pt, pp []int
	hubs, outliers := 0, 0
	for v := range truthL {
		switch res.Role[v] {
		case scan.RoleMember:
			pt = append(pt, truthL[v])
			pp = append(pp, res.Cluster[v])
		case scan.RoleHub:
			hubs++
		case scan.RoleOutlier:
			outliers++
		}
	}
	fmt.Printf("SCAN: %d clusters, %d hubs, %d outliers, member NMI = %.3f\n",
		res.Clusters, hubs, outliers, eval.NMI(pt, pp))
}

func runStats(seed int64) {
	for _, m := range []struct {
		name string
		g    func() *netstat.Summary
	}{
		{"BarabasiAlbert(3000,3)", func() *netstat.Summary {
			s := netstat.Summarize(netgen.BarabasiAlbert(stats.NewRNG(seed), 3000, 3))
			return &s
		}},
		{"ErdosRenyi(3000,p=6/n)", func() *netstat.Summary {
			s := netstat.Summarize(netgen.ErdosRenyi(stats.NewRNG(seed+1), 3000, 6.0/2999))
			return &s
		}},
		{"WattsStrogatz(2000,8,0.1)", func() *netstat.Summary {
			s := netstat.Summarize(netgen.WattsStrogatz(stats.NewRNG(seed+2), 2000, 8, 0.1))
			return &s
		}},
	} {
		s := m.g()
		fmt.Printf("%-28s nodes=%d edges=%d density=%.5f cc=%.3f apl=%.2f alpha=%.2f maxdeg=%d\n",
			m.name, s.Nodes, s.Edges, s.Density, s.ClusteringCoef, s.AvgPathLength, s.PowerLawAlpha, s.MaxDegree)
	}
}

func runTruth(seed int64) {
	s := truth.Synthesize(stats.NewRNG(seed), truth.SynthConfig{})
	r := truth.Run(s.Net, truth.Options{})
	fmt.Printf("TruthFinder: converged=%v iters=%d\n", r.Converged, r.Iterations)
	fmt.Printf("accuracy: TruthFinder=%.3f majority=%.3f\n",
		s.Accuracy(truth.PredictTruth(s.Net, r.Confidence)),
		s.Accuracy(truth.MajorityVote(s.Net)))
}

func runPathSim(seed int64, topN int, spec string) {
	c := dblp.Generate(stats.NewRNG(seed), dblp.Config{})
	path, err := c.Net.ParseMetaPath(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hinet pathsim: %v\n", err)
		os.Exit(1)
	}
	if plan, err := c.Net.PathEngine().Plan(pathStrings(path)); err == nil {
		fmt.Printf("plan: %s\n", plan)
	}
	ix, err := pathsim.NewRangeIndexCtx(context.Background(), c.Net, path, 0, c.Net.Count(path[0]))
	if err != nil {
		fmt.Fprintf(os.Stderr, "hinet pathsim: %v\n", err)
		os.Exit(1)
	}
	// Query the busiest object of the path's endpoint type.
	endpoint := path[0]
	rel := c.Net.Relation(endpoint, path[1])
	deg := make([]float64, c.Net.Count(endpoint))
	for o := 0; o < rel.Rows(); o++ {
		deg[o] = rel.RowSum(o)
	}
	q := stats.ArgMax(deg)
	fmt.Printf("PathSim %s peers of %s:\n", path.String(), c.Net.Name(endpoint, q))
	for _, p := range ix.TopK(q, topN) {
		fmt.Printf("  %-28s %.4f\n", c.Net.Name(endpoint, p.ID), p.Score)
	}
}

func pathStrings(p hin.MetaPath) []string {
	out := make([]string, len(p))
	for i, t := range p {
		out[i] = string(t)
	}
	return out
}

func runDBNet(seed int64) {
	s := relational.SyntheticCustomers(stats.NewRNG(seed), relational.SynthConfig{Customers: 100})
	n := s.DB.Network(relational.NetworkOptions{CategoricalAsObjects: []string{"branch.region", "transaction.kind"}})
	fmt.Println("relational schema -> information network:")
	for _, t := range n.Types() {
		fmt.Printf("  type %-18s %d objects\n", t, n.Count(t))
	}
	fmt.Println("schema edges:")
	for _, e := range n.SchemaEdges() {
		fmt.Printf("  %s -- %s\n", e[0], e[1])
	}
}
