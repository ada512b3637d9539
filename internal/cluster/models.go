// The shared model recipe: one deterministic function from (seed,
// spec) — and, for incremental generations, the previous models plus a
// delta batch — to the full artifact set a serving generation needs.
// Every cluster write builds through these two functions: same seed,
// same spec, same delta history ⇒ bitwise-identical models, whatever
// the schedule (TestWriteBitsIndependentOfSchedule), and a patched chain
// answers as a cold build of each generation does
// (serve's TestIngestMatchesColdReference).

package cluster

import (
	"errors"

	"hinet/internal/core"
	"hinet/internal/dblp"
	"hinet/internal/hin"
	"hinet/internal/ingest"
	"hinet/internal/netclus"
	"hinet/internal/pathsim"
	"hinet/internal/rank"
	"hinet/internal/sparse"
	"hinet/internal/stats"
)

// Meta paths materialized at build time: APVPA (shared-venue peers,
// the PathSim index) and APA (co-authorship, the square graph PageRank
// and HITS run on).
var (
	// PathAPVPA is the default similarity path; its endpoint type is
	// the type the cluster partitions.
	PathAPVPA = hin.MetaPath{dblp.TypeAuthor, dblp.TypePaper, dblp.TypeVenue, dblp.TypePaper, dblp.TypeAuthor}
	// PathAPA is the co-authorship projection the ranking models run on.
	PathAPA = hin.MetaPath{dblp.TypeAuthor, dblp.TypePaper, dblp.TypeAuthor}
)

// ModelSpec controls what a generation materializes. It mirrors the
// serving layer's model configuration; SkipPathSim is the shard
// variant — shards serve the similarity index from its factor, built
// separately from the same network, and never hold it materialized.
type ModelSpec struct {
	Corpus   dblp.Config // corpus size/separability (zero value = library defaults)
	K        int         // cluster count for RankClus/NetClus (0 = number of corpus areas)
	Restarts int         // random restarts per clustering model (0 = 1)

	// SkipPathSim leaves Models.PathSim nil. Shards set it: the full
	// commuting matrix is exactly what serving avoids materializing.
	SkipPathSim bool
}

// Models is one generation's artifact set — everything a View carries
// except the shards' ranges and its memos. Immutable: every request
// that loads a View reads its one Models.
type Models struct {
	Seed     int64
	Corpus   *dblp.Corpus    // network + names + ground-truth areas
	PageRank rank.Result     // PageRank over the co-author (APA) graph
	HITS     rank.HITSResult // HITS over the same graph
	RankClus *core.Model     // venue clusters (venue×author bipartite)
	NetClus  *netclus.Model  // net-clusters of the paper star network
	PathSim  *pathsim.Index  // materialized APVPA index, the reference form (nil with SkipPathSim)
}

// clusterParams resolves the spec's clustering knobs against a corpus.
func (spec ModelSpec) clusterParams(c *dblp.Corpus) (k, restarts int) {
	k = spec.K
	if k == 0 {
		k = c.Areas()
	}
	restarts = spec.Restarts
	if restarts == 0 {
		restarts = 1
	}
	return k, restarts
}

// BuildModels materializes a fresh generation from seed: generate the
// corpus, run the ranking models over the co-author graph, fit both
// clustering models, and (unless spec skips it) build the default
// PathSim index. Deterministic: equal (seed, spec) always produce
// identical artifacts, bit for bit.
func BuildModels(seed int64, spec ModelSpec) *Models {
	m, _ := buildModels(seed, spec) // no beside job, no error
	return m
}

// buildModels is BuildModels with jobs to run beside the model builds
// (see Models.fit).
func buildModels(seed int64, spec ModelSpec, beside ...func(*hin.Network) error) (*Models, error) {
	m := &Models{Seed: seed, Corpus: dblp.Generate(stats.NewRNG(seed), spec.Corpus)}
	return m, m.fit(nil, true, spec, beside)
}

// IngestModels applies a delta batch to prev as an incremental
// generation: the network is cloned copy-on-write (sharing link
// storage, relation matrices and meta-path materializations — those the
// batch touches stay as patch bases), the deltas merge into the clone,
// and new models build from the result — the co-author graph and the
// similarity index's factor patched row-incrementally by the meta-path
// engine,
// PageRank and HITS warm-started from the previous generation's
// scores. The clustering models are carried over unless refreshModels
// is set (they summarize the corpus and drift only slowly under small
// deltas). On a validation error the clone is discarded and prev is
// untouched — ingestion is all-or-nothing.
//
// Determinism carries through: identical prev models and the same
// batch produce identical next models.
func IngestModels(prev *Models, deltas []ingest.Delta, refreshModels bool, spec ModelSpec) (*Models, ingest.Summary, error) {
	return ingestModels(prev, deltas, refreshModels, spec)
}

// ingestModels is IngestModels with jobs to run beside the model builds
// (see Models.fit). An error from one of them fails the write like a
// validation error: nothing of it is kept.
func ingestModels(prev *Models, deltas []ingest.Delta, refreshModels bool, spec ModelSpec, beside ...func(*hin.Network) error) (*Models, ingest.Summary, error) {
	net := prev.Corpus.Net.Clone()
	sum, err := ingest.Apply(net, deltas, ingest.Options{})
	if err != nil {
		return nil, sum, err
	}
	m := &Models{Seed: prev.Seed, Corpus: prev.Corpus.WithNetwork(net), RankClus: prev.RankClus, NetClus: prev.NetClus}
	if err := m.fit(prev, refreshModels, spec, beside); err != nil {
		return nil, sum, err
	}
	return m, sum, nil
}

// fit computes the models of m's corpus — warm from prev's scores when
// there is a prev, the clustering models only when asked — as a
// fork–join of whole jobs on the sparse pool (sparse.Do): everything
// here needs nothing but the network, so the co-author graph followed
// by PageRank beside HITS, each clustering model, the materialized
// similarity index (when the spec keeps one) and the caller's beside
// jobs (every shard's range of the default index) run side by side, each
// on one core — on a graph of serving size none of them is worth
// cutting into blocks — and m is complete
// when fit returns. Each job owns the field it writes and every kernel
// under it partitions by shape alone, so the result does not depend on
// the schedule; at Parallelism 1 the jobs run in the order written.
// Every job runs to its end; the beside jobs' errors come back joined.
func (m *Models) fit(prev *Models, clusterings bool, spec ModelSpec, beside []func(*hin.Network) error) error {
	net := m.Corpus.Net
	jobs := []func(){func() {
		coauthor := net.CommutingMatrix(PathAPA)
		var pagerank, hubs []float64
		if prev != nil {
			pagerank = PadScores(prev.PageRank.Scores, coauthor.Rows())
			hubs = PadScores(prev.HITS.Hub, coauthor.Rows())
		}
		sparse.Do(
			func() { m.PageRank = rank.PageRank(coauthor, rank.Options{Start: pagerank}) },
			func() { m.HITS = rank.HITS(coauthor, rank.Options{Start: hubs}) },
		)
	}}
	if clusterings {
		k, restarts := spec.clusterParams(m.Corpus)
		jobs = append(jobs, func() {
			m.RankClus = core.Run(stats.NewRNG(m.Seed+1), m.Corpus.VenueAuthorBipartite(),
				core.Options{K: k, Method: core.AuthorityRanking, Restarts: restarts})
		}, func() {
			m.NetClus = netclus.Run(stats.NewRNG(m.Seed+2), m.Corpus.Star(),
				netclus.Options{K: k, Restarts: restarts})
		})
	}
	if !spec.SkipPathSim || prev != nil && prev.PathSim != nil {
		jobs = append(jobs, func() { m.PathSim = pathsim.NewIndex(net, PathAPVPA) })
	}
	errs := make([]error, len(beside))
	for i, job := range beside {
		jobs = append(jobs, func() { errs[i] = job(net) })
	}
	sparse.Do(jobs...)
	return errors.Join(errs...)
}

// PadScores returns scores extended with zeros to length n (ids are
// append-only, so a previous epoch's vector is a prefix of the new
// object space). Same-length vectors pass through unchanged.
func PadScores(scores []float64, n int) []float64 {
	if len(scores) >= n {
		return scores
	}
	out := make([]float64, n)
	copy(out, scores)
	return out
}
