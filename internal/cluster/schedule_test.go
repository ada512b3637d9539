// The write's fork–join (Models.fit) against the order it replaced: the
// same parent and batch give the same bits however the jobs are
// scheduled, and a job that fails takes the whole write with it.

package cluster

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

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

// seqBuild is BuildModels as it ran before the fork–join: one model
// after the other on the calling goroutine — the reference order.
func seqBuild(seed int64, spec ModelSpec) *Models {
	c := dblp.Generate(stats.NewRNG(seed), spec.Corpus)
	k, restarts := spec.clusterParams(c)
	coauthor := c.Net.CommutingMatrix(PathAPA)
	return &Models{
		Seed:     seed,
		Corpus:   c,
		PageRank: rank.PageRank(coauthor, rank.Options{}),
		HITS:     rank.HITS(coauthor, rank.Options{}),
		RankClus: core.Run(stats.NewRNG(seed+1), c.VenueAuthorBipartite(),
			core.Options{K: k, Method: core.AuthorityRanking, Restarts: restarts}),
		NetClus: netclus.Run(stats.NewRNG(seed+2), c.Star(),
			netclus.Options{K: k, Restarts: restarts}),
	}
}

// seqIngest is IngestModels in the reference order.
func seqIngest(t *testing.T, prev *Models, deltas []ingest.Delta) *Models {
	t.Helper()
	net := prev.Corpus.Net.Clone()
	if _, err := ingest.Apply(net, deltas, ingest.Options{}); err != nil {
		t.Fatal(err)
	}
	coauthor := net.CommutingMatrix(PathAPA)
	return &Models{
		Seed:     prev.Seed,
		Corpus:   prev.Corpus.WithNetwork(net),
		PageRank: rank.PageRank(coauthor, rank.Options{Start: PadScores(prev.PageRank.Scores, coauthor.Rows())}),
		HITS:     rank.HITS(coauthor, rank.Options{Start: PadScores(prev.HITS.Hub, coauthor.Rows())}),
		RankClus: prev.RankClus,
		NetClus:  prev.NetClus,
	}
}

func sameBitsVec(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d scores, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: [%d] = %v, sequential order %v", label, i, got[i], want[i])
		}
	}
}

// sameRanks holds got's ranking models to want's, bit for bit.
func sameRanks(t *testing.T, label string, got, want *Models) {
	t.Helper()
	if got.PageRank.Iterations != want.PageRank.Iterations || got.HITS.Iterations != want.HITS.Iterations ||
		got.PageRank.Converged != want.PageRank.Converged || got.HITS.Converged != want.HITS.Converged {
		t.Fatalf("%s: PageRank/HITS took %d/%d iterations, sequential order %d/%d", label,
			got.PageRank.Iterations, got.HITS.Iterations, want.PageRank.Iterations, want.HITS.Iterations)
	}
	sameBitsVec(t, label+" pagerank", got.PageRank.Scores, want.PageRank.Scores)
	sameBitsVec(t, label+" authority", got.HITS.Authority, want.HITS.Authority)
	sameBitsVec(t, label+" hub", got.HITS.Hub, want.HITS.Hub)
}

// sameRange holds every row of got to the matching row of want.
func sameRange(t *testing.T, label string, got, want *pathsim.Index) {
	t.Helper()
	if got.Lo() != want.Lo() || got.Hi() != want.Hi() || got.Dim() != want.Dim() || got.NNZ() != want.NNZ() {
		t.Fatalf("%s: range [%d,%d) of %d with %d entries, want [%d,%d) of %d with %d", label,
			got.Lo(), got.Hi(), got.Dim(), got.NNZ(), want.Lo(), want.Hi(), want.Dim(), want.NNZ())
	}
	for x := 0; x < want.Dim(); x++ {
		sameBitsVec(t, fmt.Sprintf("%s row %d", label, x), got.AllScores(x), want.AllScores(x))
	}
}

// TestWriteBitsIndependentOfSchedule: one parent and one batch, through
// IngestModels and through 1- and 3-shard clusters (readers alongside,
// then a Restart replay), at GOMAXPROCS 1, 2 and 4 with Parallelism
// pinned — with every kernel below the grain and with every kernel
// forced through the pool — yield the ranking vectors, the iteration
// counts and the default-range rows of the sequential order, bit for
// bit.
func TestWriteBitsIndependentOfSchedule(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	defer sparse.Parallelism(sparse.Parallelism(0))
	defer sparse.SerialThreshold(sparse.SerialThreshold(0))
	sparse.Parallelism(2) // block partitions are a function of this, not of GOMAXPROCS
	ctx := context.Background()
	spec, seed, author := raceSpec(), int64(5), dblp.TypeAuthor

	for _, grain := range []int{sparse.SerialThreshold(0), 1} {
		sparse.SerialThreshold(grain)
		base := seqBuild(seed, spec)
		deltas := newTestDeltas(base, "sched")
		want := seqIngest(t, base, deltas)
		wantFull := pathsim.NewIndex(want.Corpus.Net, PathAPVPA)
		wantRange := func(sh *LocalShard) *pathsim.Index {
			lo, hi := sh.boundsFor(author, want.Corpus.Net.Count(author))
			ix, err := pathsim.NewRangeIndexCtx(ctx, want.Corpus.Net, PathAPVPA, lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			return ix
		}

		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			label := fmt.Sprintf("grain %d, GOMAXPROCS %d", grain, procs)
			built := BuildModels(seed, spec)
			sameRanks(t, label+": BuildModels", built, base)
			got, _, err := IngestModels(built, deltas, false, spec)
			if err != nil {
				t.Fatal(err)
			}
			sameRanks(t, label+": IngestModels", got, want)
			sameRange(t, label+": IngestModels index", got.PathSim, wantFull)

			for _, shards := range []int{1, 3} {
				label := fmt.Sprintf("%s, %d shards", label, shards)
				part := PartitionUniform(string(author), base.Corpus.Net.Count(author), shards)
				c, err := NewLocalCluster(shards, part, spec, nil, seed)
				if err != nil {
					t.Fatal(err)
				}
				stop := make(chan struct{})
				var readers sync.WaitGroup
				for r := 0; r < 2; r++ {
					readers.Add(1)
					go func() {
						defer readers.Done()
						for x := 0; ; x++ {
							select {
							case <-stop:
								return
							default:
							}
							if _, _, err := c.TopK(ctx, "", x%part.Bounds[shards], 5); err != nil {
								t.Errorf("%s: read beside the write: %v", label, err)
								return
							}
						}
					}()
				}
				_, _, err = c.Ingest(deltas, false)
				close(stop)
				readers.Wait()
				if err != nil {
					t.Fatal(err)
				}
				check := func(label string, sh *LocalShard) {
					t.Helper()
					g := sh.gen.Load()
					sameRanks(t, label, g.models, want)
					sameRange(t, label+" default range", g.def, wantRange(sh))
				}
				for i := 0; i < shards; i++ {
					check(fmt.Sprintf("%s, shard %d", label, i), c.Shard(i).(*LocalShard))
				}
				last := c.Shard(shards - 1).(*LocalShard)
				if err := last.Restart(); err != nil {
					t.Fatal(err)
				}
				check(label+", replayed shard", last)
			}
		}
	}
}

// shardState is what a failed write must leave as it found it.
type shardState struct {
	gen        *generation
	epoch      int64
	checkpoint *Models
	base       int64
	log        []*writeOp
	memoParent *writeOp
	memoOp     *writeOp
	memoModels *Models
}

func stateOf(sh *LocalShard) shardState {
	return shardState{sh.gen.Load(), sh.epoch.Load(), sh.checkpoint, sh.base, append([]*writeOp(nil), sh.baseOps...),
		sh.memo.parent, sh.memo.op, sh.memo.models}
}

func (s shardState) same(o shardState) bool {
	return slices.Equal(s.log, o.log) && s.gen == o.gen && s.epoch == o.epoch && s.checkpoint == o.checkpoint && s.base == o.base &&
		s.memoParent == o.memoParent && s.memoOp == o.memoOp && s.memoModels == o.memoModels
}

// TestFailedJobFailsTheWrite: a job beside the model builds that returns
// an error (an index over a path the schema does not have) or panics —
// on the shard that builds and on one handed its sibling's models, at
// one worker (jobs inline) and two (jobs on the pool) — surfaces on the
// writer and leaves the live generation, the log and the build memo
// exactly as they were; the next write goes through.
func TestFailedJobFailsTheWrite(t *testing.T) {
	defer sparse.Parallelism(sparse.Parallelism(0))
	ctx := context.Background()
	spec, seed := raceSpec(), int64(9)
	badPath := func(net *hin.Network) error {
		_, err := pathsim.NewRangeIndexCtx(ctx, net, hin.MetaPath{dblp.TypeAuthor, dblp.TypeVenue, dblp.TypeAuthor}, 0, 1)
		return err
	}
	boom := func(*hin.Network) error { panic("boom") }

	for _, workers := range []int{1, 2} {
		sparse.Parallelism(workers)
		ref := BuildModels(seed, spec)
		part := PartitionUniform(string(dblp.TypeAuthor), ref.Corpus.Net.Count(dblp.TypeAuthor), 2)
		c, err := NewLocalCluster(2, part, spec, nil, seed)
		if err != nil {
			t.Fatal(err)
		}
		builder, sibling := c.Shard(0).(*LocalShard), c.Shard(1).(*LocalShard)
		deltas := newTestDeltas(ref, "fail")
		attempt := func(label string, sh *LocalShard, job func(*hin.Network) error, wantPanic any) {
			t.Helper()
			before := stateOf(sh)
			var err error
			recovered := func() (r any) {
				defer func() { r = recover() }()
				_, _, err = sh.write(writeOp{deltas: deltas}, job)
				return nil
			}()
			if recovered != wantPanic {
				t.Fatalf("%d workers, %s: recovered %v, want %v", workers, label, recovered, wantPanic)
			}
			if wantPanic == nil && (err == nil || !strings.Contains(err.Error(), "relation")) {
				t.Fatalf("%d workers, %s: write returned %v, want the job's schema error", workers, label, err)
			}
			if !stateOf(sh).same(before) {
				t.Fatalf("%d workers, %s: the failed write left a trace: %+v, was %+v", workers, label, stateOf(sh), before)
			}
		}
		attempt("builder, error", builder, badPath, nil)
		attempt("builder, panic", builder, boom, "boom")
		if _, _, err := builder.Ingest(deltas, false); err != nil {
			t.Fatalf("%d workers: the write after the failed ones: %v", workers, err)
		}
		// The sibling now finds the builder's models in the memo and runs
		// its jobs inline.
		attempt("sibling, error", sibling, badPath, nil)
		attempt("sibling, panic", sibling, boom, "boom")
		if _, _, err := sibling.Ingest(deltas, false); err != nil {
			t.Fatalf("%d workers: the sibling's write after the failed ones: %v", workers, err)
		}
		if builder.Models() != sibling.Models() {
			t.Fatalf("%d workers: after the failures the shards no longer share one model set", workers)
		}
		want, _, err := IngestModels(ref, deltas, false, spec)
		if err != nil {
			t.Fatal(err)
		}
		sameRanks(t, fmt.Sprintf("%d workers: after the failures", workers), builder.Models(), want)
		if _, err := builder.TopK(ctx, builder.Epoch(), "", 0, 5); err != nil {
			t.Fatalf("%d workers: read after the failures: %v", workers, err)
		}
	}
}
