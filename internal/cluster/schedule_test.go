// The write's fork–join (Models.fit) against the order it replaced: the
// same parent and batch give the same bits however the jobs are
// scheduled, and a job that fails takes the whole write with it.

package cluster

import (
	"context"
	"fmt"
	"math"
	"runtime"
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
// IngestModels and through 1- and 3-shard clusters (readers alongside),
// at GOMAXPROCS 1, 2 and 4 with Parallelism pinned — with every kernel
// below the grain and with every kernel forced through the pool — yield
// the ranking vectors, the iteration counts and the default-range rows
// of the sequential order, bit for bit.
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
				check := func(label string, v *View) {
					t.Helper()
					sameRanks(t, label, v.Models, want)
					for i, sh := range c.shards {
						sameRange(t, fmt.Sprintf("%s, shard %d default range", label, i), v.def[i], wantRange(sh))
					}
				}
				check(label, c.View())
			}
		}
	}
}

// writeState is what a failed write must leave as it found it.
type writeState struct {
	view  *View
	epoch int64
}

func stateOf(c *Coordinator) writeState {
	return writeState{c.View(), c.Epoch()}
}

// TestFailedJobFailsTheWrite: a job beside the model builds that returns
// an error (an index over a path the schema does not have) or panics —
// at one worker (jobs inline) and two (jobs on the pool) — surfaces on
// the writer and leaves the View and the epoch exactly as they were;
// the next write goes through.
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
		deltas := newTestDeltas(ref, "fail")
		step := func(prev *Models, beside ...func(*hin.Network) error) (*Models, ingest.Summary, error) {
			return ingestModels(prev, deltas, false, c.spec, beside...)
		}
		attempt := func(label string, job func(*hin.Network) error, wantPanic any) {
			t.Helper()
			before := stateOf(c)
			var err error
			recovered := func() (r any) {
				defer func() { r = recover() }()
				_, _, err = c.write(step, job)
				return nil
			}()
			if recovered != wantPanic {
				t.Fatalf("%d workers, %s: recovered %v, want %v", workers, label, recovered, wantPanic)
			}
			if wantPanic == nil && (err == nil || !strings.Contains(err.Error(), "relation")) {
				t.Fatalf("%d workers, %s: write returned %v, want the job's schema error", workers, label, err)
			}
			if stateOf(c) != before {
				t.Fatalf("%d workers, %s: the failed write left a trace: %+v, was %+v", workers, label, stateOf(c), before)
			}
		}
		attempt("error", badPath, nil)
		attempt("panic", boom, "boom")
		if _, _, err := c.write(step); err != nil {
			t.Fatalf("%d workers: the write after the failed ones: %v", workers, err)
		}
		want, _, err := IngestModels(ref, deltas, false, spec)
		if err != nil {
			t.Fatal(err)
		}
		sameRanks(t, fmt.Sprintf("%d workers: after the failures", workers), c.View().Models, want)
		if _, err := c.View().TopK(ctx, "", 0, 5); err != nil {
			t.Fatalf("%d workers: read after the failures: %v", workers, err)
		}
	}
}
