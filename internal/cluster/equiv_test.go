// The randomized sharding equivalence suite: for seeds × shard counts
// × partition shapes, every coordinator answer must be BITWISE equal
// to a single-process index's on the same generation — same ids, same
// order (ties included), float64 scores identical to the last bit.
// This is the acceptance bar the whole tier stands on.

package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"hinet/internal/dblp"
	"hinet/internal/ingest"
	"hinet/internal/pathsim"
)

// testSpec keeps model builds fast; two areas, few hundred papers.
func testSpec() ModelSpec {
	return ModelSpec{Corpus: dblp.Config{
		VenuesPerArea:  3,
		AuthorsPerArea: 30,
		TermsPerArea:   20,
		SharedTerms:    8,
		Papers:         220,
	}}
}

func pairsEqual(t *testing.T, want, got []pathsim.Pair, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d pairs, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i].ID != got[i].ID || want[i].Score != got[i].Score {
			t.Fatalf("%s: pair %d = {%d, %v}, want {%d, %v} (bitwise)",
				label, i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
		}
	}
}

// skewedPartition cuts the id space at random points — including empty
// and tiny ranges — the adversarial shape for merge correctness.
func skewedPartition(rng *rand.Rand, of string, dim, shards int) Partition {
	bounds := make([]int, shards+1)
	bounds[shards] = dim
	for i := 1; i < shards; i++ {
		bounds[i] = rng.Intn(dim + 1)
	}
	for i := 1; i < shards; i++ {
		for j := i; j > 1 && bounds[j] < bounds[j-1]; j-- {
			bounds[j], bounds[j-1] = bounds[j-1], bounds[j]
		}
	}
	return Partition{Of: of, Bounds: bounds}
}

// newTestDeltas appends papers (and one brand-new author) to the
// corpus, exercising the last shard's absorption of appended ids.
func newTestDeltas(m *Models, tag string) []ingest.Delta {
	net := m.Corpus.Net
	newAuthor := fmt.Sprintf("new-author-%s", tag)
	ds := []ingest.Delta{{Op: ingest.OpAddNode, Type: string(dblp.TypeAuthor), Name: newAuthor}}
	for p := 0; p < 3; p++ {
		name := fmt.Sprintf("new-paper-%s-%d", tag, p)
		ds = append(ds,
			ingest.Delta{Op: ingest.OpAddNode, Type: string(dblp.TypePaper), Name: name},
			ingest.Delta{Op: ingest.OpAddEdge, SrcType: string(dblp.TypePaper), Src: name,
				DstType: string(dblp.TypeAuthor), Dst: newAuthor},
			ingest.Delta{Op: ingest.OpAddEdge, SrcType: string(dblp.TypePaper), Src: name,
				DstType: string(dblp.TypeAuthor), Dst: net.Name(dblp.TypeAuthor, p%net.Count(dblp.TypeAuthor))},
			ingest.Delta{Op: ingest.OpAddEdge, SrcType: string(dblp.TypePaper), Src: name,
				DstType: string(dblp.TypeVenue), Dst: net.Name(dblp.TypeVenue, p%net.Count(dblp.TypeVenue))},
		)
	}
	return ds
}

// checkEquivalence compares every read surface of the coordinator
// against the single-process reference models at the same epoch.
func checkEquivalence(t *testing.T, rng *rand.Rand, c *Coordinator, ref *Models, label string) {
	t.Helper()
	ctx := context.Background()
	full := ref.PathSim
	dim := full.Dim()
	v := c.View()
	epoch := v.Epoch

	for _, k := range []int{1, 10, dim} {
		for range 6 {
			x := rng.Intn(dim)
			got, ep, err := c.TopK(ctx, "", x, k)
			if err != nil {
				t.Fatalf("%s: TopK: %v", label, err)
			}
			if ep != epoch {
				t.Fatalf("%s: TopK answered at epoch %d, want %d", label, ep, epoch)
			}
			pairsEqual(t, full.TopK(x, k), got, fmt.Sprintf("%s TopK(x=%d,k=%d)", label, x, k))
		}
	}

	// A non-default path resolves per shard and merges identically.
	apa := PathAPA.String()
	fullAPA, err := pathsim.NewIndexE(ref.Corpus.Net, PathAPA)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 4; trial++ {
		x := rng.Intn(fullAPA.Dim())
		got, _, err := c.TopK(ctx, apa, x, 10)
		if err != nil {
			t.Fatalf("%s: TopK(path=APA): %v", label, err)
		}
		pairsEqual(t, fullAPA.TopK(x, 10), got, label+" TopK path=APA")
	}

	// The generation the View holds is the reference build exactly:
	// ranking vectors and their metadata bit for bit, the same cluster
	// assignment (the models are deterministic).
	m := v.Models
	sameRanks(t, label, m, ref)
	if m.RankClus.K != ref.RankClus.K || m.NetClus.K != ref.NetClus.K {
		t.Fatalf("%s: cluster K mismatch", label)
	}
	for i, a := range ref.RankClus.Assign {
		if m.RankClus.Assign[i] != a {
			t.Fatalf("%s: RankClus assignment diverged at %d", label, i)
		}
	}
}

func TestShardedEquivalence(t *testing.T) {
	spec := testSpec()
	of := string(dblp.TypeAuthor)
	for _, seed := range []int64{1, 5} {
		// Single-process reference: the same recipe every write uses.
		ref := BuildModels(seed, spec)
		dim := ref.PathSim.Dim()
		rng := rand.New(rand.NewSource(seed * 997))
		for _, shards := range []int{1, 2, 3, 8} {
			parts := map[string]Partition{
				"nnz":     PartitionByNNZ(of, dim, shards, ref.PathSim.M.RowNNZ),
				"uniform": PartitionUniform(of, dim, shards),
				"skewed":  skewedPartition(rng, of, dim, shards),
			}
			for pname, part := range parts {
				label := fmt.Sprintf("seed=%d shards=%d part=%s", seed, shards, pname)
				c, err := NewLocalCluster(shards, part, spec, nil, seed)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if c.View().Epoch != 1 {
					t.Fatalf("%s: boot epoch %d, want 1", label, c.View().Epoch)
				}
				checkEquivalence(t, rng, c, ref, label)

				// Ingest the same deltas into both sides; equivalence must
				// hold on the new generation (including ids the last shard
				// absorbed past the partition bound), and a View taken
				// before the write must keep answering from its own.
				prev := c.View()
				deltas := newTestDeltas(ref, fmt.Sprintf("%d-%d-%s", seed, shards, pname))
				ref2, _, err := IngestModels(ref, deltas, false, spec)
				if err != nil {
					t.Fatalf("%s: reference ingest: %v", label, err)
				}
				v, _, err := c.Ingest(deltas, false)
				if err != nil {
					t.Fatalf("%s: cluster ingest: %v", label, err)
				}
				if v.Epoch != 2 || c.View().Epoch != 2 {
					t.Fatalf("%s: post-ingest epoch %d/%d, want 2", label, v.Epoch, c.View().Epoch)
				}
				checkEquivalence(t, rng, c, ref2, label+" epoch2")
				// The View taken before the write still answers at epoch 1.
				x := rng.Intn(dim)
				def, _, err := prev.Resolve(context.Background(), "", false)
				if err != nil || prev.Epoch != 1 {
					t.Fatalf("%s: epoch-%d View: %v", label, prev.Epoch, err)
				}
				old := def.TopK(x, 10)
				pairsEqual(t, ref.PathSim.TopK(x, 10), old, label+" View of epoch 1")
			}
		}
	}
}
