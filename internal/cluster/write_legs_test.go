// Where a write's time goes: the legs of chained bench-shaped writes,
// each timed on its own, beside the whole Coordinator.Ingest.

package cluster

import (
	"slices"
	"testing"
	"time"

	"hinet/internal/dblp"
	"hinet/internal/ingest"
	"hinet/internal/rank"
)

// BenchmarkWriteLegs runs b.N chained 3-paper writes (the batches bench
// sends) at 800 and 4 000 authors, twice over: once leg by leg on the
// calling goroutine — Clone + ingest.Apply, the A-P-A patch, PageRank,
// HITS and the index leg (the default path's ranges) — and once through
// a one-shard Coordinator.Ingest, which runs the same legs as its
// fork–join. Each is reported as the median milliseconds per write.
//
//	GOMAXPROCS=2 go test -run xxx -bench BenchmarkWriteLegs -benchtime 300x ./internal/cluster
func BenchmarkWriteLegs(b *testing.B) {
	for _, tc := range []struct {
		name   string
		corpus dblp.Config
	}{
		{"authors=800", dblp.Config{AuthorsPerArea: 200, Papers: 2000}},
		{"authors=4000", dblp.Config{AuthorsPerArea: 1000, Papers: 10_000}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			spec := ModelSpec{Corpus: tc.corpus, SkipPathSim: true}
			c, err := NewLocalCluster(1, Partition{Of: string(dblp.TypeAuthor), Bounds: []int{0, 0}}, spec, nil, 1)
			if err != nil {
				b.Fatal(err)
			}
			m := c.View().Models
			batches := benchBatches(b, m.Corpus, b.N)
			legs := []string{"clone+apply", "apa-patch", "pagerank", "hits", "index", "ingest"}
			times := make([][]time.Duration, len(legs))
			lap := func(leg int, start time.Time) time.Time {
				now := time.Now()
				times[leg] = append(times[leg], now.Sub(start))
				return now
			}
			b.ResetTimer()
			for _, batch := range batches {
				start := time.Now()
				net := m.Corpus.Net.Clone()
				if _, err := ingest.Apply(net, batch, ingest.Options{}); err != nil {
					b.Fatal(err)
				}
				start = lap(0, start)
				coauthor := net.CommutingMatrix(PathAPA)
				start = lap(1, start)
				next := &Models{Seed: m.Seed, Corpus: m.Corpus.WithNetwork(net), RankClus: m.RankClus, NetClus: m.NetClus}
				next.PageRank = rank.PageRank(coauthor, rank.Options{Start: PadScores(m.PageRank.Scores, coauthor.Rows())})
				start = lap(2, start)
				next.HITS = rank.HITS(coauthor, rank.Options{Start: PadScores(m.HITS.Hub, coauthor.Rows())})
				start = lap(3, start)
				if _, err := c.defaultRanges(net); err != nil {
					b.Fatal(err)
				}
				start = lap(4, start)
				if _, _, err := c.Ingest(batch, false); err != nil {
					b.Fatal(err)
				}
				lap(5, start)
				m = next
			}
			b.StopTimer()
			for i, leg := range legs {
				slices.Sort(times[i])
				b.ReportMetric(float64(times[i][len(times[i])/2])/1e6, leg+"-ms")
			}
		})
	}
}
