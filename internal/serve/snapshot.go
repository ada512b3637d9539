// What a generation is built from: the model configuration, and the
// meta-path /v1/rank names as its graph. The generation itself is the
// cluster's View (internal/cluster) — the corpus (names, ground truth),
// ranking vectors, cluster models and the similarity index. A request loads the published View once and reads
// it throughout, so it reads one generation whatever writes land
// meanwhile; a write builds a whole new View off to the side and the
// coordinator publishes it, so a write never blocks or corrupts
// in-flight queries. Each View carries the cluster's monotonically
// increasing epoch; the result cache keys on it, so a publish
// implicitly invalidates every cached answer.

package serve

import (
	"hinet/internal/cluster"
	"hinet/internal/dblp"
)

// pathAPA is co-authorship, the square graph PageRank and HITS run on
// (/v1/rank's "graph"). It aliases internal/cluster's, where the model
// recipe lives.
var pathAPA = cluster.PathAPA

// ModelConfig controls what a generation materializes.
type ModelConfig struct {
	Corpus   dblp.Config // corpus size/separability (zero value = library defaults)
	K        int         // cluster count for RankClus/NetClus (0 = number of corpus areas)
	Restarts int         // random restarts per clustering model (0 = 1)
}

// spec translates the model configuration into the cluster tier's
// build-recipe spec.
func (cfg ModelConfig) spec() cluster.ModelSpec {
	return cluster.ModelSpec{Corpus: cfg.Corpus, K: cfg.K, Restarts: cfg.Restarts}
}
