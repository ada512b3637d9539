// Package dblp generates the synthetic four-area bibliographic network
// used as the stand-in for the real DBLP database in the tutorial's case
// studies (§6): papers as the star center linked to authors, venues,
// terms and publication years.
//
// The generator reproduces the statistical structure the RankClus and
// NetClus experiments rely on — a handful of research communities
// (database, data mining, information retrieval, artificial
// intelligence), Zipf-skewed author productivity and term frequency,
// venues almost fully committed to one area, and a controllable rate of
// cross-area publication — while providing exact ground-truth labels
// that real DBLP lacks.
package dblp

import (
	"slices"
	"strconv"
	"strings"

	"hinet/internal/hin"
	"hinet/internal/stats"
)

// Type names of the DBLP star schema.
const (
	TypePaper  = hin.Type("paper")
	TypeAuthor = hin.Type("author")
	TypeVenue  = hin.Type("venue")
	TypeTerm   = hin.Type("term")
	TypeYear   = hin.Type("year")
)

// DefaultAreas are the four research communities of the NetClus study.
var DefaultAreas = []string{"database", "datamining", "inforetrieval", "ai"}

// Config controls corpus size and separability.
type Config struct {
	Areas            []string // community names (default DefaultAreas)
	VenuesPerArea    int      // default 5
	AuthorsPerArea   int      // default 200
	TermsPerArea     int      // default 150
	SharedTerms      int      // area-neutral vocabulary, default 100
	Papers           int      // total papers, default 2000
	Years            int      // distinct publication years, default 5
	MinAuthors       int      // authors per paper lower bound, default 1
	MaxAuthors       int      // upper bound, default 4
	MinTerms         int      // terms per paper lower bound, default 4
	MaxTerms         int      // upper bound, default 8
	CrossAreaAuthor  float64  // P(author drawn from a foreign area), default 0.10
	CrossAreaVenue   float64  // P(paper published in a foreign-area venue), default 0.05
	SharedTermRate   float64  // P(term drawn from shared vocabulary), default 0.25
	ProductivitySkew float64  // Zipf exponent for author pick, default 1.1
	TermSkew         float64  // Zipf exponent for term pick, default 1.05
}

func (c Config) withDefaults() Config {
	if len(c.Areas) == 0 {
		c.Areas = DefaultAreas
	}
	def := func(v *int, d int) {
		if *v == 0 {
			*v = d
		}
	}
	def(&c.VenuesPerArea, 5)
	def(&c.AuthorsPerArea, 200)
	def(&c.TermsPerArea, 150)
	def(&c.SharedTerms, 100)
	def(&c.Papers, 2000)
	def(&c.Years, 5)
	def(&c.MinAuthors, 1)
	def(&c.MaxAuthors, 4)
	def(&c.MinTerms, 4)
	def(&c.MaxTerms, 8)
	deff := func(v *float64, d float64) {
		if *v == 0 {
			*v = d
		}
	}
	deff(&c.CrossAreaAuthor, 0.10)
	deff(&c.CrossAreaVenue, 0.05)
	deff(&c.SharedTermRate, 0.25)
	deff(&c.ProductivitySkew, 1.1)
	deff(&c.TermSkew, 1.05)
	return c
}

// Corpus is a generated bibliographic network with ground truth.
type Corpus struct {
	Net    *hin.Network
	Config Config

	// Ground-truth area per object (index = dense object id). Terms in
	// the shared vocabulary and nothing else carry area −1.
	PaperArea  []int
	AuthorArea []int
	VenueArea  []int
	TermArea   []int

	PaperYear []int // year index (0-based) per paper
}

// Areas returns the number of communities.
func (c *Corpus) Areas() int { return len(c.Config.Areas) }

// WithNetwork returns a shallow copy of the corpus bound to net —
// typically a delta-applied clone of c.Net (see hin.Network.Clone and
// internal/ingest). Ground-truth area slices are padded with −1
// ("no known area", the label the generator already uses for shared
// terms) up to the new object counts, so evaluations against ground
// truth stay well-formed after objects arrive that the generator never
// labeled.
func (c *Corpus) WithNetwork(net *hin.Network) *Corpus {
	c2 := *c
	c2.Net = net
	c2.PaperArea = padAreas(c.PaperArea, net.Count(TypePaper))
	c2.AuthorArea = padAreas(c.AuthorArea, net.Count(TypeAuthor))
	c2.VenueArea = padAreas(c.VenueArea, net.Count(TypeVenue))
	c2.TermArea = padAreas(c.TermArea, net.Count(TypeTerm))
	return &c2
}

// padAreas extends labels to length n with −1; unchanged lengths pass
// the slice through untouched.
func padAreas(labels []int, n int) []int {
	if len(labels) >= n {
		return labels
	}
	out := make([]int, n)
	copy(out, labels)
	for i := len(labels); i < n; i++ {
		out[i] = -1
	}
	return out
}

// check panics, naming the field, on a config Generate cannot honour: an
// empty author or term count range, or a count above the distinct authors
// or terms a paper can draw, where drawing would never stop.
func (c Config) check() {
	// reach counts the distinct values of a draw that takes the other pool
	// with probability p: its own pool unless p ≥ 1, the other if p > 0.
	reach := func(own, other int, p float64) int {
		n := 0
		if p < 1 {
			n += own
		}
		if p > 0 {
			n += other
		}
		return n
	}
	k := len(c.Areas)
	crossAuthor, sharedRate := c.CrossAreaAuthor, c.SharedTermRate
	if k == 1 {
		crossAuthor = 0 // one area: no foreign draw is taken
	}
	if c.SharedTerms <= 0 {
		sharedRate = 0
	}
	for _, r := range []struct {
		what             string
		lo, hi, distinct int
	}{
		{"Authors", c.MinAuthors, c.MaxAuthors, reach(c.AuthorsPerArea, (k-1)*c.AuthorsPerArea, crossAuthor)},
		{"Terms", c.MinTerms, c.MaxTerms, reach(c.TermsPerArea, max(0, c.SharedTerms), sharedRate)},
	} {
		if r.lo > r.hi {
			panic("dblp: Min" + r.what + " " + strconv.Itoa(r.lo) + " > Max" + r.what + " " + strconv.Itoa(r.hi))
		}
		if r.hi > r.distinct {
			panic("dblp: Max" + r.what + " " + strconv.Itoa(r.hi) + " > " + strconv.Itoa(r.distinct) +
				", the distinct " + strings.ToLower(r.what) + " a paper can draw")
		}
	}
}

// Generate builds a corpus. Identical (seed, cfg) pairs produce
// identical corpora. It panics on a config it cannot honour (see check).
//
// The network is assembled in bulk: each type's objects are added in one
// batch, and each relation's links, drawn paper by paper, are applied in
// one batch at the end — the same ids, names and per-relation link order
// as adding them one at a time, without a per-link append and cache
// reconciliation on a network nothing has read yet.
func Generate(rng *stats.RNG, cfg Config) *Corpus {
	cfg = cfg.withDefaults()
	cfg.check()
	k := len(cfg.Areas)
	n := hin.NewNetwork()
	c := &Corpus{Net: n, Config: cfg}

	// Objects, registered venue, author, term, year, paper. Venue, author
	// and term ids are grouped by area so base offsets are area*count.
	perArea := func(t hin.Type, per int, kind string) []int {
		per = max(0, per)
		names, areas := make([]string, k*per), make([]int, k*per)
		for i := range names {
			names[i] = cfg.Areas[i/per] + kind + strconv.Itoa(i%per)
			areas[i] = i / per
		}
		n.AddObjects(t, names)
		return areas
	}
	c.VenueArea = perArea(TypeVenue, cfg.VenuesPerArea, "-venue-")
	c.AuthorArea = perArea(TypeAuthor, cfg.AuthorsPerArea, "-author-")
	c.TermArea = perArea(TypeTerm, cfg.TermsPerArea, "-term-")
	names := make([]string, max(0, cfg.SharedTerms))
	for t := range names {
		names[t] = "shared-term-" + strconv.Itoa(t)
		c.TermArea = append(c.TermArea, -1)
	}
	n.AddObjects(TypeTerm, names)
	names = make([]string, max(0, cfg.Years))
	for y := range names {
		names[y] = strconv.Itoa(2000 + y)
	}
	n.AddObjects(TypeYear, names)
	papers := max(0, cfg.Papers)
	names = make([]string, papers)
	for p := range names {
		names[p] = "paper-" + strconv.Itoa(p)
	}
	n.AddObjects(TypePaper, names)

	authorZipf := stats.NewZipf(rng, cfg.AuthorsPerArea, cfg.ProductivitySkew)
	termZipf := stats.NewZipf(rng, cfg.TermsPerArea, cfg.TermSkew)
	sharedBase := k * cfg.TermsPerArea

	// Each relation's links in paper order, as the papers draw them.
	pv := make([]hin.EdgeDelta, 0, papers)
	pa := make([]hin.EdgeDelta, 0, papers*max(0, cfg.MaxAuthors))
	pt := make([]hin.EdgeDelta, 0, papers*max(0, cfg.MaxTerms))
	py := make([]hin.EdgeDelta, 0, papers)
	c.PaperArea, c.PaperYear = make([]int, 0, papers), make([]int, 0, papers)
	var drawn []int // the paper's distinct authors, then its distinct terms
	for p := 0; p < papers; p++ {
		area := rng.Intn(k)
		c.PaperArea = append(c.PaperArea, area)

		// Venue: home area unless a cross-area publication.
		vArea := area
		if k > 1 && rng.Float64() < cfg.CrossAreaVenue {
			vArea = otherArea(rng, k, area)
		}
		venue := vArea*cfg.VenuesPerArea + rng.Intn(cfg.VenuesPerArea)
		pv = append(pv, hin.EdgeDelta{Src: p, Dst: venue, W: 1})

		// Authors: Zipf-productive within area, occasional outsider.
		nAuthors := cfg.MinAuthors + rng.Intn(cfg.MaxAuthors-cfg.MinAuthors+1)
		drawn = drawn[:0]
		for len(drawn) < nAuthors {
			aArea := area
			if k > 1 && rng.Float64() < cfg.CrossAreaAuthor {
				aArea = otherArea(rng, k, area)
			}
			author := aArea*cfg.AuthorsPerArea + authorZipf.Draw()
			if slices.Contains(drawn, author) {
				continue
			}
			drawn = append(drawn, author)
			pa = append(pa, hin.EdgeDelta{Src: p, Dst: author, W: 1})
		}

		// Terms: area vocabulary mixed with shared words.
		nTerms := cfg.MinTerms + rng.Intn(cfg.MaxTerms-cfg.MinTerms+1)
		drawn = drawn[:0]
		for len(drawn) < nTerms {
			var term int
			if cfg.SharedTerms > 0 && rng.Float64() < cfg.SharedTermRate {
				term = sharedBase + rng.Intn(cfg.SharedTerms)
			} else {
				term = area*cfg.TermsPerArea + termZipf.Draw()
			}
			if slices.Contains(drawn, term) {
				continue
			}
			drawn = append(drawn, term)
			pt = append(pt, hin.EdgeDelta{Src: p, Dst: term, W: 1})
		}

		// Year.
		year := rng.Intn(cfg.Years)
		c.PaperYear = append(c.PaperYear, year)
		py = append(py, hin.EdgeDelta{Src: p, Dst: year, W: 1})
	}
	for _, r := range []struct {
		dst   hin.Type
		links []hin.EdgeDelta
	}{{TypeVenue, pv}, {TypeAuthor, pa}, {TypeTerm, pt}, {TypeYear, py}} {
		if err := n.ApplyEdgeDeltas(TypePaper, r.dst, r.links); err != nil {
			panic("dblp: " + err.Error()) // every endpoint was drawn in range
		}
	}
	return c
}

func otherArea(rng *stats.RNG, k, area int) int {
	a := rng.Intn(k - 1)
	if a >= area {
		a++
	}
	return a
}

// Star returns the NetClus star-schema view (paper center; author,
// venue, term attributes — year excluded, matching the NetClus setup).
// Every corpus links papers to all three, so a missing relation panics.
func (c *Corpus) Star() *hin.Star {
	s, err := c.Net.Star(TypePaper, TypeAuthor, TypeVenue, TypeTerm)
	if err != nil {
		panic("dblp: " + err.Error())
	}
	return s
}

// VenueAuthorBipartite returns the RankClus view: the venue×author
// weight matrix counting papers, as extracted by the conference–author
// bi-typed network of the EDBT'09 study. The product runs through the
// network's meta-path engine, which canonicalizes V-P-A to A-P-V — the
// half-path of the serving layer's APVPA index — so a snapshot build
// computes that product exactly once.
func (c *Corpus) VenueAuthorBipartite() *hin.Bipartite {
	m := c.Net.CommutingMatrix(hin.MetaPath{TypeVenue, TypePaper, TypeAuthor})
	return &hin.Bipartite{X: TypeVenue, Y: TypeAuthor, W: m}
}

// AmbiguousReference is one paper occurrence of an ambiguous author
// name: the paper id plus the hidden true author. DISTINCT must split
// references of one name back into the underlying authors.
type AmbiguousReference struct {
	Paper      int
	TrueAuthor int
}

// AmbiguousName merges the identities of the given authors under one
// shared name and returns the reference list (every paper any of them
// wrote). This overlays the object-distinction workload of the DISTINCT
// experiments onto the corpus.
func (c *Corpus) AmbiguousName(authors []int) []AmbiguousReference {
	pa := c.Net.Relation(TypePaper, TypeAuthor)
	var refs []AmbiguousReference
	for p := 0; p < pa.Rows(); p++ {
		pa.Row(p, func(a int, v float64) {
			for _, target := range authors {
				if a == target {
					refs = append(refs, AmbiguousReference{Paper: p, TrueAuthor: a})
				}
			}
		})
	}
	return refs
}
