package dblp

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"hinet/internal/stats"
)

func small() Config {
	return Config{
		VenuesPerArea:  3,
		AuthorsPerArea: 50,
		TermsPerArea:   40,
		SharedTerms:    20,
		Papers:         400,
		Years:          3,
	}
}

func TestGenerateShape(t *testing.T) {
	c := Generate(stats.NewRNG(1), small())
	n := c.Net
	if n.Count(TypeVenue) != 12 {
		t.Errorf("venues = %d, want 12", n.Count(TypeVenue))
	}
	if n.Count(TypeAuthor) != 200 {
		t.Errorf("authors = %d", n.Count(TypeAuthor))
	}
	if n.Count(TypeTerm) != 180 {
		t.Errorf("terms = %d", n.Count(TypeTerm))
	}
	if n.Count(TypePaper) != 400 {
		t.Errorf("papers = %d", n.Count(TypePaper))
	}
	if n.Count(TypeYear) != 3 {
		t.Errorf("years = %d", n.Count(TypeYear))
	}
	if len(c.PaperArea) != 400 || len(c.AuthorArea) != 200 || len(c.VenueArea) != 12 {
		t.Error("truth label sizes wrong")
	}
}

func TestEveryPaperFullyLinked(t *testing.T) {
	c := Generate(stats.NewRNG(2), small())
	pv := c.Net.Relation(TypePaper, TypeVenue)
	pa := c.Net.Relation(TypePaper, TypeAuthor)
	pt := c.Net.Relation(TypePaper, TypeTerm)
	py := c.Net.Relation(TypePaper, TypeYear)
	cfg := c.Config
	for p := 0; p < 400; p++ {
		if pv.RowNNZ(p) != 1 {
			t.Fatalf("paper %d has %d venues", p, pv.RowNNZ(p))
		}
		if a := pa.RowNNZ(p); a < cfg.MinAuthors || a > cfg.MaxAuthors {
			t.Fatalf("paper %d has %d authors", p, a)
		}
		if tt := pt.RowNNZ(p); tt < cfg.MinTerms || tt > cfg.MaxTerms {
			t.Fatalf("paper %d has %d terms", p, tt)
		}
		if py.RowNNZ(p) != 1 {
			t.Fatalf("paper %d has %d years", p, py.RowNNZ(p))
		}
	}
}

func TestAreaCoherence(t *testing.T) {
	c := Generate(stats.NewRNG(3), small())
	pv := c.Net.Relation(TypePaper, TypeVenue)
	match, total := 0, 0
	for p := 0; p < c.Net.Count(TypePaper); p++ {
		pv.Row(p, func(v int, w float64) {
			total++
			if c.VenueArea[v] == c.PaperArea[p] {
				match++
			}
		})
	}
	if frac := float64(match) / float64(total); frac < 0.90 {
		t.Errorf("venue-area coherence = %.2f, want ≥0.90", frac)
	}
}

func TestDeterministic(t *testing.T) {
	a := Generate(stats.NewRNG(7), small())
	b := Generate(stats.NewRNG(7), small())
	if !reflect.DeepEqual(a.Net.Relation(TypePaper, TypeAuthor).Dense(), b.Net.Relation(TypePaper, TypeAuthor).Dense()) {
		t.Error("same-seed corpora differ")
	}
	for i := range a.PaperArea {
		if a.PaperArea[i] != b.PaperArea[i] {
			t.Fatal("paper areas differ")
		}
	}
}

func TestStarView(t *testing.T) {
	c := Generate(stats.NewRNG(4), small())
	s := c.Star()
	if s.Center != TypePaper || len(s.Rel) != 3 {
		t.Fatal("star view wrong")
	}
	if s.Rel[0].Rows() != 400 {
		t.Error("star center count wrong")
	}
}

func TestVenueAuthorBipartite(t *testing.T) {
	c := Generate(stats.NewRNG(5), small())
	b := c.VenueAuthorBipartite()
	if b.W.Rows() != 12 || b.W.Cols() != 200 {
		t.Fatalf("bipartite dims %dx%d", b.W.Rows(), b.W.Cols())
	}
	// Total venue-author weight = total (paper, author) pairs since each
	// paper has exactly one venue.
	pa := c.Net.Relation(TypePaper, TypeAuthor)
	if b.W.Sum() != pa.Sum() {
		t.Errorf("bipartite mass %v != paper-author mass %v", b.W.Sum(), pa.Sum())
	}
}

func TestZipfProductivity(t *testing.T) {
	c := Generate(stats.NewRNG(6), Config{Papers: 2000})
	pa := c.Net.Relation(TypePaper, TypeAuthor)
	counts := make([]float64, c.Net.Count(TypeAuthor))
	for p := 0; p < pa.Rows(); p++ {
		pa.Row(p, func(a int, v float64) { counts[a] += v })
	}
	// The most productive author should dwarf the median.
	max, nonzero := 0.0, 0
	for _, v := range counts {
		if v > max {
			max = v
		}
		if v > 0 {
			nonzero++
		}
	}
	mean := 0.0
	for _, v := range counts {
		mean += v
	}
	mean /= float64(nonzero)
	if max < 4*mean {
		t.Errorf("no productivity skew: max=%v mean=%v", max, mean)
	}
}

func TestAmbiguousName(t *testing.T) {
	c := Generate(stats.NewRNG(8), small())
	// Pick two authors with at least one paper each.
	pa := c.Net.Relation(TypePaper, TypeAuthor)
	deg := make([]int, c.Net.Count(TypeAuthor))
	for p := 0; p < pa.Rows(); p++ {
		pa.Row(p, func(a int, v float64) { deg[a]++ })
	}
	var chosen []int
	for a, d := range deg {
		if d >= 2 {
			chosen = append(chosen, a)
		}
		if len(chosen) == 2 {
			break
		}
	}
	if len(chosen) < 2 {
		t.Skip("no productive authors in tiny corpus")
	}
	refs := c.AmbiguousName(chosen)
	if len(refs) < 4 {
		t.Fatalf("too few references: %d", len(refs))
	}
	seen := map[int]bool{}
	for _, r := range refs {
		seen[r.TrueAuthor] = true
		if r.TrueAuthor != chosen[0] && r.TrueAuthor != chosen[1] {
			t.Fatal("reference to unexpected author")
		}
	}
	if len(seen) != 2 {
		t.Error("references should cover both authors")
	}
}

// TestConfigCannotBeMet: a count range that is empty, or that a paper
// cannot fill with distinct authors or terms, panics up front naming the
// field instead of drawing forever; counts that fill the pool exactly
// still generate.
func TestConfigCannotBeMet(t *testing.T) {
	one := []string{"a"}
	for _, tc := range []struct {
		name  string
		cfg   Config
		field string // "" = generates
	}{
		{"authors one area", Config{Areas: one, AuthorsPerArea: 2, MinAuthors: 3, MaxAuthors: 4}, "MaxAuthors"},
		{"authors foreign only", Config{Areas: []string{"a", "b"}, AuthorsPerArea: 2, MaxAuthors: 3, CrossAreaAuthor: 1}, "MaxAuthors"},
		{"authors min above max", Config{MinAuthors: 5, MaxAuthors: 4}, "MinAuthors"},
		{"terms area and shared", Config{Areas: one, TermsPerArea: 2, SharedTerms: 1, MaxTerms: 4, MinTerms: 1}, "MaxTerms"},
		{"terms shared only", Config{SharedTerms: 3, SharedTermRate: 1, MaxTerms: 4, MinTerms: 1}, "MaxTerms"},
		{"terms min above max", Config{MinTerms: 9}, "MinTerms"},
		{"both pools filled exactly", Config{Areas: one, AuthorsPerArea: 2, MinAuthors: 2, MaxAuthors: 2,
			TermsPerArea: 2, SharedTerms: 1, MinTerms: 3, MaxTerms: 3, Papers: 50}, ""},
	} {
		got := make(chan string, 1)
		go func() {
			defer func() {
				msg, _ := recover().(string)
				got <- msg
			}()
			Generate(stats.NewRNG(1), tc.cfg)
		}()
		select {
		case msg := <-got:
			if tc.field == "" && msg != "" || tc.field != "" && !strings.HasPrefix(msg, "dblp: "+tc.field+" ") {
				t.Errorf("%s: panic %q, want one naming %q", tc.name, msg, tc.field)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: Generate still running after 5s", tc.name)
		}
	}
}

func TestCustomAreas(t *testing.T) {
	cfg := small()
	cfg.Areas = []string{"x", "y"}
	c := Generate(stats.NewRNG(9), cfg)
	if c.Areas() != 2 {
		t.Errorf("areas = %d", c.Areas())
	}
	for _, a := range c.PaperArea {
		if a < 0 || a > 1 {
			t.Fatal("area out of range")
		}
	}
	if c.Net.Count(TypeVenue) != 6 {
		t.Errorf("venues = %d", c.Net.Count(TypeVenue))
	}
}
