package flickr

import (
	"reflect"
	"testing"

	"hinet/internal/stats"
)

func TestGenerateShape(t *testing.T) {
	c := Generate(stats.NewRNG(1), Config{Photos: 300})
	n := c.Net
	if n.Count(TypePhoto) != 300 {
		t.Errorf("photos = %d", n.Count(TypePhoto))
	}
	if n.Count(TypeTag) != 4*60+40 {
		t.Errorf("tags = %d", n.Count(TypeTag))
	}
	if n.Count(TypeUser) != 150 || n.Count(TypeGroup) != 24 {
		t.Error("user/group counts wrong")
	}
	if len(c.PhotoCat) != 300 || len(c.TagCat) != 280 {
		t.Error("truth sizes wrong")
	}
}

func TestEveryPhotoHasOwnerAndTags(t *testing.T) {
	c := Generate(stats.NewRNG(2), Config{Photos: 200})
	pu := c.Net.Relation(TypePhoto, TypeUser)
	pt := c.Net.Relation(TypePhoto, TypeTag)
	for p := 0; p < 200; p++ {
		if pu.RowNNZ(p) != 1 {
			t.Fatalf("photo %d has %d owners", p, pu.RowNNZ(p))
		}
		if nt := pt.RowNNZ(p); nt < 3 || nt > 7 {
			t.Fatalf("photo %d has %d tags", p, nt)
		}
	}
}

func TestTagCategoryCoherence(t *testing.T) {
	c := Generate(stats.NewRNG(3), Config{Photos: 500})
	pt := c.Net.Relation(TypePhoto, TypeTag)
	match, total := 0, 0
	for p := 0; p < 500; p++ {
		pt.Row(p, func(tag int, w float64) {
			if c.TagCat[tag] < 0 {
				return // generic tags carry no category
			}
			total++
			if c.TagCat[tag] == c.PhotoCat[p] {
				match++
			}
		})
	}
	if frac := float64(match) / float64(total); frac < 0.95 {
		t.Errorf("category-tag coherence = %.3f", frac)
	}
}

func TestUsersJoinGroups(t *testing.T) {
	c := Generate(stats.NewRNG(4), Config{Photos: 100})
	ug := c.Net.Relation(TypeUser, TypeGroup)
	for u := 0; u < c.Config.Users; u++ {
		if ug.RowNNZ(u) < 2 {
			t.Fatalf("user %d joined %d groups", u, ug.RowNNZ(u))
		}
	}
}

func TestDeterministic(t *testing.T) {
	a := Generate(stats.NewRNG(5), Config{Photos: 150})
	b := Generate(stats.NewRNG(5), Config{Photos: 150})
	if !reflect.DeepEqual(a.Net.Relation(TypePhoto, TypeTag).Dense(), b.Net.Relation(TypePhoto, TypeTag).Dense()) {
		t.Error("same-seed corpora differ")
	}
	for i := range a.PhotoCat {
		if a.PhotoCat[i] != b.PhotoCat[i] {
			t.Fatal("photo categories differ")
		}
	}
}

func TestCategoriesAccessor(t *testing.T) {
	c := Generate(stats.NewRNG(6), Config{Categories: 3, Photos: 50})
	if c.Categories() != 3 {
		t.Errorf("Categories = %d", c.Categories())
	}
	for _, cat := range c.PhotoCat {
		if cat < 0 || cat >= 3 {
			t.Fatal("photo category out of range")
		}
	}
}
