// Package hin implements the heterogeneous information network (HIN)
// abstraction at the center of the paper: a multi-typed graph whose
// objects are partitioned into types (author, paper, venue, term, ...)
// and whose links connect objects of specific type pairs.
//
// The tutorial's thesis is that a database *is* such a network; the
// RankClus (bi-typed), NetClus (star-schema) and PathSim (meta-path)
// algorithms all consume views exported from this package:
//
//   - Relation(src, dst): the weighted src×dst adjacency matrix,
//   - Bipartite(x, y): the bi-typed sub-network RankClus works on,
//   - Projection(path): the homogeneous graph induced by a meta-path
//     (e.g. co-authorship = A–P–A), and
//   - Star(center): the star-schema view NetClus works on.
package hin

import (
	"cmp"
	"context"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"hinet/internal/graph"
	"hinet/internal/metapath"
	"hinet/internal/sparse"
)

// Type names an object type in the network schema (e.g. "author").
type Type string

// ObjectRef identifies one object: its type plus the dense index of the
// object within that type.
type ObjectRef struct {
	Type Type
	ID   int
}

type link struct {
	src, dst int
	w        float64
}

// relationKey names a relation by its two types in canonical order
// (src ≤ dst), as SchemaEdges lists it.
type relationKey struct {
	src, dst Type
}

// orient returns the canonical key of the a-b relation and the index, in
// relation.links and relation.m, of the a×b orientation: 0 when a ≤ b,
// else 1.
func orient(a, b Type) (relationKey, int) {
	if b < a {
		return relationKey{b, a}, 1
	}
	return relationKey{a, b}, 0
}

// relation is one relation's stored form. Until it is first read it is
// its links, in the order logged: links[0] those logged key.src→key.dst,
// links[1] those logged the other way round. A read folds them into the
// matrix of the orientation it asks for, m[0] (key.src × key.dst) or
// m[1] (its transpose), and from then on the matrices are the relation:
// a merge (ApplyEdgeDeltas) goes straight into every matrix present, and
// an AddLink waits in links for the next read to merge it in. The other
// orientation is built, when first read, as a transpose. A self relation
// (key.src == key.dst) uses links[0] and m[0] only.
type relation struct {
	links [2]list[link]
	m     [2]*sparse.Matrix
}

// pending reports whether links are waiting for the next read.
func (r *relation) pending() bool { return len(r.links[0].s)+len(r.links[1].s) > 0 }

// coords returns the pending links as entries of orientation o: those
// logged that way, then those logged the other way, swapped.
func (r *relation) coords(o int) []sparse.Coord {
	fwd, rev := r.links[o].s, r.links[1-o].s
	entries := make([]sparse.Coord, 0, len(fwd)+len(rev))
	for _, l := range fwd {
		entries = append(entries, sparse.Coord{Row: l.src, Col: l.dst, Val: l.w})
	}
	for _, l := range rev {
		entries = append(entries, sparse.Coord{Row: l.dst, Col: l.src, Val: l.w})
	}
	return entries
}

// list is an append-only sequence whose copies share one backing array.
// end is the array's written length: the copy whose own length equals it
// — one copy at most, settled by a compare-and-swap — appends in place,
// past everything any other copy can see; every other copy appends by
// copying out to an array (and an end) of its own. No copy reads past its
// own length, so an in-place append never races a reader of an older copy.
type list[T any] struct {
	s   []T
	end *atomic.Int64
}

func (l list[T]) append(xs ...T) list[T] {
	n := len(l.s)
	if l.end != nil && n+len(xs) <= cap(l.s) && l.end.CompareAndSwap(int64(n), int64(n+len(xs))) {
		return list[T]{append(l.s, xs...), l.end}
	}
	// Full, or another copy has written past n (a sibling clone, a
	// discarded failed batch): grow by append's own policy, elsewhere.
	l = list[T]{append(l.s[:n:n], xs...), new(atomic.Int64)}
	l.end.Store(int64(len(l.s)))
	return l
}

// nameIndex maps a type's names to ids in two layers: a base shared by
// pointer along a clone chain, and the names added since the base was
// first shared. Until then its one owner inserts straight into it.
type nameIndex struct {
	base  *nameBase
	added map[string]int
}

type nameBase struct {
	ids    map[string]int
	frozen atomic.Bool // set by the first Clone; nothing is inserted after
}

// foldShare: Clone folds added into a fresh base once it passes 1/foldShare
// of the base — a clone copies at most that share of the names, and folding
// costs about foldShare insertions per name added, amortized.
const foldShare = 16

func (x *nameIndex) lookup(name string) (int, bool) {
	if id, ok := x.added[name]; ok {
		return id, true
	}
	id, ok := x.base.ids[name]
	return id, ok
}

func (x *nameIndex) insert(name string, id int) {
	if !x.base.frozen.Load() {
		x.base.ids[name] = id
		return
	}
	if x.added == nil {
		x.added = make(map[string]int)
	}
	x.added[name] = id
}

// insertAll inserts ids, whose names are all new, where insert would put
// each one. An empty base with one owner becomes ids itself, as does an
// empty overlay, so a type named in one batch pays no second map.
func (x *nameIndex) insertAll(ids map[string]int) {
	layer := &x.added
	if !x.base.frozen.Load() {
		layer = &x.base.ids
	}
	if len(*layer) == 0 {
		*layer = ids
		return
	}
	maps.Copy(*layer, ids)
}

// clone freezes the base and shares it; only the added names are copied.
func (x *nameIndex) clone() *nameIndex {
	x.base.frozen.Store(true)
	if len(x.added)*foldShare <= len(x.base.ids) {
		return &nameIndex{base: x.base, added: maps.Clone(x.added)}
	}
	ids := make(map[string]int, len(x.base.ids)+len(x.added))
	maps.Copy(ids, x.base.ids)
	maps.Copy(ids, x.added)
	return &nameIndex{base: &nameBase{ids: ids}}
}

// Network is a heterogeneous information network. Objects of each type
// are dense integers 0..Count(t)-1 with optional names; links are typed
// and weighted, and a relation is stored once: as its links until it is
// first read, as its matrices after (see relation).
//
// Concurrency: any number of goroutines may query a network
// concurrently (Relation, CommutingMatrix, lookups, ...). Mutations
// (AddObject, AddLink, ApplyEdgeDeltas, ...) are single-writer and
// must not run concurrently with queries — the serving layer gets
// both by mutating a copy-on-write Clone and swapping it in atomically.
// A clone shares the name lists, pending links (list), matrices and the
// name index's base (nameIndex) with its parent; what it adds lands past
// the parent's lengths, in its own overlay or in new matrices, where no
// query of the parent looks.
type Network struct {
	types []Type
	names map[Type]list[string]
	index map[Type]*nameIndex

	// version counts structural mutations; the meta-path engine's
	// materialization cache moves epochs with it, so a network edit
	// after a CommutingMatrix call can never serve stale products.
	// Mutations invalidate selectively: only engine entries that read
	// the touched relation (or a relation of a grown type) are
	// withdrawn, and a withdrawn engine entry stays as the patch base of
	// its own refresh.
	version int64
	engMu   sync.Mutex
	eng     *metapath.Engine

	// rels holds one record per relation that has a link, keyed
	// canonically; a clone has records of its own. A read folds a
	// record's pending links into its matrices, under relMu, and after
	// AddObject a matrix is grown, not dropped, where it is next read.
	// building maps each relation being folded to a channel closed once
	// the fold is stored, so concurrent queries of one relation fold it
	// once; relBuilds counts the folds.
	relMu     sync.Mutex
	rels      map[relationKey]*relation
	building  map[relationKey]chan struct{}
	relBuilds int
}

// NewNetwork returns an empty network.
func NewNetwork() *Network {
	return &Network{
		names: make(map[Type]list[string]),
		index: make(map[Type]*nameIndex),
		rels:  make(map[relationKey]*relation),
	}
}

// AddType registers a type; registering an existing type is a no-op.
func (n *Network) AddType(t Type) {
	if _, ok := n.names[t]; ok {
		return
	}
	n.version++
	n.types = append(n.types, t)
	n.names[t] = list[string]{}
	n.index[t] = &nameIndex{base: &nameBase{ids: make(map[string]int)}}
	// A new type has no links, so no matrix or product can be
	// stale — move the engine's epoch without dropping anything.
	n.engInvalidate(func([]string) bool { return false })
}

// Types returns the registered types in insertion order.
func (n *Network) Types() []Type { return append([]Type(nil), n.types...) }

// AddObject inserts an object of type t with the given name and returns
// its dense id. Duplicate names within a type return the existing id.
func (n *Network) AddObject(t Type, name string) int {
	n.AddType(t)
	if id, ok := n.index[t].lookup(name); ok {
		return id
	}
	id := n.Count(t)
	n.version++
	n.names[t] = n.names[t].append(name)
	n.index[t].insert(name, id)
	n.typeGrew(t)
	return id
}

// AddObjects inserts one object of type t per name, with contiguous ids
// in the order given, and returns the id of the first — the same network
// as one AddObject per name, built with one append, one version bump and
// one engine reconciliation. The names must be distinct and new to t; it
// panics, before changing anything, if one is not.
func (n *Network) AddObjects(t Type, names []string) (first int) {
	n.AddType(t)
	first = n.Count(t)
	if len(names) == 0 {
		return first
	}
	x := n.index[t]
	ids := make(map[string]int, len(names))
	for i, name := range names {
		ids[name] = first + i
		if len(ids) != i+1 {
			panic(fmt.Sprintf("hin: AddObjects: %s %q named twice", t, name))
		}
		if first > 0 {
			if _, ok := x.lookup(name); ok {
				panic(fmt.Sprintf("hin: AddObjects: %s %q exists", t, name))
			}
		}
	}
	n.version++
	n.names[t] = n.names[t].append(names...)
	x.insertAll(ids)
	n.typeGrew(t)
	return first
}

// typeGrew reconciles the engine after Count(t) increased: cached
// meta-path products whose path mentions t are invalidated, since
// their dimensions are stale (the engine keeps them as patch bases: a
// row past the old dimension is a dirty row), and its other entries move
// to the new epoch. It does not grow the relation matrices touching t:
// the next merge into one does (ApplyEdgeDeltas), or Relation where one
// is read first, so a batch adding many objects grows each matrix once.
func (n *Network) typeGrew(t Type) {
	n.engInvalidate(func(path []string) bool { return slices.Contains(path, string(t)) })
}

// pathHasPair reports whether the path traverses the a-b relation in
// either direction.
func pathHasPair(path []string, a, b string) bool {
	for i := 0; i+1 < len(path); i++ {
		if (path[i] == a && path[i+1] == b) || (path[i] == b && path[i+1] == a) {
			return true
		}
	}
	return false
}

// engInvalidate moves the engine's cache to the network's current
// version, invalidating entries that match drop. A nil engine has nothing
// cached, and a later PathEngine() call syncs it to the version.
func (n *Network) engInvalidate(drop func(path []string) bool) {
	n.engMu.Lock()
	e := n.eng
	n.engMu.Unlock()
	if e != nil {
		e.Invalidate(n.version, drop)
	}
}

// Count returns the number of objects of type t.
func (n *Network) Count(t Type) int { return len(n.names[t].s) }

// Name returns the name of object (t, id).
func (n *Network) Name(t Type, id int) string { return n.names[t].s[id] }

// Names returns the names of type t's objects, indexed by id — one type
// lookup for a loop that names many objects. The slice is the network's
// own: read it, do not write through it. It is clipped to Count(t), so
// an append copies it out and names a later clone writes behind it, into
// the same array, stay out of reach.
func (n *Network) Names(t Type) []string {
	ns := n.names[t].s
	return ns[:len(ns):len(ns)]
}

// Lookup returns the id of the named object of type t, or -1.
func (n *Network) Lookup(t Type, name string) int {
	if x, ok := n.index[t]; ok {
		if id, ok := x.lookup(name); ok {
			return id
		}
	}
	return -1
}

// AddLink records a weighted link between (src type, srcID) and
// (dst type, dstID). Links are conceptually undirected between the two
// types; Relation exposes them in either orientation. A link to a
// relation already read waits, with any others logged since, for the
// relation's next read, which merges them into its matrices.
func (n *Network) AddLink(src Type, srcID int, dst Type, dstID int, w float64) {
	if srcID < 0 || srcID >= n.Count(src) || dstID < 0 || dstID >= n.Count(dst) {
		panic(fmt.Sprintf("hin: link (%s,%d)-(%s,%d) out of range", src, srcID, dst, dstID))
	}
	n.version++
	key, o := orient(src, dst)
	n.relMu.Lock()
	r := n.record(key)
	r.links[o] = r.links[o].append(link{srcID, dstID, w})
	n.relMu.Unlock()
	n.engInvalidate(func(path []string) bool { return pathHasPair(path, string(src), string(dst)) })
}

// record returns key's relation, creating it empty. relMu is held.
func (n *Network) record(key relationKey) *relation {
	r := n.rels[key]
	if r == nil {
		r = new(relation)
		n.rels[key] = r
	}
	return r
}

// EdgeDelta is one signed weight adjustment between two objects of a
// relation: positive adds link weight, negative removes it. A pair
// whose total weight reaches exactly zero drops out of the relation
// matrix entirely, matching a from-scratch build from the same links.
type EdgeDelta struct {
	Src, Dst int
	W        float64
}

// ApplyEdgeDeltas applies a batch of edge deltas to the (src, dst)
// relation. A relation that has been read merges the batch into each of
// its matrices via the sparse copy-on-write delta kernel — O(batch +
// touched rows) instead of an O(links) rebuild — and keeps no other
// record of it; one not read yet appends the batch to its pending links,
// for its first read to build from. Cached meta-path products that
// traverse the relation are invalidated — the engine refreshes each,
// when next asked, by recomputing only the rows the batch reached — and
// all others survive. Endpoints out of range return an error before
// anything is modified.
func (n *Network) ApplyEdgeDeltas(src, dst Type, deltas []EdgeDelta) error {
	if len(deltas) == 0 {
		return nil
	}
	ns, nd := n.Count(src), n.Count(dst)
	for _, d := range deltas {
		if d.Src < 0 || d.Src >= ns || d.Dst < 0 || d.Dst >= nd {
			return fmt.Errorf("hin: delta (%s,%d)-(%s,%d) out of range", src, d.Src, dst, d.Dst)
		}
	}
	n.version++
	links := make([]link, len(deltas))
	for i, d := range deltas {
		links[i] = link{d.Src, d.Dst, d.W}
	}
	key, o := orient(src, dst)
	n.relMu.Lock()
	r := n.record(key)
	if r.m == [2]*sparse.Matrix{} {
		r.links[o] = r.links[o].append(links...)
	} else {
		// The batch as a relation of its own, merged into the matrices at
		// the types' current counts (the merge grows a matrix stored
		// before objects were added).
		var batch relation
		batch.links[o].s = links
		r.m = batch.merged(r.m, o, ns, nd)
	}
	n.relMu.Unlock()

	// The relation matrices are already current; only derived products
	// along the pair are stale.
	n.engInvalidate(func(path []string) bool { return pathHasPair(path, string(src), string(dst)) })
	return nil
}

// HasRelation reports whether a link has been recorded between the two
// types, in either orientation — even one whose weight has since
// cancelled to zero.
func (n *Network) HasRelation(a, b Type) bool {
	key, _ := orient(a, b)
	_, ok := n.rels[key]
	return ok
}

// Relation returns the weighted adjacency matrix W with W[i][j] = total
// link weight between object i of type src and object j of type dst,
// merging links recorded in either orientation; two types with no link
// between them read as an empty matrix. The matrix is immutable and
// shared: repeated calls return the same matrix until a mutation
// touching the relation replaces it. The first read of a relation builds
// its matrix from its links and drops them; a later read merges in the
// links AddLink logged since, and the first read of the other
// orientation transposes a matrix already built. Concurrent reads that
// must do such work do it once: the first does, the others wait for its
// matrix.
func (n *Network) Relation(src, dst Type) *sparse.Matrix {
	key, o := orient(src, dst)
	rows, cols := n.Count(src), n.Count(dst)
	n.relMu.Lock()
	r := n.rels[key]
	for {
		if r == nil {
			n.relMu.Unlock()
			return sparse.NewFromCoords(rows, cols, nil)
		}
		if m := r.m[o]; m != nil && !r.pending() {
			if m.Rows() != rows || m.Cols() != cols {
				m = m.Grow(rows, cols)
				r.m[o] = m
			}
			n.relMu.Unlock()
			return m
		}
		done, ok := n.building[key]
		if !ok {
			break
		}
		n.relMu.Unlock()
		<-done
		n.relMu.Lock()
	}
	done := make(chan struct{})
	if n.building == nil {
		n.building = make(map[relationKey]chan struct{})
	}
	n.building[key] = done
	was := *r
	n.relMu.Unlock()
	var folded [2]*sparse.Matrix
	defer func() {
		// On a panic nothing is stored, and a waiter folds it itself.
		n.relMu.Lock()
		if folded[o] != nil {
			r.links, r.m = [2]list[link]{}, folded
			n.relBuilds++
		}
		delete(n.building, key)
		n.relMu.Unlock()
		close(done)
	}()
	folded = was.fold(o, rows, cols)
	return folded[o]
}

// fold returns r's matrices with its pending links merged in and
// orientation o present, at rows×cols; r is not modified. A first build
// is one NewFromCoords over the links, those logged in orientation o
// first; a later fold merges them into each matrix (Extend).
func (r *relation) fold(o, rows, cols int) [2]*sparse.Matrix {
	m := r.m
	switch {
	case !r.pending():
	case m == [2]*sparse.Matrix{}:
		m[o] = sparse.NewFromCoords(rows, cols, r.coords(o))
	default:
		m = r.merged(m, o, rows, cols)
	}
	if m[o] == nil {
		m[1-o] = m[1-o].Grow(cols, rows)
		m[o] = m[1-o].Transpose()
	}
	return m
}

// merged returns m with r's links merged into each matrix present
// (Extend); rows×cols are orientation o's dimensions.
func (r *relation) merged(m [2]*sparse.Matrix, o, rows, cols int) [2]*sparse.Matrix {
	for i, mi := range m {
		switch {
		case mi == nil:
		case i == o:
			m[i] = mi.Extend(rows, cols, r.coords(i))
		default:
			m[i] = mi.Extend(cols, rows, r.coords(i))
		}
	}
	return m
}

// SchemaEdges lists the type pairs that have at least one link, each pair
// once in a canonical order (useful to print the network schema).
func (n *Network) SchemaEdges() [][2]Type {
	out := make([][2]Type, 0, len(n.rels))
	for k := range n.rels {
		out = append(out, [2]Type{k.src, k.dst})
	}
	slices.SortFunc(out, func(a, b [2]Type) int {
		if c := cmp.Compare(a[0], b[0]); c != 0 {
			return c
		}
		return cmp.Compare(a[1], b[1])
	})
	return out
}

// Bipartite is the bi-typed sub-network view consumed by RankClus:
// target type X, attribute type Y, and the X×Y link matrix W. WXX is the
// optional homogeneous X×X matrix (e.g. co-author links); it may be nil.
type Bipartite struct {
	X, Y Type
	W    *sparse.Matrix // |X| × |Y|
	WXX  *sparse.Matrix // |X| × |X| or nil
}

// Bipartite extracts the bi-typed view between target x and attribute y.
// Any homogeneous x–x links present are attached as WXX.
func (n *Network) Bipartite(x, y Type) *Bipartite {
	b := &Bipartite{X: x, Y: y, W: n.Relation(x, y)}
	if n.HasRelation(x, x) {
		b.WXX = n.Relation(x, x)
	}
	return b
}

// Star is the star-schema view consumed by NetClus: a center type whose
// objects each link to objects of the attribute types (for DBLP: paper
// center with author/venue/term attributes).
type Star struct {
	Center     Type
	Attributes []Type
	// Rel[i] is the Center×Attributes[i] link matrix.
	Rel []*sparse.Matrix
}

// Star extracts the star-schema view centered on center; attrs lists the
// attribute types in presentation order. It returns an error if a
// relation is entirely absent, since the star schema requires every
// attribute type to touch the center.
func (n *Network) Star(center Type, attrs ...Type) (*Star, error) {
	s := &Star{Center: center, Attributes: append([]Type(nil), attrs...)}
	for _, a := range attrs {
		if !n.HasRelation(center, a) {
			return nil, fmt.Errorf("star schema missing relation %s-%s", center, a)
		}
		s.Rel = append(s.Rel, n.Relation(center, a))
	}
	return s, nil
}

// MetaPath is a sequence of types describing a composite relation, e.g.
// {"author","paper","author"} for co-authorship.
type MetaPath []Type

// String renders the path as A-P-A style.
func (p MetaPath) String() string {
	out := ""
	for i, t := range p {
		if i > 0 {
			out += "-"
		}
		out += string(t)
	}
	return out
}

// Symmetric reports whether the path reads the same reversed.
func (p MetaPath) Symmetric() bool {
	for i, j := 0, len(p)-1; i < j; i, j = i+1, j-1 {
		if p[i] != p[j] {
			return false
		}
	}
	return true
}

// netSource adapts the network into the metapath engine's Source view
// (plain string type names, so internal/metapath needs no hin import).
type netSource struct{ n *Network }

func (s netSource) Types() []string {
	out := make([]string, len(s.n.types))
	for i, t := range s.n.types {
		out[i] = string(t)
	}
	return out
}

func (s netSource) HasType(t string) bool {
	_, ok := s.n.names[Type(t)]
	return ok
}

func (s netSource) Count(t string) int { return s.n.Count(Type(t)) }

func (s netSource) HasRelation(a, b string) bool { return s.n.HasRelation(Type(a), Type(b)) }

func (s netSource) Relation(a, b string) *sparse.Matrix { return s.n.Relation(Type(a), Type(b)) }

// Clone returns a copy-on-write clone of the network for incremental
// delta chains: the clone shares the parent's name lists, pending links,
// name-index bases, relation matrices and completed meta-path
// materializations, so cloning costs O(types + relations + names added
// since the index bases were frozen), not O(objects + links). Mutating
// the clone never changes what the parent serves: the first clone to
// append to a shared list writes past the parent's length in place and
// every other copy of it copies out (list), new names go to the clone's
// own index overlay (nameIndex), the clone's relation records are its
// own and their matrices immutable, and the engine cache is copied
// entry-by-entry.
//
// The intended discipline is a single-writer chain (the serving
// layer's ingest path): clone the live network, apply a delta batch to
// the clone, swap it in, and never mutate the parent again. Queries
// against the parent remain safe throughout.
func (n *Network) Clone() *Network {
	c := &Network{
		types:   append([]Type(nil), n.types...),
		names:   maps.Clone(n.names),
		index:   make(map[Type]*nameIndex, len(n.index)),
		rels:    make(map[relationKey]*relation, len(n.rels)),
		version: n.version,
	}
	for t, x := range n.index {
		c.index[t] = x.clone()
	}
	n.relMu.Lock()
	for k, r := range n.rels {
		own := *r
		c.rels[k] = &own
	}
	n.relMu.Unlock()
	n.engMu.Lock()
	eng := n.eng
	n.engMu.Unlock()
	if eng != nil {
		c.eng = eng.CloneFor(netSource{c}, c.version)
	}
	return c
}

// PathEngine returns the network's meta-path engine — the planner and
// materialization cache every CommutingMatrix/Projection call runs
// through. The engine is created lazily and its cache is invalidated
// whenever the network has been mutated since the previous call, so it
// is always safe to hold onto. Concurrent PathEngine/Commute calls are
// safe; mutating the network concurrently with queries is not (and
// never was).
func (n *Network) PathEngine() *metapath.Engine {
	n.engMu.Lock()
	if n.eng == nil {
		n.eng = metapath.New(netSource{n})
	}
	e := n.eng
	n.engMu.Unlock()
	e.SyncEpoch(n.version)
	return e
}

// ParseMetaPath resolves a spec like "A-P-V-P-A" or
// "author-paper-author" against the network's registered types and
// validates it against the schema. Tokens match a type exactly,
// case-insensitively, or by unique case-insensitive prefix.
func (n *Network) ParseMetaPath(spec string) (MetaPath, error) {
	path, err := n.PathEngine().ParsePath(spec)
	if err != nil {
		return nil, err
	}
	return toMetaPath(path), nil
}

func toMetaPath(path []string) MetaPath {
	p := make(MetaPath, len(path))
	for i, t := range path {
		p[i] = Type(t)
	}
	return p
}

func fromMetaPath(p MetaPath) []string {
	out := make([]string, len(p))
	for i, t := range p {
		out[i] = string(t)
	}
	return out
}

// CommutingMatrix returns the product of relation matrices along the
// path: M = W(t0,t1) · W(t1,t2) · … . Paths must have length ≥ 2. The
// product is evaluated by the meta-path engine — planned association
// order, Gram factorization of symmetric paths, cached intermediates —
// so repeated or overlapping paths cost far less than their naive
// products. It panics on malformed paths; CommutingMatrixCtx returns an
// error instead.
func (n *Network) CommutingMatrix(p MetaPath) *sparse.Matrix {
	m, err := n.CommutingMatrixCtx(context.Background(), p)
	if err != nil {
		panic("hin: " + err.Error())
	}
	return m
}

// CommutingMatrixCtx is the non-panicking CommutingMatrix: malformed
// paths (too short, unknown types, missing schema relations) come back
// as errors, which is what the serving layer needs to turn client input
// into 400s rather than crashes. Cancellation is threaded into the
// engine's materialization (see metapath.Engine.CommuteCtx): a
// cancelled ctx stops the product chain at its next row-block
// checkpoint and returns ctx.Err().
func (n *Network) CommutingMatrixCtx(ctx context.Context, p MetaPath) (*sparse.Matrix, error) {
	return n.PathEngine().CommuteCtx(ctx, fromMetaPath(p))
}

// CommutingFactorCtx returns the half-path factor of a symmetric path
// whose commuting matrix is a Gram product, M = W·Wᵀ: W and Wᵀ, both
// cached (and after a mutation patched) by the engine like any product —
// what the serving tier answers PathSim from without ever materializing
// M (see metapath.Engine.FactorCtx). Both are nil for a path that is not
// Gram-shaped.
func (n *Network) CommutingFactorCtx(ctx context.Context, p MetaPath) (w, wt *sparse.Matrix, err error) {
	return n.PathEngine().FactorCtx(ctx, fromMetaPath(p))
}

// Projection builds the homogeneous weighted graph on type p[0] induced
// by a symmetric meta-path: nodes are the objects of p[0]; edge weights
// are the off-diagonal entries of the commuting matrix. Labels carry the
// object names. An asymmetric or invalid path is an error.
func (n *Network) Projection(p MetaPath) (*graph.Graph, error) {
	if len(p) == 0 || !p.Symmetric() || p[0] != p[len(p)-1] {
		return nil, fmt.Errorf("projection requires a symmetric meta path, got %q", p.String())
	}
	m, err := n.CommutingMatrixCtx(context.Background(), p)
	if err != nil {
		return nil, err
	}
	g := graph.New(n.Count(p[0]), false)
	for id := 0; id < n.Count(p[0]); id++ {
		g.SetLabel(id, n.Name(p[0], id))
	}
	for r := 0; r < m.Rows(); r++ {
		m.Row(r, func(c int, v float64) {
			if c > r && v > 0 {
				g.AddEdge(r, c, v)
			}
		})
	}
	return g, nil
}

// Homogeneous converts the whole network into one untyped undirected
// graph whose nodes are all objects of all types (ordered by type
// registration then id), with one edge per linked pair weighted by the
// pair's total link weight, added relation by relation in SchemaEdges
// order. It returns the graph and the per-type offset map. This is the
// "database as one gigantic network" view from the tutorial's
// introduction, and also feeds the homogeneous baselines.
func (n *Network) Homogeneous() (*graph.Graph, map[Type]int) {
	offset := make(map[Type]int)
	total := 0
	for _, t := range n.types {
		offset[t] = total
		total += n.Count(t)
	}
	g := graph.New(total, false)
	for _, t := range n.types {
		for id := 0; id < n.Count(t); id++ {
			g.SetLabel(offset[t]+id, string(t)+":"+n.Name(t, id))
		}
	}
	for _, e := range n.SchemaEdges() {
		m := n.Relation(e[0], e[1])
		a, b := offset[e[0]], offset[e[1]]
		for r := 0; r < m.Rows(); r++ {
			m.Row(r, func(c int, w float64) {
				if a+r != b+c {
					g.AddEdge(a+r, b+c, w)
				}
			})
		}
	}
	return g, offset
}
