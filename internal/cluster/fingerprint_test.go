package cluster

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"hinet/internal/hin"
	"hinet/internal/sparse"
)

// matrixLineage names the sparse.Matrix fields that say where a matrix
// came from in this process — its id, the id it was merged from, the
// rows that merge changed, the claim on its arrays — not what it holds.
// Ids come from a process-wide counter, so they depend on what ran
// before.
var matrixLineage = map[string]bool{"id": true, "from": true, "dirty": true, "claim": true}

// hashValue folds v into h field by field, unexported fields included:
// floats by their bits, slices by length and elements, pointers by
// nil-ness and target. A network is hashed by what it holds — every
// type's names in id order and every relation matrix in both
// orientations — not by its caches and locks, and a matrix by its
// entries, not its lineage.
func hashValue(h hash.Hash64, v reflect.Value) {
	word := func(x uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	if v.Type() == reflect.TypeFor[*hin.Network]() {
		net := v.Interface().(*hin.Network)
		for _, t := range net.Types() {
			hashValue(h, reflect.ValueOf(t))
			hashValue(h, reflect.ValueOf(net.Names(t)))
		}
		for _, e := range net.SchemaEdges() {
			hashValue(h, reflect.ValueOf([2]*sparse.Matrix{net.Relation(e[0], e[1]), net.Relation(e[1], e[0])}))
		}
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			word(1)
		} else {
			word(0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		word(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		word(v.Uint())
	case reflect.Float32, reflect.Float64:
		word(math.Float64bits(v.Float()))
	case reflect.String:
		word(uint64(v.Len()))
		h.Write([]byte(v.String()))
	case reflect.Slice, reflect.Array:
		word(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			hashValue(h, v.Index(i))
		}
	case reflect.Pointer:
		if v.IsNil() {
			word(0)
			return
		}
		word(1)
		hashValue(h, v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type() == reflect.TypeFor[sparse.Matrix]() && matrixLineage[v.Type().Field(i).Name] {
				continue
			}
			hashValue(h, v.Field(i))
		}
	default:
		panic(fmt.Sprintf("hashValue: %s has a %s", v.Type(), v.Kind()))
	}
}

// TestBuildModelsFingerprint: every field of a default-corpus generation
// (800 authors) — the corpus's names, labels and relation matrices, both
// ranking vectors, both clustering models and the materialized PathSim
// index — is pinned bit for bit, so a faster way of building the network
// or the models can show it builds the same generation. Parallelism is
// pinned because NetClus's log-likelihood sums in blocks cut by it.
func TestBuildModelsFingerprint(t *testing.T) {
	defer sparse.Parallelism(sparse.Parallelism(0))
	sparse.Parallelism(2)
	const want = 0xc52e42372e001dab
	h := fnv.New64a()
	hashValue(h, reflect.ValueOf(BuildModels(1, ModelSpec{})))
	if got := h.Sum64(); got != want {
		t.Errorf("fingerprint %#x, want %#x", got, uint64(want))
	}
}
