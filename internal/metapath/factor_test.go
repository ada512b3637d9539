package metapath_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"hinet/internal/hin"
	"hinet/internal/ingest"
	"hinet/internal/pathsim"
)

// The differential suite for the served index: the patched_test.go
// world at a size where a one-paper batch is patched, driven through the
// real write path, and after every queried batch the default path's
// factor index — over the live engine, its half-path product patched
// from whatever it held before — compared answer by answer with the
// materialized index of a cold engine over the same network.

// wideWorld is newWorld with enough authors (and few enough per paper)
// that a small batch dirties a small share of the rows.
func wideWorld(seed int64) *world {
	w := &world{net: hin.NewNetwork(), rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < 260; i++ {
		w.net.AddObject(tA, fmt.Sprintf("a%d", i))
	}
	for i := 0; i < 5; i++ {
		w.net.AddObject(tV, fmt.Sprintf("v%d", i))
	}
	for i := 0; i < 8; i++ {
		w.net.AddObject(tT, fmt.Sprintf("t%d", i))
	}
	for i := 0; i < 330; i++ {
		p := w.net.AddObject(tP, fmt.Sprintf("p%d", i))
		w.net.AddLink(tP, p, tV, w.rng.Intn(5), 1)
		for j := 0; j < 1+w.rng.Intn(2); j++ {
			w.net.AddLink(tP, p, tA, w.rng.Intn(260), 1)
		}
		w.net.AddLink(tP, p, tT, w.rng.Intn(8), 1)
	}
	return w
}

// checkFactor compares the whole range and the six column ranges of the
// default path, as factor indexes over the live network, with the
// matching ranges of a cold engine's materialized index, and holds the
// ranges' sizes to the whole's.
func (w *world) checkFactor(t *testing.T, label string) {
	t.Helper()
	ctx := context.Background()
	coldNet := w.net.Clone()
	coldNet.PathEngine().Reset()
	cold, err := pathsim.NewIndexCtx(ctx, coldNet, indexAPVPA)
	if err != nil {
		t.Fatal(err)
	}
	dim := w.net.Count(tA)
	whole, parts := 0, 0
	for i, r := range append([][2]int{{0, dim}}, w.ranges(t)...) {
		ix, err := pathsim.NewRangeIndexCtx(ctx, w.net, indexAPVPA, r[0], r[1])
		if err != nil {
			t.Fatalf("%s: index %v: %v", label, r, err)
		}
		want, err := cold.Range(r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		if d := sameAnswers(ix, want); d != "" {
			t.Fatalf("%s: factor index %v differs from the cold product's columns: %s", label, r, d)
		}
		if i == 0 {
			whole = ix.NNZ()
		} else {
			parts += ix.NNZ()
		}
	}
	if parts != 2*whole { // two three-way partitions
		t.Fatalf("%s: the two partitions weigh %d together, the whole range %d", label, parts, whole)
	}
}

// playFactor runs a script over the wide world. Bytes 0–11 are
// world.step's (10 ends a batch that is not queried); 12 is a queried
// burst well past the quarter-rows fallback, 13–15 one queried paper.
// With clone set every batch is applied to a copy-on-write clone, the
// way a serving generation is, so the engine's entries travel through
// CloneFor.
func playFactor(t *testing.T, seed int64, script []byte, clone bool) {
	t.Helper()
	w := wideWorld(seed)
	w.checkFactor(t, "boot")
	var batch []ingest.Delta
	apply := func(i int, query bool) {
		if clone {
			w.net = w.net.Clone()
		}
		if _, err := ingest.Apply(w.net, batch, ingest.Options{}); err != nil {
			t.Fatalf("seed %d step %d: %v", seed, i, err)
		}
		if batch = nil; query {
			w.checkFactor(t, fmt.Sprintf("seed %d step %d", seed, i))
		}
	}
	for i, b := range script {
		query := true
		switch op := b % 16; {
		case op == 12:
			for j := 0; j < 60; j++ {
				batch = append(batch, w.paper()...)
			}
		case op > 12:
			batch = append(batch, w.paper()...)
		default:
			if op >= 6 && op <= 8 { // picks a stored edge or object: apply what is open first
				apply(i, false)
			}
			ds, end, q := w.step(b)
			if batch, query = append(batch, ds...), q; !end {
				continue
			}
		}
		apply(i, query)
	}
	apply(len(script), true)
}

// FuzzFactorAfterIngest is the suite with the script, the seed the world
// is drawn from and the write discipline chosen by the fuzzer. The seeds
// name every case — paper arrivals, a growing endpoint type, fractional
// weights, removed edge / author / paper / venue, batches of several
// steps, bursts past the quarter-rows fallback — applied in place and
// through clones.
func FuzzFactorAfterIngest(f *testing.F) {
	f.Add(int64(1), []byte{13, 14, 15, 3, 11, 13, 4, 11, 5, 6, 13}, false)
	f.Add(int64(2), []byte{13, 7, 13, 8, 13, 20, 13, 32, 13}, true)
	f.Add(int64(3), []byte{13, 9, 13, 14, 12, 13, 14}, true)
	f.Add(int64(4), []byte{0, 1, 11, 13, 0, 10, 1, 10, 2, 11}, false)
	f.Add(int64(5), []byte{}, false)
	f.Fuzz(func(t *testing.T, seed int64, script []byte, clone bool) {
		if len(script) > 16 {
			script = script[:16]
		}
		playFactor(t, seed, script, clone)
	})
}
