//go:build race

package sparse

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation perturbs allocation counts, so the allocation tests
// skip themselves under -race.
const raceEnabled = true
