//go:build !race

package sparse

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
