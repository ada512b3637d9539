//go:build !race

package pathsim

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
