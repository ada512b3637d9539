//go:build race

package pathsim

// raceEnabled reports whether the race detector is compiled in — the
// build CI tests under, and so the one that pays for MergeTopK's check
// that its parts arrive in top-k order.
const raceEnabled = true
