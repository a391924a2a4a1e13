//go:build race

package gtree

// raceEnabled reports a -race build, whose sync.Pool drops entries at
// random, so allocation counts of pooled paths are not exact.
const raceEnabled = true
