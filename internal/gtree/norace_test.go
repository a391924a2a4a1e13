//go:build !race

package gtree

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
