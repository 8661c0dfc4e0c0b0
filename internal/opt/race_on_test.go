//go:build race

package opt

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
