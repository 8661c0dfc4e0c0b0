//go:build race

package critpath_test

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
