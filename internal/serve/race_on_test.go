//go:build race

package serve

// raceEnabled reports whether the race detector is instrumenting this build.
const raceEnabled = true
