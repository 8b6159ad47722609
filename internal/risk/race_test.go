//go:build race

package risk

// raceEnabled reports whether the race detector is on.
const raceEnabled = true
