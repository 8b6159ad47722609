//go:build race

package racecheck

// Enabled reports whether the race detector is on.
const Enabled = true
