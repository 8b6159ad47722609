//go:build !race

// Package racecheck reports whether the binary was built with the race
// detector. Allocation gates read it to skip themselves under -race, whose
// instrumentation allocates.
package racecheck

// Enabled reports whether the race detector is on.
const Enabled = false
