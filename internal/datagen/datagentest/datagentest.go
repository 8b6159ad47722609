// Package datagentest provides helpers for tests that need a synthetic
// dataset.
package datagentest

import (
	"evoprot/internal/datagen"
	"evoprot/internal/dataset"
)

// MustByName is datagen.ByName that panics on error; for statically-known
// names.
func MustByName(name string, rows int, seed uint64) *dataset.Dataset {
	d, err := datagen.ByName(name, rows, seed)
	if err != nil {
		panic(err)
	}
	return d
}
