// Package datasettest provides helpers for tests that edit datasets.
package datasettest

import (
	"math/rand/v2"

	"evoprot/internal/dataset"
)

// RandomChange draws one uniformly-random in-domain cell edit over the
// given columns, applies it to d and returns the change record. The new
// value always differs from the old one. It panics when no listed column
// has more than one category (no cell could ever change). The randomized
// delta-evaluation property tests build their change lists from it.
func RandomChange(rng *rand.Rand, d *dataset.Dataset, attrs []int) dataset.CellChange {
	var mutable []int
	for _, c := range attrs {
		if d.Schema().Attr(c).Cardinality() > 1 {
			mutable = append(mutable, c)
		}
	}
	if len(mutable) == 0 {
		panic("datasettest: RandomChange over columns with no alternative categories")
	}
	row := rng.IntN(d.Rows())
	col := mutable[rng.IntN(len(mutable))]
	card := d.Schema().Attr(col).Cardinality()
	old := d.At(row, col)
	v := rng.IntN(card - 1)
	if v >= old {
		v++
	}
	d.Set(row, col, v)
	return dataset.CellChange{Row: row, Col: col, Old: old, New: v}
}
