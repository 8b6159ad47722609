package dataset_test

import (
	"testing"

	"evoprot/internal/datagen"
	"evoprot/internal/dataset"
)

// TestDatagenOneBytePerCell: no synthetic attribute has more than 256
// categories, so every generated file stores one byte per cell.
func TestDatagenOneBytePerCell(t *testing.T) {
	for _, name := range datagen.Names() {
		d := datagen.MustByName(name, 20, 1)
		if got := dataset.BytesPerCell(d); got != 1 {
			t.Errorf("%s stores %d bytes per cell, want 1", name, got)
		}
	}
}
