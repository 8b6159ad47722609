package dataset

// CellChange records one cell edit of a dataset: the cell position, the
// category index the cell held before the edit, and the one it holds after.
//
// Change lists are the currency of incremental (delta) fitness evaluation:
// the genetic operators report exactly which genes they touched, and the
// incremental measures patch their precomputed summaries per change instead
// of rescanning the whole file. A list describes a *sequence* of edits
// applied in order — consumers replay it front to back, so a later change
// may touch a cell an earlier change produced.
type CellChange struct {
	// Row and Col locate the cell.
	Row, Col int
	// Old is the category index the cell held before the change.
	Old int
	// New is the category index the cell holds after the change.
	New int
}

// Inverted returns the change that undoes c: the same cell moved from
// c.New back to c.Old. Replaying a change list's inversions in reverse
// order restores the original dataset — the identity the reversible
// (apply/undo) delta states are built on.
func (c CellChange) Inverted() CellChange {
	return CellChange{Row: c.Row, Col: c.Col, Old: c.New, New: c.Old}
}

// CloneWith returns a deep copy of d with changes replayed onto it in
// order — the file an offspring describes as its parent's file plus a
// change list. d is left untouched. Like Set it panics on an
// out-of-domain New value; Old values are not read.
func (d *Dataset) CloneWith(changes []CellChange) *Dataset {
	out := d.Clone()
	for _, ch := range changes {
		out.Set(ch.Row, ch.Col, ch.New)
	}
	return out
}
