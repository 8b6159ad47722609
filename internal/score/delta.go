package score

// Delta (incremental) evaluation. A genetic operator derives an offspring
// from an already-scored parent by changing a handful of cells, so most of
// a full re-evaluation repeats work the parent's evaluation already did.
// Prepare builds one state per measure that implements measure.Reversible,
// in the evaluator's slot order; EvaluateBatch advances a state by an
// offspring's change list, reads it and rolls it back, in time
// proportional to the number of changed cells. Measures without a state
// (or whose configuration rules one out) are recomputed in full.
//
// Delta evaluation is bit-for-bit identical to Evaluate: the states
// maintain exact integer summaries and share their final value
// arithmetic with the full path, and every route sums the battery through
// the same Evaluator.evaluation walk.

import (
	"fmt"

	"evoprot/internal/dataset"
	"evoprot/internal/measure"
)

// DeltaState carries the measure states describing one masked dataset,
// one per evaluator slot. It is produced by Prepare, always describes
// exactly one masked file, and must only be advanced with change lists
// for that file. A nil slot means the corresponding measure runs without
// a fast path and is fully recomputed for every offspring.
type DeltaState struct {
	states []measure.State
}

// Clone returns an independent deep copy — the state of a surviving
// offspring whose parent lives on, or of a migrant joining another
// population.
func (s *DeltaState) Clone() *DeltaState {
	out := &DeltaState{states: make([]measure.State, len(s.states))}
	for i, st := range s.states {
		if st != nil {
			out.states[i] = st.CloneState()
		}
	}
	return out
}

// Prepare builds the delta state of a masked dataset: one state per slot
// whose measure implements measure.Reversible, nil for every other. The
// cost is comparable to one full evaluation; every offspring scored
// against the state then costs a small fraction of that.
func (e *Evaluator) Prepare(masked *dataset.Dataset) (*DeltaState, error) {
	if err := e.checkShape(masked); err != nil {
		return nil, err
	}
	s := &DeltaState{states: make([]measure.State, len(e.slots))}
	for i, sl := range e.slots {
		if sl.rev != nil {
			s.states[i] = sl.rev.Prepare(e.orig, masked, e.attrs)
		}
	}
	return s, nil
}

// replayScanLimit bounds the change-list length validated by the
// quadratic in-place scan. The genetic operators produce one change per
// mutation and a handful per surviving crossover window, so the common
// path stays allocation-free; longer lists (which are at worst one
// allocation against an expensive evaluation) fall back to a map.
const replayScanLimit = 32

// validateChanges checks the change-list contract of EvaluateBatch and
// Advance: only
// in-domain edits of protected cells may appear — the states index their
// summaries by protected-attribute position and category, so an unchecked
// foreign column or out-of-domain value would silently corrupt them.
// (Edits to unprotected columns are invisible to every measure and need no
// change entries at all.) Within one cell the list must chain — each edit
// starts from the value the previous one produced (catches reordered or
// merged lists from different ancestors) — and replaying the list must
// land on the child (catches swapped Old/New, e.g. a diff taken in the
// wrong direction). The Old values must describe the file the parent state
// was built from — that file is not at hand here, so beyond the replay
// checks correctness of Old is the caller's contract.
func (e *Evaluator) validateChanges(child *dataset.Dataset, changes []dataset.CellChange) error {
	for _, ch := range changes {
		if ch.Row < 0 || ch.Row >= e.orig.Rows() {
			return fmt.Errorf("score: change row %d outside [0,%d)", ch.Row, e.orig.Rows())
		}
		if !e.protected(ch.Col) {
			return fmt.Errorf("score: change column %d is not a protected attribute", ch.Col)
		}
		card := e.orig.Schema().Attr(ch.Col).Cardinality()
		if ch.Old < 0 || ch.Old >= card || ch.New < 0 || ch.New >= card {
			return fmt.Errorf("score: change (%d,%d) values %d->%d outside domain [0,%d)",
				ch.Row, ch.Col, ch.Old, ch.New, card)
		}
	}
	if len(changes) <= replayScanLimit {
		// Chain and replay checks by scanning the list itself — no
		// allocation on the hot (short-list) path.
		for k, ch := range changes {
			for j := k - 1; j >= 0; j-- {
				if changes[j].Row == ch.Row && changes[j].Col == ch.Col {
					if ch.Old != changes[j].New {
						return fmt.Errorf("score: change chain broken at cell (%d,%d): edit starts from %d, previous edit ended at %d",
							ch.Row, ch.Col, ch.Old, changes[j].New)
					}
					break
				}
			}
			last := true
			for j := k + 1; j < len(changes); j++ {
				if changes[j].Row == ch.Row && changes[j].Col == ch.Col {
					last = false
					break
				}
			}
			if last && child.At(ch.Row, ch.Col) != ch.New {
				return fmt.Errorf("score: change list does not replay to child at cell (%d,%d): list ends at %d, child holds %d",
					ch.Row, ch.Col, ch.New, child.At(ch.Row, ch.Col))
			}
		}
		return nil
	}
	final := make(map[[2]int]int, len(changes))
	for _, ch := range changes {
		cell := [2]int{ch.Row, ch.Col}
		if prev, seen := final[cell]; seen && ch.Old != prev {
			return fmt.Errorf("score: change chain broken at cell (%d,%d): edit starts from %d, previous edit ended at %d",
				ch.Row, ch.Col, ch.Old, prev)
		}
		final[cell] = ch.New
	}
	for cell, v := range final {
		if child.At(cell[0], cell[1]) != v {
			return fmt.Errorf("score: change list does not replay to child at cell (%d,%d): list ends at %d, child holds %d",
				cell[0], cell[1], v, child.At(cell[0], cell[1]))
		}
	}
	return nil
}

// deltaRebuildFraction bounds when patching states change-by-change stops
// paying off for the battery as a whole: once a change list touches more
// than rows/deltaRebuildFraction cells (a wide crossover window),
// EvaluateBatch scores the child in full instead. The DBRL and PRL states
// do not wait for it: each routes a narrower list to a full grouped
// re-link of its own once patching would cost more (see
// internal/risk/incremental.go), so this fraction now governs only the
// rest of the battery. Results are identical either way.
const deltaRebuildFraction = 2

// protected reports whether col is one of the protected attributes.
func (e *Evaluator) protected(col int) bool {
	for _, a := range e.attrs {
		if a == col {
			return true
		}
	}
	return false
}

// WideEdit reports whether a change list is past the battery's
// incremental break-even point: EvaluateBatch then evaluates the child in
// full without touching the parent's state, and Advance refuses the list,
// so callers holding no state for the parent can skip building one.
// Narrower lists still reach the states, where DBRL and PRL pick their own
// route from their tuple counts.
func (e *Evaluator) WideEdit(changes []dataset.CellChange) bool {
	return len(changes)*deltaRebuildFraction > e.orig.Rows()
}
