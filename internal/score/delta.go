package score

// Delta (incremental) evaluation. A genetic operator derives an offspring
// from an already-scored parent by changing a handful of cells, so most of
// a full re-evaluation repeats work the parent's evaluation already did.
// Prepare builds per-measure states (see infoloss.Reversible and
// risk.Reversible) that EvaluateBatch advances by an offspring's change
// list, reads, and rolls back, in time proportional to the number of
// changed cells; measures without a state (or whose configuration rules
// one out) are recomputed in full.
//
// Delta evaluation is bit-for-bit identical to Evaluate: the states
// maintain exact integer summaries and share their final value
// arithmetic with the full path, and the battery sums accumulate in the
// same order Evaluate uses.

import (
	"fmt"

	"evoprot/internal/dataset"
	"evoprot/internal/infoloss"
	"evoprot/internal/risk"
)

// DeltaState carries the per-measure incremental states describing one
// masked dataset. It is produced by Prepare, always describes exactly one
// masked file, and must only be advanced with change lists for that file.
// A nil slot means the corresponding measure runs without a fast path and
// is fully recomputed for every offspring.
type DeltaState struct {
	il []infoloss.State
	dr []risk.State
}

// Clone returns an independent deep copy — the state of a surviving
// offspring whose parent lives on, or of a migrant joining another
// population.
func (s *DeltaState) Clone() *DeltaState {
	out := &DeltaState{
		il: make([]infoloss.State, len(s.il)),
		dr: make([]risk.State, len(s.dr)),
	}
	for i, st := range s.il {
		if st != nil {
			out.il[i] = st.CloneState()
		}
	}
	for i, st := range s.dr {
		if st != nil {
			out.dr[i] = st.CloneState()
		}
	}
	return out
}

// Prepare builds the incremental evaluation state for a masked dataset:
// one slot per Reversible measure, nil for every other. The cost is
// comparable to one full evaluation; every offspring scored against the
// state then costs a small fraction of that.
func (e *Evaluator) Prepare(masked *dataset.Dataset) (*DeltaState, error) {
	if masked == nil {
		return nil, fmt.Errorf("score: nil masked dataset")
	}
	if masked.Rows() != e.orig.Rows() || masked.Cols() != e.orig.Cols() {
		return nil, fmt.Errorf("score: masked dataset is %dx%d, original is %dx%d",
			masked.Rows(), masked.Cols(), e.orig.Rows(), e.orig.Cols())
	}
	s := &DeltaState{
		il: make([]infoloss.State, len(e.cfg.IL)),
		dr: make([]risk.State, len(e.cfg.DR)),
	}
	for i, m := range e.cfg.IL {
		if rev, ok := m.(infoloss.Reversible); ok {
			s.il[i] = rev.Prepare(e.orig, masked, e.attrs)
		}
	}
	for i, m := range e.cfg.DR {
		if rev, ok := m.(risk.Reversible); ok {
			s.dr[i] = rev.Prepare(e.orig, masked, e.attrs)
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
