// Package measure declares the delta-state contract once for both
// measure batteries, information loss (internal/infoloss) and disclosure
// risk (internal/risk).
//
// The evolutionary engine's operators change one cell (mutation) or a gene
// window (crossover) of an already-scored file, so rescoring it from
// scratch wastes almost all of the work. A measure that can do better
// implements Reversible: Prepare builds a per-masked-file State whose
// summaries (contingency tables, distance sums, linkage rows) support
// O(changes) patching, Apply advances the state by a change list and
// returns the new value, and ApplyUndo/Undo do the same with an exact
// rollback — the primitive behind generation-batch evaluation, which
// scores every offspring against its parent's one state.
//
// Every state keeps exact integer summaries and funnels them through the
// value arithmetic of the measure's full Loss or Risk, so a delta value
// is bit-for-bit identical to a full recompute, and Apply with an empty
// change list on a freshly prepared state reads the full value itself.
package measure

import "evoprot/internal/dataset"

// State is an opaque per-masked-file summary maintained by a Reversible
// measure. States are single-goroutine values; CloneState branches one
// (e.g. for an offspring that survives while its parent lives on).
type State interface {
	// CloneState returns an independent deep copy. A pending ApplyUndo
	// is not cloned.
	CloneState() State
}

// Reversible is the state half of a measure: the capability an evaluator
// builds a delta state for. The value half (Name and Loss or Risk) stays
// with each battery's Measure interface.
type Reversible interface {
	// Prepare builds the state for masked against orig over the
	// protected attrs. A nil state means the measure cannot run
	// incrementally under its current configuration; callers fall back
	// to the full recompute.
	Prepare(orig, masked *dataset.Dataset, attrs []int) State
	// Apply advances state by the given cell changes — which must
	// describe edits to the state's masked file, applied in order — and
	// returns the measure's value for the edited file. An empty change
	// list returns the current value. Apply commits any pending
	// ApplyUndo, and must not retain changes: callers reuse the backing
	// array across calls.
	Apply(state State, changes []dataset.CellChange) float64
	// ApplyUndo is Apply with rollback armed: it advances state by
	// changes, returns the value for the edited file, and journals
	// enough to restore the state exactly. At most one ApplyUndo may be
	// pending per state; Undo (or a plain Apply, which commits the
	// pending changes) must intervene before the next.
	ApplyUndo(state State, changes []dataset.CellChange) float64
	// Undo rolls back the pending ApplyUndo, restoring the state bit
	// for bit. With no pending ApplyUndo it is a no-op.
	Undo(state State)
}

// Journal is the undo journal of a state whose summaries are pure
// functions of the masked columns: Arm keeps a copy of the pending change
// list, and Rewind replays it inverted, newest first, through the state's
// own patch, which restores those summaries exactly. The buffer belongs
// to one state and is reused across generations; a clone starts with an
// empty journal.
type Journal struct {
	changes []dataset.CellChange
	armed   bool
}

// Arm records changes as the pending ApplyUndo.
func (j *Journal) Arm(changes []dataset.CellChange) {
	j.changes = append(j.changes[:0], changes...)
	j.armed = true
}

// Disarm commits the pending changes: a later Rewind does nothing.
func (j *Journal) Disarm() { j.armed = false }

// Rewind disarms the journal and passes every pending change to patch,
// inverted and newest first. It reports false, calling nothing, when no
// change list is armed.
func (j *Journal) Rewind(patch func(dataset.CellChange)) bool {
	if !j.armed {
		return false
	}
	j.armed = false
	for k := len(j.changes) - 1; k >= 0; k-- {
		patch(j.changes[k].Inverted())
	}
	return true
}
