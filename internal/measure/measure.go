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
// rollback — the primitive behind offspring evaluation, which scores
// every offspring against its parent's state and commits the winner's
// pending ApplyUndo with an empty Apply instead of patching it twice.
//
// Every state keeps exact integer summaries and funnels them through the
// value arithmetic of the measure's full Loss or Risk, so a delta value
// is bit-for-bit identical to a full recompute, and Apply with an empty
// change list on a freshly prepared state reads the full value itself.
//
// Binding. Every measure compares against one fixed original file, so
// part of each state is a function of the original and the protected
// attributes alone: tuple groupings, distance and contribution tables,
// the original's contingency tables, a classifier trained on it. A
// measure that can share that part offers Bind(orig, attrs) (each
// battery declares its own Binder), which computes it once and returns
// the measure bound to the pair: a Measure and Reversible whose Prepare
// builds states that point at the bound data instead of rebuilding it,
// and whose full Loss or Risk reads it too. score.NewEvaluator binds
// every measure that offers it, once per evaluator. The bound data is
// read-only: every state the bound value prepares, and every clone of
// those states, shares it, and the bound value may be used from several
// goroutines at once. A state owns only what describes its masked file.
// A bound value serves its own pair only: handed another original file
// (by pointer) or another attribute list, its Prepare, Loss or Risk
// panics (Binding.Check). An unbound measure's Prepare binds and then
// prepares, so there is one way to build a state.
package measure

import (
	"slices"

	"evoprot/internal/dataset"
)

// Binding is the (original file, protected attributes) pair a bound
// measure serves.
type Binding struct {
	orig  *dataset.Dataset
	attrs []int
}

// NewBinding records the pair; it keeps its own copy of attrs.
func NewBinding(orig *dataset.Dataset, attrs []int) Binding {
	return Binding{orig: orig, attrs: slices.Clone(attrs)}
}

// Attrs returns the bound attribute list, the binding's own copy: a bound
// measure builds its precomputation over it. Callers must not modify it.
func (b Binding) Attrs() []int { return b.attrs }

// Check panics unless orig is the bound original file and attrs lists
// the bound attributes in the bound order: a bound measure's
// precomputation describes that pair alone, and scoring another with it
// would silently give wrong values.
func (b Binding) Check(orig *dataset.Dataset, attrs []int) {
	if orig != b.orig || !slices.Equal(attrs, b.attrs) {
		panic("measure: a bound measure was handed another original file or attribute list")
	}
}

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
	// returns the measure's value for the edited file. Apply first
	// commits any pending ApplyUndo, so an empty change list returns the
	// current value and, on a pending state, commits it as it is: the
	// state then describes the file the ApplyUndo produced, and no
	// change is patched again (a state that left a wide ApplyUndo's
	// summaries stale rebuilds them). Apply must not retain changes:
	// callers reuse the backing array across calls.
	Apply(state State, changes []dataset.CellChange) float64
	// ApplyUndo is Apply with rollback armed: it advances state by
	// changes, returns the value for the edited file, and journals
	// enough to restore the state exactly. At most one ApplyUndo may be
	// pending per state; Undo, or a plain Apply (an empty one commits
	// the pending changes as they are), must intervene before the next.
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

// Positions maps each protected column of attrs to its position in
// attrs: the index of the column's summaries in a state, and its column
// in a state's masked projection (Dataset.Project).
func Positions(attrs []int) map[int]int {
	pos := make(map[int]int, len(attrs))
	for a, c := range attrs {
		pos[c] = a
	}
	return pos
}
