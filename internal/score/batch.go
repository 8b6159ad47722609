package score

// One-offspring delta evaluation, the engine's offspring route. An
// offspring is its parent's file plus a change list; EvaluateEdit applies
// the list to the parent's own delta state through the measures'
// reversible (apply/undo) capability, touching memory proportional to the
// edit instead of to the file. No offspring file is built unless scoring
// reads one — a wide edit, or a measure without a state — and then once,
// returned so the caller can keep it for a survivor. The edit stays
// pending in the state: once replacement has decided, Keep commits it in
// O(1) when that offspring inherits the state, and Restore rolls it back
// otherwise, so a winner is never patched twice. Calls on distinct states
// are independent (each only reads its file), so the offspring of distinct
// parents may be scored concurrently.
//
// Results are bit-for-bit identical to Evaluate of each child: Undo
// restores states exactly (property-tested per measure), a kept edit
// leaves a state that scores like one prepared from the child, and the
// battery is summed by the same slot walk Evaluate uses.

import (
	"fmt"

	"evoprot/internal/dataset"
)

// Batchable reports whether every configured measure supports reversible
// delta evaluation, i.e. whether EvaluateEdit scores narrow edits without
// any full recompute. It is informational: EvaluateEdit works either way,
// recomputing a measure without the capability in full per offspring.
func (e *Evaluator) Batchable() bool {
	for _, s := range e.slots {
		if s.rev == nil {
			return false
		}
	}
	return true
}

// EvaluateEdit scores the offspring file.CloneWith(changes), bit for bit
// like Evaluate of it. file must match the original's shape and changes
// must start from it (see validateChanges); state is the delta state
// describing file, and parent is file's evaluation, returned verbatim for
// an empty list. The returned file is the offspring's, built only when
// scoring read it: for a wide edit, which is scored in full without
// touching state, and for a narrow one when a measure has no state.
// Otherwise it is nil.
//
// A narrow edit needs a settled state. It is applied and left pending, so
// the caller must Keep or Restore state before using it again. A rejected
// call leaves state as it was.
func (e *Evaluator) EvaluateEdit(parent Evaluation, file *dataset.Dataset, state *DeltaState, changes []dataset.CellChange) (Evaluation, *dataset.Dataset, error) {
	if err := e.checkShape(file); err != nil {
		return Evaluation{}, nil, err
	}
	if err := e.validateChanges(file, changes); err != nil {
		return Evaluation{}, nil, err
	}
	if len(changes) == 0 {
		return parent, nil, nil
	}
	if e.WideEdit(changes) {
		child := file.CloneWith(changes)
		ev, err := e.Evaluate(child)
		return ev, child, err
	}
	if state == nil {
		return Evaluation{}, nil, fmt.Errorf("score: a narrow edit needs the parent's delta state")
	}
	if err := e.checkSettled(state); err != nil {
		return Evaluation{}, nil, err
	}
	var child *dataset.Dataset
	ev := e.evaluation(func(i int) float64 {
		s := state.states[i]
		if s == nil {
			if child == nil {
				child = file.CloneWith(changes)
			}
			return e.slots[i].full(e.orig, child, e.attrs)
		}
		return e.slots[i].rev.ApplyUndo(s, changes)
	})
	state.pending = true
	return ev, child, nil
}

// Keep settles a state EvaluateEdit left unsettled by committing the
// pending edit: the state then describes that offspring's file and
// scores like one prepared from it, at the cost of one empty Apply per
// slot. Keep on a settled state does nothing.
func (e *Evaluator) Keep(state *DeltaState) {
	if !state.pending {
		return
	}
	for i, s := range state.states {
		if s != nil {
			e.slots[i].rev.Apply(s, nil)
		}
	}
	state.pending = false
}

// Restore settles a state EvaluateEdit left unsettled by rolling the
// pending edit back: the state then describes the parent's file again.
// Restore on a settled state does nothing.
func (e *Evaluator) Restore(state *DeltaState) {
	if !state.pending {
		return
	}
	for i, s := range state.states {
		if s != nil {
			e.slots[i].rev.Undo(s)
		}
	}
	state.pending = false
}

// checkSettled refuses a state that does not fit the evaluator's battery
// or still holds a pending edit.
func (e *Evaluator) checkSettled(state *DeltaState) error {
	if len(state.states) != len(e.slots) {
		return fmt.Errorf("score: delta state has %d measure slots, evaluator has %d",
			len(state.states), len(e.slots))
	}
	if state.pending {
		return fmt.Errorf("score: delta state holds a pending edit; Keep or Restore it first")
	}
	return nil
}
