package score

// Generation-batch delta evaluation, the engine's one offspring route.
// The engine's reproduction step scores every offspring of a generation
// before any replacement decision, so the offspring of one parent form a
// natural batch: they all branch from the same file and delta state. An
// offspring is that file plus a change list; EvaluateBatch applies the
// list against the parent's own state through the measures' reversible
// (apply/undo) capability, touching memory proportional to the edit
// instead of to the file, and rolls the state back before the next
// offspring. No offspring file is built unless scoring reads one — a
// wide edit, or a measure without a state — and then at most once
// (BatchOffspring.Child), so the caller can keep it for a survivor. The
// last narrow offspring's edit stays pending (BatchGroup.Pending): once
// replacement has decided, Keep commits it in O(1) when that offspring
// inherits the state, and Restore rolls it back otherwise, so a winner
// is never patched twice. Groups are independent (each owns its state
// and only reads its file), so they shard across a worker pool.
//
// Results are bit-for-bit identical to Evaluate of each child: Undo
// restores states exactly (property-tested per measure), a kept edit
// leaves a state that scores like one prepared from the child, and the
// battery is summed by the same slot walk Evaluate uses.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"evoprot/internal/dataset"
)

// BatchOffspring is one candidate derived from its batch group's File by
// Changes. Child and Eval are outputs: EvaluateBatch fills them in.
type BatchOffspring struct {
	// Changes derives the offspring from the group's File, in order. It
	// is only read during EvaluateBatch, so callers may reuse its backing
	// array.
	Changes []dataset.CellChange
	// Child receives the offspring's file — File.CloneWith(Changes) —
	// when scoring needed it: a wide edit, or a measure without a state.
	// It is nil otherwise; any incoming value is ignored.
	Child *dataset.Dataset
	// Eval receives the offspring's evaluation, bit-identical to
	// Evaluate of File.CloneWith(Changes).
	Eval Evaluation
}

// BatchGroup gathers one parent's offspring for a generation. State is
// advanced and rolled back in place during EvaluateBatch, which leaves it
// unsettled when Pending is set: it then describes that offspring's file
// until Keep or Restore settles it, and Restore returns it to its
// incoming value. File is only read, so groups may share one.
type BatchGroup struct {
	// Parent is the parent's evaluation, returned verbatim for
	// offspring with empty change lists.
	Parent Evaluation
	// File is the parent's file: the one State describes and every
	// offspring's Changes start from. It is required.
	File *dataset.Dataset
	// State is the parent's delta state. Nil-slot measures are
	// recomputed in full per offspring. A nil State is allowed only when
	// no offspring needs one — every change list empty or past the
	// wide-edit break-even point (both are scored without touching the
	// state).
	State *DeltaState
	// Offspring are the candidates to score.
	Offspring []BatchOffspring
	// Pending is an output: the index in Offspring of the offspring
	// whose edit State still holds, the last one scored through the
	// state, or -1 when the state is settled (no offspring needed it).
	Pending int
}

// Batchable reports whether every configured measure supports reversible
// delta evaluation, i.e. whether EvaluateBatch scores narrow edits without
// any full recompute. It is informational: EvaluateBatch works either way,
// recomputing a measure without the capability in full per offspring.
func (e *Evaluator) Batchable() bool {
	for _, s := range e.slots {
		if s.rev == nil {
			return false
		}
	}
	return true
}

// EvaluateBatch scores every offspring of every group, writing results
// into the Offspring[k].Eval and Child fields and each group's Pending.
// Offspring within a group are evaluated sequentially against the
// group's shared state (apply, read, and undo before the next); distinct
// groups are independent and are sharded across workers goroutines when
// workers > 1. Each evaluation is bit-for-bit identical to Evaluate of
// the child. Every group's File must match the original's shape. A
// group's State is left unsettled, holding the edit of offspring
// Pending, when Pending is not -1; the caller must Keep or Restore it
// before the state is used again. Unsettled incoming states are refused.
//
// On error every group's state is settled at its incoming value and
// every Pending is -1, but Eval and Child fields of offspring processed
// after the failure point are unspecified.
func (e *Evaluator) EvaluateBatch(groups []BatchGroup, workers int) error {
	for g := range groups {
		groups[g].Pending = -1
		if err := e.checkShape(groups[g].File); err != nil {
			return fmt.Errorf("score: batch group %d file: %w", g, err)
		}
		st := groups[g].State
		if st == nil {
			continue // checked per offspring: only narrow edits need a state
		}
		if err := e.checkSettled(st); err != nil {
			return fmt.Errorf("score: batch group %d: %w", g, err)
		}
	}
	if workers > len(groups) {
		workers = len(groups)
	}
	if workers <= 1 || len(groups) <= 1 {
		for g := range groups {
			if err := e.evaluateGroup(&groups[g]); err != nil {
				e.restoreAll(groups)
				return err
			}
		}
		return nil
	}
	var (
		next    atomic.Int64
		firstMu sync.Mutex
		first   error
		wg      sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				g := int(next.Add(1)) - 1
				if g >= len(groups) {
					return
				}
				if err := e.evaluateGroup(&groups[g]); err != nil {
					firstMu.Lock()
					if first == nil {
						first = err
					}
					firstMu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	if first != nil {
		e.restoreAll(groups)
	}
	return first
}

// restoreAll settles every group's state at its incoming value.
func (e *Evaluator) restoreAll(groups []BatchGroup) {
	for g := range groups {
		if groups[g].Pending >= 0 {
			e.Restore(groups[g].State)
			groups[g].Pending = -1
		}
	}
}

// evaluateGroup scores one group's offspring against its shared state,
// leaving the last narrow offspring's edit pending.
func (e *Evaluator) evaluateGroup(grp *BatchGroup) error {
	st := grp.State
	for k := range grp.Offspring {
		off := &grp.Offspring[k]
		off.Child = nil
		if err := e.validateChanges(grp.File, off.Changes); err != nil {
			return err
		}
		if len(off.Changes) == 0 {
			off.Eval = grp.Parent
			continue
		}
		if e.WideEdit(off.Changes) {
			off.Child = grp.File.CloneWith(off.Changes)
			ev, err := e.Evaluate(off.Child)
			if err != nil {
				return err
			}
			off.Eval = ev
			continue
		}
		if st == nil {
			return fmt.Errorf("score: batch group with a narrow-edit offspring has nil delta state")
		}
		if grp.Pending >= 0 {
			e.Restore(st)
		}
		off.Eval = e.evaluation(func(i int) float64 {
			s := st.states[i]
			if s == nil {
				if off.Child == nil {
					off.Child = grp.File.CloneWith(off.Changes)
				}
				return e.slots[i].full(e.orig, off.Child, e.attrs)
			}
			return e.slots[i].rev.ApplyUndo(s, off.Changes)
		})
		grp.Pending, st.pending = k, true
	}
	return nil
}

// Keep settles a state EvaluateBatch left unsettled by committing the
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

// Restore settles a state EvaluateBatch left unsettled by rolling the
// pending edit back: the state then describes the group's parent again.
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
		return fmt.Errorf("delta state has %d measure slots, evaluator has %d",
			len(state.states), len(e.slots))
	}
	if state.pending {
		return fmt.Errorf("delta state holds a pending edit; Keep or Restore it first")
	}
	return nil
}
