package score

// Generation-batch delta evaluation, the engine's one offspring route.
// The engine's reproduction step scores every offspring of a generation
// before any replacement decision, so the offspring of one parent form a
// natural batch: they all branch from the same delta state. EvaluateBatch
// applies each offspring's change list against the parent's own state
// through the measures' reversible (apply/undo) capability and rolls the
// state back before the next offspring, touching memory proportional to
// the edit instead of to the file. Groups are independent (each owns its
// state), so they shard across a worker pool.
//
// Results are bit-for-bit identical to Evaluate of each child: Undo
// restores states exactly (property-tested per measure), and the battery
// is summed by the same slot walk Evaluate uses.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"evoprot/internal/dataset"
)

// BatchOffspring is one candidate dataset derived from a batch group's
// parent by Changes. Eval is an output: EvaluateBatch fills it in.
type BatchOffspring struct {
	// Child is the offspring dataset — the parent's file with Changes
	// applied.
	Child *dataset.Dataset
	// Changes derives Child from the group's parent file, in order. It
	// is only read during EvaluateBatch, so callers may reuse its
	// backing array.
	Changes []dataset.CellChange
	// Eval receives the offspring's evaluation, bit-identical to
	// Evaluate(Child).
	Eval Evaluation
}

// BatchGroup gathers one parent's offspring for a generation. State is
// advanced and rolled back in place during EvaluateBatch but always
// returned to its incoming value — the group's parent remains a valid
// delta-evaluation ancestor afterwards.
type BatchGroup struct {
	// Parent is the parent's evaluation, returned verbatim for
	// offspring with empty change lists.
	Parent Evaluation
	// State is the parent's delta state; it must describe the file the
	// offspring's Changes start from. Nil-slot measures are recomputed
	// in full per offspring. A nil State is
	// allowed only when no offspring needs one — every change list empty
	// or past the wide-edit break-even point (both are scored without
	// touching the state).
	State *DeltaState
	// Offspring are the candidates to score.
	Offspring []BatchOffspring
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
// into the Offspring[k].Eval fields. Offspring within a group are
// evaluated sequentially against the group's shared state (apply, read,
// undo); distinct groups are independent and are sharded across workers
// goroutines when workers > 1. Each evaluation is bit-for-bit identical
// to Evaluate of the child, and every group's State is restored to its
// incoming value before return.
//
// On error the groups' states are still intact — the per-offspring
// checks run before the state is touched — but Eval fields of offspring
// processed after the failure point are unspecified.
func (e *Evaluator) EvaluateBatch(groups []BatchGroup, workers int) error {
	for g := range groups {
		st := groups[g].State
		if st == nil {
			continue // checked per offspring: only narrow edits need a state
		}
		if len(st.states) != len(e.slots) {
			return fmt.Errorf("score: batch group %d state has %d measure slots, evaluator has %d",
				g, len(st.states), len(e.slots))
		}
	}
	if workers > len(groups) {
		workers = len(groups)
	}
	if workers <= 1 || len(groups) <= 1 {
		for g := range groups {
			if err := e.evaluateGroup(&groups[g]); err != nil {
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
	return first
}

// evaluateGroup scores one group's offspring against its shared state.
func (e *Evaluator) evaluateGroup(grp *BatchGroup) error {
	st := grp.State
	for k := range grp.Offspring {
		off := &grp.Offspring[k]
		if off.Child == nil {
			return fmt.Errorf("score: nil child dataset in batch offspring")
		}
		if off.Child.Rows() != e.orig.Rows() || off.Child.Cols() != e.orig.Cols() {
			return fmt.Errorf("score: child dataset is %dx%d, original is %dx%d",
				off.Child.Rows(), off.Child.Cols(), e.orig.Rows(), e.orig.Cols())
		}
		if err := e.validateChanges(off.Child, off.Changes); err != nil {
			return err
		}
		if len(off.Changes) == 0 {
			off.Eval = grp.Parent
			continue
		}
		if e.WideEdit(off.Changes) {
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
		off.Eval = e.evaluation(func(i int) float64 {
			s := st.states[i]
			if s == nil {
				return e.slots[i].full(e.orig, off.Child, e.attrs)
			}
			v := e.slots[i].rev.ApplyUndo(s, off.Changes)
			e.slots[i].rev.Undo(s)
			return v
		})
	}
	return nil
}

// Advance commits changes into state in place: every slot is advanced by
// the change list (disarming any pending undo). It is the zero-allocation
// way to promote a winning offspring's evaluation into a reusable delta
// state when the parent's state is no longer needed. The same validation
// as EvaluateBatch applies; child is the dataset the changes produce.
//
// Advance refuses wide edits: past the incremental break-even point
// callers should drop the state and re-Prepare lazily, should the wide
// offspring ever reproduce.
func (e *Evaluator) Advance(state *DeltaState, child *dataset.Dataset, changes []dataset.CellChange) error {
	if state == nil {
		return fmt.Errorf("score: nil delta state")
	}
	if child == nil {
		return fmt.Errorf("score: nil child dataset")
	}
	if len(state.states) != len(e.slots) {
		return fmt.Errorf("score: delta state has %d measure slots, evaluator has %d",
			len(state.states), len(e.slots))
	}
	if e.WideEdit(changes) {
		return fmt.Errorf("score: Advance over a wide edit (%d changes); re-Prepare instead", len(changes))
	}
	if err := e.validateChanges(child, changes); err != nil {
		return err
	}
	for i, s := range state.states {
		if s != nil {
			e.slots[i].rev.Apply(s, changes)
		}
	}
	return nil
}
