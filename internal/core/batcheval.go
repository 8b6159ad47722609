package core

// One-offspring evaluation, the engine's offspring route. A generation's
// offspring (one mutant, or two crossover children) are staged first as
// change lists against their parents' files, and each is scored against
// its own parent's file and state through score.EvaluateEdit: each
// measure's delta state (the measure.Reversible contract) advances by the
// change list and is read, touching memory proportional to the edit
// instead of the file. No offspring file exists at that point. Every
// built-in measure, ML utility included, has a state; a custom measure
// without one is recomputed in full inside the same call, and so is every
// wide-edit offspring. Those full recomputes are the only readers of an
// offspring's file, so they are the only place EvaluateEdit builds one,
// and the engine keeps it for the offspring. The initial population
// arrives with the states its set-up scoring was read from
// (score.EvaluateAllPrepared); resumed individuals and wide-edit
// survivors carry none until they first parent a narrow edit.
//
// EvaluateEdit leaves the parent's state holding a narrow offspring's
// edit, still pending. Once replacement has decided, only the survivors
// are handed a file — the parent's with the change list applied, unless
// scoring already built it — and a state: a survivor keeps its parent's
// state (Evaluator.Keep, O(1)) when the parent was evicted, or takes a
// clone of it when the parent lives on. settleStates restores every
// staged parent's state before Step returns, and a losing offspring is
// dropped with no file of its own unless scoring built one. Two offspring
// share a parent only when it was crossed with itself, which changes
// nothing, so a parent's state never holds a sibling's edit: EvaluateEdit
// refuses a narrow edit on a state that is still pending.
//
// A crossover's two children come from distinct parents unless a parent
// was crossed with itself, so the second is scored on its own goroutine
// when Config.EvalWorkers is at least 2. Results are bit-for-bit
// identical to full evaluation of every offspring either way (see the
// oracle tests in batch_equiv_test.go); only allocations and wall-clock
// change.

import (
	"errors"
	"fmt"

	"evoprot/internal/dataset"
)

// ensureState lazily materializes an individual's delta state: resumed
// individuals and wide-edit offspring carry none until they first parent
// a narrow edit.
func (e *Engine) ensureState(ind *Individual) {
	if ind.state != nil {
		return
	}
	st, err := e.eval.Prepare(ind.Data)
	if err != nil {
		panic(fmt.Sprintf("core: preparing delta state: %v", err))
	}
	ind.state = st
}

// evaluateOffspring scores child, derived from parent's file by changes,
// through score.EvaluateEdit. The parent is delta-prepared lazily, only
// when the edit needs the state (narrow and non-empty); a wide edit is
// scored in full without forcing a state build. The evaluation lands in
// child, and so does any file scoring built; child receives no state
// here — commitSurvivor hands files and states to the survivors once the
// tournament has decided, and settleStates restores the rest.
func (e *Engine) evaluateOffspring(parent, child *Individual, changes []dataset.CellChange) (err error) {
	if len(changes) > 0 && !e.eval.WideEdit(changes) {
		e.ensureState(parent)
	}
	child.Eval, child.Data, err = e.eval.EvaluateEdit(parent.Eval, parent.Data, parent.state, changes)
	return err
}

// evaluateStaged scores the generation's n staged offspring: bChildren[i],
// derived from bParents[i]'s file by bChanges[i].
func (e *Engine) evaluateStaged(n int) {
	var err error
	if n == 2 && e.cfg.EvalWorkers >= 2 && e.bParents[0] != e.bParents[1] {
		second := make(chan error, 1)
		go func() { second <- e.evaluateOffspring(e.bParents[1], e.bChildren[1], e.bChanges[1]) }()
		err = errors.Join(e.evaluateOffspring(e.bParents[0], e.bChildren[0], e.bChanges[0]), <-second)
	} else {
		for i := range n {
			err = errors.Join(err, e.evaluateOffspring(e.bParents[i], e.bChildren[i], e.bChanges[i]))
		}
	}
	if err != nil {
		// Offspring are derived from valid individuals by in-domain
		// operators; scoring can only fail on a programming error.
		panic(fmt.Sprintf("core: evaluating offspring: %v", err))
	}
}

// commitSurvivor hands a surviving child its file and delta state, both
// derived from its biological parent's. The file is the parent's with
// changes applied, unless scoring already built it. The state is the
// parent's itself when the parent was evicted by this generation's
// replacement (a zero-allocation transfer), or a clone of it when the
// parent lives on. A narrow edit's state holds the child's pending edit
// and an empty edit's is settled, so either already describes the child:
// Keep commits the pending edit in place, and a clone copies it
// (settleStates restores the parent's). Wide-edit children stay
// state-less and rebuild lazily if they ever reproduce; so do children
// of state-less parents.
func (e *Engine) commitSurvivor(child, parent *Individual, changes []dataset.CellChange, parentEvicted bool) {
	if child.Data == nil {
		child.Data = parent.Data.CloneWith(changes)
	}
	if parent.state == nil || e.eval.WideEdit(changes) {
		return
	}
	if !parentEvicted {
		child.state = parent.state.Clone()
		return
	}
	e.eval.Keep(parent.state)
	child.state, parent.state = parent.state, nil
}

// settleStates restores the staged parents' states, so each describes
// its parent again. A state a survivor took is gone from its parent, and
// Restore on a settled state does nothing.
func (e *Engine) settleStates() {
	for _, p := range e.bParents {
		if p != nil && p.state != nil {
			e.eval.Restore(p.state)
		}
	}
}
