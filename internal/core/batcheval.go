package core

// Generation-batch offspring evaluation, the engine's one offspring
// route. A generation's offspring are staged first as change lists
// against their parents' files, grouped by parent, and each group is
// scored against the parent's own file and state through
// score.EvaluateBatch: each measure's delta state (the measure.Reversible
// contract) advances by the change list and is read, touching memory
// proportional to the edit instead of the file. No offspring file exists
// at that point. Every built-in measure, ML utility included, has a
// state; a custom measure without one is recomputed in full per
// offspring inside the same call, and so is every wide-edit offspring.
// Those full recomputes are the only readers of an offspring's file, so
// they are the only place EvaluateBatch builds one, and the engine keeps
// it for the offspring. The initial population arrives with
// the states its set-up scoring was read from
// (score.EvaluateAllPrepared); resumed individuals and wide-edit
// survivors carry none until they first parent a narrow edit.
//
// EvaluateBatch leaves each parent's state holding its last narrow
// offspring's edit, still pending. Once replacement has decided, only the
// survivors are handed a file — the parent's with the change list
// applied, unless scoring already built it — and a state: a survivor
// keeps its parent's state (Evaluator.Keep, O(1)) when the parent was
// evicted, or takes a clone of it when the parent lives on. The state
// then holds the survivor's own pending edit, or is settled when the
// survivor's change list is empty — the only way two offspring share a
// parent is a crossover of an individual with itself, which changes
// nothing. Every state still pending is restored before Step returns, and
// a losing offspring is dropped with no file of its own unless scoring
// built one.
//
// A crossover generation's two parent groups are independent, so they
// shard across Config.EvalWorkers workers. Results are bit-for-bit
// identical to full evaluation of every offspring at any width (see the
// oracle tests in batch_equiv_test.go); only allocations and wall-clock
// change.

import (
	"fmt"

	"evoprot/internal/dataset"
	"evoprot/internal/score"
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

// pendingEdit is a parent whose delta state EvaluateBatch left holding
// child's edit; parent is nil once the state is settled.
type pendingEdit struct{ parent, child *Individual }

// batchEvaluateGeneration scores children[i] (derived from parents[i]'s
// file by changes[i]) in one score.EvaluateBatch call. Offspring of the same
// parent — adjacent in the slices; a generation has at most two
// offspring — share one group and therefore one state. Parents are
// delta-prepared lazily, but only when one of their offspring actually
// needs the state (narrow, non-empty edits); wide-edit offspring are
// fully evaluated inside the batch without forcing a state build.
// Evaluations land in the children, and so does any file the batch built;
// no child receives a state here — commitSurvivor hands files and states
// to the survivors once the tournament has decided, and settleStates
// restores the rest.
func (e *Engine) batchEvaluateGeneration(parents, children []*Individual, changes [][]dataset.CellChange) {
	offs := e.bOffs[:0]
	for i := range children {
		offs = append(offs, score.BatchOffspring{Changes: changes[i]})
	}
	groups := e.bGroups[:0]
	for i := 0; i < len(children); {
		j := i + 1
		for j < len(children) && parents[j] == parents[i] {
			j++
		}
		needState := false
		for k := i; k < j; k++ {
			if len(changes[k]) > 0 && !e.eval.WideEdit(changes[k]) {
				needState = true
			}
		}
		if needState {
			e.ensureState(parents[i])
		}
		groups = append(groups, score.BatchGroup{
			Parent:    parents[i].Eval,
			File:      parents[i].Data,
			State:     parents[i].state,
			Offspring: offs[i:j],
		})
		i = j
	}
	if err := e.eval.EvaluateBatch(groups, e.cfg.EvalWorkers); err != nil {
		// Offspring are derived from valid individuals by in-domain
		// operators; batch evaluation can only fail on a programming error.
		panic(fmt.Sprintf("core: batch-evaluating offspring: %v", err))
	}
	for i, c := range children {
		c.Eval, c.Data = offs[i].Eval, offs[i].Child
	}
	first := 0
	for _, grp := range groups {
		if grp.Pending >= 0 {
			e.bPending = append(e.bPending, pendingEdit{parents[first], children[first+grp.Pending]})
		}
		first += len(grp.Offspring)
	}
	e.bOffs, e.bGroups = offs, groups // keep grown capacity for later steps
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
// of state-less parents. A parent's state never holds a
// sibling's edit: two offspring share a parent only when it was crossed
// with itself, which leaves both change lists empty.
func (e *Engine) commitSurvivor(child, parent *Individual, changes []dataset.CellChange, parentEvicted bool) {
	if child.Data == nil {
		child.Data = parent.Data.CloneWith(changes)
	}
	if parent.state == nil || e.eval.WideEdit(changes) {
		return
	}
	p := e.pendingOf(parent)
	if p != nil && p.child != child {
		panic(fmt.Sprintf("core: %s offspring's parent state holds a sibling's pending edit", child.Origin))
	}
	if !parentEvicted {
		child.state = parent.state.Clone()
		return
	}
	e.eval.Keep(parent.state)
	if p != nil {
		p.parent = nil
	}
	child.state, parent.state = parent.state, nil
}

// pendingOf returns the unsettled pending edit of parent's state, or nil.
func (e *Engine) pendingOf(parent *Individual) *pendingEdit {
	for k := range e.bPending {
		if e.bPending[k].parent == parent {
			return &e.bPending[k]
		}
	}
	return nil
}

// settleStates restores every state still holding a pending edit, so
// each parent's state describes the parent again.
func (e *Engine) settleStates() {
	for _, p := range e.bPending {
		if p.parent != nil {
			e.eval.Restore(p.parent.state)
		}
	}
	e.bPending = e.bPending[:0]
}
