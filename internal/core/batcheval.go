package core

// Generation-batch offspring evaluation, the engine's one offspring
// route. A generation's offspring are staged first, grouped by parent,
// and each group is scored against the parent's own state through
// score.EvaluateBatch: each measure's delta state (the measure.Reversible
// contract) advances by the change list, is read, and rolls back,
// touching memory proportional to the edit instead of the file. A measure
// without a state (such as ML utility) is recomputed in full per
// offspring inside the same call, and so is every wide-edit offspring.
// The initial population arrives with the states its set-up scoring was
// read from (score.EvaluateAllPrepared); resumed individuals and wide-edit
// survivors carry none until they first parent a narrow edit. Only the
// offspring that actually survive replacement are handed a state
// afterwards — the evicted parent's own state advanced in place when
// possible, a clone otherwise.
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

// batchEvaluateGeneration scores children[i] (derived from parents[i] by
// changes[i]) in one score.EvaluateBatch call. Offspring of the same
// parent — adjacent in the slices; a generation has at most two
// offspring — share one group and therefore one state. Parents are
// delta-prepared lazily, but only when one of their offspring actually
// needs the state (narrow, non-empty edits); wide-edit offspring are
// fully evaluated inside the batch without forcing a state build.
// Evaluations land in the children; no child receives a state here —
// commitBatchState hands states to the survivors once the tournament has
// decided.
func (e *Engine) batchEvaluateGeneration(parents, children []*Individual, changes [][]dataset.CellChange) {
	offs := e.bOffs[:0]
	for i, c := range children {
		offs = append(offs, score.BatchOffspring{Child: c.Data, Changes: changes[i]})
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
		c.Eval = offs[i].Eval
	}
	e.bOffs, e.bGroups = offs, groups // keep grown capacity for later steps
}

// commitBatchState hands a surviving child its delta state: the
// biological parent's own state advanced in place when the parent was
// evicted by this generation's replacement (a zero-allocation transfer),
// or a clone of it when the parent lives on. Wide-edit children stay
// state-less and rebuild lazily if they ever reproduce; so do children of
// state-less parents.
func (e *Engine) commitBatchState(child, parent *Individual, changes []dataset.CellChange, parentEvicted bool) {
	if parent.state == nil || e.eval.WideEdit(changes) {
		return
	}
	st := parent.state
	if parentEvicted {
		parent.state = nil // transferred; the evicted parent is garbage
	} else {
		st = st.Clone()
	}
	if err := e.eval.Advance(st, child.Data, changes); err != nil {
		panic(fmt.Sprintf("core: committing %s offspring state: %v", child.Origin, err))
	}
	child.state = st
}
