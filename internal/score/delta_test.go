package score

import (
	"math/rand/v2"
	"testing"

	"evoprot/internal/datagen"
	"evoprot/internal/datagen/datagentest"
	"evoprot/internal/dataset"
	"evoprot/internal/dataset/datasettest"
	"evoprot/internal/infoloss"
	"evoprot/internal/risk"
)

func deltaTestEvaluator(t *testing.T) (*Evaluator, *dataset.Dataset) {
	t.Helper()
	orig := datagentest.MustByName("german", 150, 61)
	names, _ := datagen.ProtectedAttrs("german")
	attrs, err := orig.Schema().Indices(names...)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := NewEvaluator(orig, attrs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return eval, orig
}

// applyRandomChanges draws a batch of in-domain cell changes, applies them
// to masked, and returns the batch.
func applyRandomChanges(rng *rand.Rand, masked *dataset.Dataset, attrs []int, batch int) []dataset.CellChange {
	changes := make([]dataset.CellChange, 0, batch)
	for len(changes) < batch {
		changes = append(changes, datasettest.RandomChange(rng, masked, attrs))
	}
	return changes
}

func mustPrepare(t *testing.T, eval *Evaluator, masked *dataset.Dataset) *DeltaState {
	t.Helper()
	st, err := eval.Prepare(masked)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func requireIdentical(t *testing.T, context string, got, want Evaluation) {
	t.Helper()
	if got.Score != want.Score || got.IL != want.IL || got.DR != want.DR {
		t.Fatalf("%s: delta (IL=%v DR=%v Score=%v) != full (IL=%v DR=%v Score=%v)",
			context, got.IL, got.DR, got.Score, want.IL, want.DR, want.Score)
	}
	if len(got.ILParts) != len(want.ILParts) || len(got.DRParts) != len(want.DRParts) {
		t.Fatalf("%s: parts map sizes differ", context)
	}
	for k, v := range want.ILParts {
		if got.ILParts[k] != v {
			t.Fatalf("%s: ILParts[%s] = %v, want %v", context, k, got.ILParts[k], v)
		}
	}
	for k, v := range want.DRParts {
		if got.DRParts[k] != v {
			t.Fatalf("%s: DRParts[%s] = %v, want %v", context, k, got.DRParts[k], v)
		}
	}
}

// deltaEvaluate scores the offspring changes derive from file — the file
// st describes — through EvaluateEdit, leaving st describing file.
func deltaEvaluate(eval *Evaluator, parent Evaluation, st *DeltaState, file *dataset.Dataset, changes []dataset.CellChange) (Evaluation, error) {
	ev, _, err := eval.EvaluateEdit(parent, file, st, changes)
	if st != nil {
		eval.Restore(st)
	}
	return ev, err
}

// commitEvaluate scores an offspring like deltaEvaluate but commits it
// the way the engine commits a survivor: Keep leaves st describing the
// offspring's file, unless the edit was wide, which never touches st.
func commitEvaluate(eval *Evaluator, parent Evaluation, st *DeltaState, file *dataset.Dataset, changes []dataset.CellChange) (Evaluation, error) {
	ev, _, err := eval.EvaluateEdit(parent, file, st, changes)
	eval.Keep(st)
	return ev, err
}

// TestEvaluateDeltaMatchesEvaluate is the core equivalence property: over
// long randomized change chains — small batches (the incremental path) and
// wide batches (the full-evaluation path) — EvaluateEdit's evaluations
// must equal a fresh Evaluate bit-for-bit, parts maps included. Each step
// commits the child as the next parent the way the engine does: Keep
// for narrow edits, a fresh Prepare after a wide one.
func TestEvaluateDeltaMatchesEvaluate(t *testing.T) {
	for _, seed := range []uint64{3, 29, 127} {
		eval, orig := deltaTestEvaluator(t)
		attrs := eval.Attrs()
		rng := rand.New(rand.NewPCG(seed, 7))

		masked := orig.Clone()
		applyRandomChanges(rng, masked, attrs, 40)
		st := mustPrepare(t, eval, masked)
		ev, err := eval.Evaluate(masked)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 25; step++ {
			batch := 1 + rng.IntN(3)
			if step%7 == 6 {
				batch = orig.Rows() // force the wide-edit full evaluation
			}
			file := masked.Clone()
			changes := applyRandomChanges(rng, masked, attrs, batch)
			got, err := commitEvaluate(eval, ev, st, file, changes)
			if err != nil {
				t.Fatal(err)
			}
			want, err := eval.Evaluate(masked)
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, "step", got, want)
			if eval.WideEdit(changes) {
				st = mustPrepare(t, eval, masked)
			}
			ev = got
		}
	}
}

// TestEvaluateDeltaLeavesParentStateIntact checks the branching contract:
// evaluating an offspring must not corrupt the parent's state.
func TestEvaluateDeltaLeavesParentStateIntact(t *testing.T) {
	eval, orig := deltaTestEvaluator(t)
	attrs := eval.Attrs()
	rng := rand.New(rand.NewPCG(9, 13))

	parentData := orig.Clone()
	applyRandomChanges(rng, parentData, attrs, 30)
	parentState := mustPrepare(t, eval, parentData)
	parentEval, err := eval.Evaluate(parentData)
	if err != nil {
		t.Fatal(err)
	}
	// Spawn several divergent offspring from the same parent state; each
	// one after the first also proves the state rolled back.
	for k := 0; k < 5; k++ {
		child := parentData.Clone()
		changes := applyRandomChanges(rng, child, attrs, 2)
		got, err := deltaEvaluate(eval, parentEval, parentState, parentData, changes)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := eval.Evaluate(child)
		requireIdentical(t, "offspring", got, want)
	}
	// The parent state must still describe parentData exactly: committing
	// it forward matches a state prepared from scratch.
	child := parentData.Clone()
	changes := applyRandomChanges(rng, child, attrs, 1)
	fresh := mustPrepare(t, eval, parentData)
	if _, err := commitEvaluate(eval, parentEval, parentState, parentData, changes); err != nil {
		t.Fatal(err)
	}
	if _, err := commitEvaluate(eval, parentEval, fresh, parentData, changes); err != nil {
		t.Fatal(err)
	}
	grand := child.Clone()
	gchanges := applyRandomChanges(rng, grand, attrs, 2)
	ce, _ := eval.Evaluate(child)
	got, err := deltaEvaluate(eval, ce, parentState, child, gchanges)
	if err != nil {
		t.Fatal(err)
	}
	want, err := deltaEvaluate(eval, ce, fresh, child, gchanges)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "parent after offspring", got, want)
}

// TestEvaluateDeltaEmptyChanges returns the parent evaluation unchanged,
// builds no file and leaves the state settled.
func TestEvaluateDeltaEmptyChanges(t *testing.T) {
	eval, orig := deltaTestEvaluator(t)
	masked := orig.Clone()
	st := mustPrepare(t, eval, masked)
	ev, err := eval.Evaluate(masked)
	if err != nil {
		t.Fatal(err)
	}
	got, built, err := eval.EvaluateEdit(ev, masked, st, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.pending {
		t.Fatal("an empty change list left the state unsettled")
	}
	requireIdentical(t, "empty changes", got, ev)
	if built != nil {
		t.Fatal("an empty change list built the offspring's file")
	}
}

// TestEvaluateDeltaErrors covers the argument contract of EvaluateEdit:
// every rejected call leaves the state scoring like the parent.
func TestEvaluateDeltaErrors(t *testing.T) {
	eval, orig := deltaTestEvaluator(t)
	masked := orig.Clone()
	st := mustPrepare(t, eval, masked)
	ev, _ := eval.Evaluate(masked)
	attrs := eval.Attrs()
	// col has at least three categories, so a wrong Old value exists
	// that is neither the file's value nor New.
	col := -1
	for _, c := range attrs {
		if orig.Schema().Attr(c).Cardinality() >= 3 {
			col = c
			break
		}
	}
	if col < 0 {
		t.Fatal("no protected attribute with three categories")
	}
	card := orig.Schema().Attr(col).Cardinality()
	old := masked.At(0, col)
	narrow := []dataset.CellChange{{Row: 0, Col: col, Old: old, New: (old + 1) % card}}

	if _, err := deltaEvaluate(eval, ev, st, nil, nil); err == nil {
		t.Error("nil file accepted")
	}
	if _, err := deltaEvaluate(eval, ev, nil, masked, narrow); err == nil {
		t.Error("nil state accepted for a narrow edit")
	}
	small := dataset.New(orig.Schema(), orig.Rows()-1)
	if _, err := deltaEvaluate(eval, ev, st, small, nil); err == nil {
		t.Error("shape mismatch accepted")
	}
	if _, err := deltaEvaluate(eval, ev, &DeltaState{}, masked, narrow); err == nil {
		t.Error("foreign state shape accepted")
	}
	unprotected := -1
	for c := 0; c < orig.Cols(); c++ {
		if !slicesContain(attrs, c) {
			unprotected = c
			break
		}
	}
	if unprotected >= 0 {
		bad := []dataset.CellChange{{Row: 0, Col: unprotected, Old: 0, New: 0}}
		if _, err := deltaEvaluate(eval, ev, st, masked, bad); err == nil {
			t.Error("change on unprotected column accepted")
		}
	}
	oob := []dataset.CellChange{{Row: orig.Rows(), Col: col, Old: 0, New: 1}}
	if _, err := deltaEvaluate(eval, ev, st, masked, oob); err == nil {
		t.Error("out-of-range change row accepted")
	}
	badVal := []dataset.CellChange{{Row: 0, Col: col, Old: old, New: card}}
	if _, err := deltaEvaluate(eval, ev, st, masked, badVal); err == nil {
		t.Error("out-of-domain change value accepted")
	}
	// A diff taken in the wrong direction must be rejected, not silently
	// corrupt the state: its first edit does not start from the file.
	swapped := []dataset.CellChange{{Row: 0, Col: col, Old: (old + 1) % card, New: old}}
	if _, err := deltaEvaluate(eval, ev, st, masked, swapped); err == nil {
		t.Error("swapped Old/New change list accepted")
	}
	// The right New value from the wrong Old value: a list taken against
	// another file. The states would patch a count the file never had.
	wrongOld := []dataset.CellChange{{Row: 0, Col: col, Old: (old + 2) % card, New: (old + 1) % card}}
	if _, err := deltaEvaluate(eval, ev, st, masked, wrongOld); err == nil {
		t.Error("change list with an Old value the file does not hold accepted")
	}
	// The same past the in-place scan's length limit (the map route):
	// valid single edits of distinct rows, then the wrong Old.
	long := make([]dataset.CellChange, 0, replayScanLimit+2)
	for r := 1; len(long) <= replayScanLimit; r++ {
		v := masked.At(r, col)
		long = append(long, dataset.CellChange{Row: r, Col: col, Old: v, New: (v + 1) % card})
	}
	if eval.WideEdit(long) {
		t.Fatal("the long list must stay narrow")
	}
	if _, err := deltaEvaluate(eval, ev, st, masked, append(long, wrongOld...)); err == nil {
		t.Error("long change list with an Old value the file does not hold accepted")
	}
	// A per-cell chain whose second edit does not start where the first
	// ended (a merged list from different ancestors) must be rejected.
	broken := []dataset.CellChange{
		{Row: 0, Col: col, Old: old, New: (old + 1) % card},
		{Row: 0, Col: col, Old: (old + 2) % card, New: old},
	}
	if _, err := deltaEvaluate(eval, ev, st, masked, broken); err == nil {
		t.Error("broken per-cell change chain accepted")
	}
	if _, err := deltaEvaluate(eval, ev, st, masked, append(long, broken...)); err == nil {
		t.Error("long broken per-cell change chain accepted")
	}
	// The state survived every rejected call intact.
	got, err := deltaEvaluate(eval, ev, st, masked, narrow)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := eval.Evaluate(masked.CloneWith(narrow))
	requireIdentical(t, "after rejected calls", got, want)
	// Prepare mirrors Evaluate's argument validation.
	if _, err := eval.Prepare(nil); err == nil {
		t.Error("Prepare accepted a nil dataset")
	}
	if _, err := eval.Prepare(dataset.New(orig.Schema(), orig.Rows()-1)); err == nil {
		t.Error("Prepare accepted a wrong-shaped dataset")
	}
}

func slicesContain(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// TestEvaluateDeltaWithNonIncrementalBattery: measures without a
// reversible state — a plain Measure, and one implementing only the
// Prepare/Apply half — get nil slots and are recomputed in full for
// every offspring, bit-identical to Evaluate.
func TestEvaluateDeltaWithNonIncrementalBattery(t *testing.T) {
	_, orig := deltaTestEvaluator(t)
	names, _ := datagen.ProtectedAttrs("german")
	attrs, _ := orig.Schema().Indices(names...)
	il := infoloss.Default()
	il[0] = incOnly{il[0].(infoloss.Incremental)}
	for _, tc := range []struct {
		cfg     Config
		nilSlot int // the slot, IL measures first, Prepare must leave nil
	}{
		{cfg: Config{DR: []risk.Measure{&RankOnly{}}}, nilSlot: len(infoloss.Default())},
		{cfg: Config{IL: il}, nilSlot: 0},
	} {
		eval, err := NewEvaluator(orig, attrs, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(21, 17))
		masked := orig.Clone()
		applyRandomChanges(rng, masked, attrs, 10)
		st := mustPrepare(t, eval, masked)
		if len(st.states) != len(eval.slots) {
			t.Fatalf("state has %d slots, evaluator %d", len(st.states), len(eval.slots))
		}
		for i, slot := range st.states {
			if (slot == nil) != (i == tc.nilSlot) {
				t.Fatalf("slot %d: nil=%v, want nil only at %d", i, slot == nil, tc.nilSlot)
			}
		}
		ev, err := eval.Evaluate(masked)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 8; step++ {
			file := masked.Clone()
			changes := applyRandomChanges(rng, masked, attrs, 1)
			got, err := commitEvaluate(eval, ev, st, file, changes)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := eval.Evaluate(masked)
			requireIdentical(t, "fallback battery", got, want)
			ev = got
		}
	}
}

// incOnly exposes only the Prepare/Apply half of a measure's state
// capability: without ApplyUndo/Undo an evaluator builds it no slot.
type incOnly struct{ infoloss.Incremental }

// RankOnly is a tiny non-incremental test measure wrapping RSRL's full
// Risk with a fixed window: it implements only risk.Measure, keeping the
// pure-fallback routing covered now that every default measure is
// incremental.
type RankOnly struct{}

// Name implements risk.Measure.
func (RankOnly) Name() string { return "rank-only" }

// Risk implements risk.Measure.
func (RankOnly) Risk(orig, masked *dataset.Dataset, attrs []int) float64 {
	rl := risk.RankIntervalLinkage{P: 10}
	return rl.Risk(orig, masked, attrs)
}
