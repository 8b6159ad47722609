package score

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"evoprot/internal/datagen"
	"evoprot/internal/datagen/datagentest"
	"evoprot/internal/dataset"
	"evoprot/internal/risk"
)

// family is one parent's file, evaluation and delta state with the
// change lists of its offspring.
type family struct {
	file      *dataset.Dataset
	eval      Evaluation
	state     *DeltaState
	offspring [][]dataset.CellChange
}

// buildFamilies derives a random generation from parents: every parent
// gets a mix of offspring — ordinary narrow edits, the occasional empty
// change list (a cloned survivor) and the occasional wide edit (a
// crossover window past the rebuild break-even point).
func buildFamilies(t *testing.T, eval *Evaluator, rng *rand.Rand, parents []*dataset.Dataset, attrs []int, offspringPer int) []family {
	t.Helper()
	fams := make([]family, len(parents))
	for g, p := range parents {
		pe, err := eval.Evaluate(p)
		if err != nil {
			t.Fatal(err)
		}
		fams[g] = family{file: p, eval: pe, state: mustPrepare(t, eval, p)}
		for k := 0; k < offspringPer; k++ {
			child := p.Clone() // scratch: the draws chain on it
			var changes []dataset.CellChange
			switch {
			case k == 1:
				// cloned survivor: no edits
			case k == 2:
				// wide edit: past the incremental break-even point
				changes = applyRandomChanges(rng, child, attrs, eval.Orig().Rows()/2+1)
			default:
				changes = applyRandomChanges(rng, child, attrs, 1+rng.IntN(4))
			}
			fams[g].offspring = append(fams[g].offspring, changes)
		}
	}
	return fams
}

// scoreFamily scores f's offspring in order through EvaluateEdit,
// restoring f's state after each, and requires every evaluation to equal
// a full Evaluate of the child built from f's file bit for bit.
func scoreFamily(t *testing.T, eval *Evaluator, f *family, context string) []Evaluation {
	t.Helper()
	evs := make([]Evaluation, len(f.offspring))
	for k, changes := range f.offspring {
		ctx := fmt.Sprintf("%s offspring %d", context, k)
		ev, built, err := eval.EvaluateEdit(f.eval, f.file, f.state, changes)
		if err != nil {
			t.Fatalf("%s: EvaluateEdit: %v", ctx, err)
		}
		eval.Restore(f.state)
		requireOffspring(t, eval, f, changes, ev, built, ctx)
		evs[k] = ev
	}
	return evs
}

// requireOffspring checks one scored offspring against Evaluate of its
// child built by CloneWith. It also pins when EvaluateEdit builds the
// child itself: for every wide edit, and for a narrow one only when some
// measure has no state; the file it built must be that child.
func requireOffspring(t *testing.T, eval *Evaluator, f *family, changes []dataset.CellChange, got Evaluation, built *dataset.Dataset, context string) {
	t.Helper()
	child := f.file.CloneWith(changes)
	want, err := eval.Evaluate(child)
	if err != nil {
		t.Fatalf("%s: Evaluate: %v", context, err)
	}
	requireIdentical(t, context, got, want)
	nilSlot := f.state == nil || slices.Contains(f.state.states, nil)
	needed := len(changes) > 0 && (eval.WideEdit(changes) || nilSlot)
	if (built != nil) != needed {
		t.Fatalf("%s: built child: %v, want %v", context, built != nil, needed)
	}
	if built != nil && !built.Equal(child) {
		t.Fatalf("%s: the child EvaluateEdit built is not the parent's file with the changes applied", context)
	}
}

func TestEvaluateBatchMatchesEvaluate(t *testing.T) {
	eval, orig := deltaTestEvaluator(t)
	names, _ := datagen.ProtectedAttrs("german")
	attrs, _ := orig.Schema().Indices(names...)
	for _, seed := range []uint64{1, 4} {
		rng := rand.New(rand.NewPCG(97, seed))
		parents := make([]*dataset.Dataset, 5)
		for i := range parents {
			p := orig.Clone()
			applyRandomChanges(rng, p, attrs, 10+rng.IntN(20))
			parents[i] = p
		}
		fams := buildFamilies(t, eval, rng, parents, attrs, 4)
		for g := range fams {
			scoreFamily(t, eval, &fams[g], fmt.Sprintf("default battery, family %d", g))
		}

		// States stay valid ancestors after scoring: evaluate a fresh
		// child per family through the (rolled-back) state and compare
		// against a from-scratch evaluation.
		for g := range fams {
			child := parents[g].Clone()
			changes := applyRandomChanges(rng, child, attrs, 3)
			got, err := deltaEvaluate(eval, fams[g].eval, fams[g].state, parents[g], changes)
			if err != nil {
				t.Fatal(err)
			}
			want, err := eval.Evaluate(child)
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, "post-scoring state reuse", got, want)
		}
	}
}

// TestEvaluateBatchFallbackBattery runs the equivalence over a battery
// containing a measure with no incremental support at all (the
// per-offspring full-recompute routing next to the delta states).
func TestEvaluateBatchFallbackBattery(t *testing.T) {
	orig := datagentest.MustByName("flare", 90, 11)
	names, _ := datagen.ProtectedAttrs("flare")
	attrs, err := orig.Schema().Indices(names...)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := NewEvaluator(orig, attrs, Config{DR: []risk.Measure{
		&risk.IntervalDisclosure{MaxP: 10},
		&RankOnly{},
	}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(5, 23))
	parents := make([]*dataset.Dataset, 3)
	for i := range parents {
		p := orig.Clone()
		applyRandomChanges(rng, p, attrs, 15)
		parents[i] = p
	}
	fams := buildFamilies(t, eval, rng, parents, attrs, 3)
	for g := range fams {
		scoreFamily(t, eval, &fams[g], fmt.Sprintf("non-incremental, family %d", g))
	}
}

func TestBatchableCapability(t *testing.T) {
	eval, orig := deltaTestEvaluator(t)
	if !eval.Batchable() {
		t.Error("default battery must be batchable")
	}
	names, _ := datagen.ProtectedAttrs("german")
	attrs, _ := orig.Schema().Indices(names...)
	nb, err := NewEvaluator(orig, attrs, Config{DR: []risk.Measure{&RankOnly{}}})
	if err != nil {
		t.Fatal(err)
	}
	if nb.Batchable() {
		t.Error("battery with a non-reversible measure must not report batchable")
	}
}

// TestEvaluateBatchNilState pins the nil-state contract: a parent without
// a state is fine as long as its offspring are scored without one (empty
// or wide change lists); a narrow edit then errors.
func TestEvaluateBatchNilState(t *testing.T) {
	eval, orig := deltaTestEvaluator(t)
	names, _ := datagen.ProtectedAttrs("german")
	attrs, _ := orig.Schema().Indices(names...)
	pe, err := eval.Evaluate(orig)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 9))
	wideChild := orig.Clone()
	wide := applyRandomChanges(rng, wideChild, attrs, orig.Rows()/2+1)
	got, _, err := eval.EvaluateEdit(pe, orig, nil, nil)
	if err != nil {
		t.Fatalf("stateless empty offspring: %v", err)
	}
	requireIdentical(t, "empty offspring", got, pe)
	got, _, err = eval.EvaluateEdit(pe, orig, nil, wide)
	if err != nil {
		t.Fatalf("stateless wide offspring: %v", err)
	}
	wantWide, err := eval.Evaluate(wideChild)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "wide offspring", got, wantWide)

	narrow := applyRandomChanges(rng, orig.Clone(), attrs, 2)
	if _, _, err := eval.EvaluateEdit(pe, orig, nil, narrow); err == nil {
		t.Error("EvaluateEdit accepted a narrow edit with a nil state")
	}
}
