package score

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"evoprot/internal/datagen"
	"evoprot/internal/dataset"
	"evoprot/internal/risk"
)

// buildBatch derives a random generation from parents: every parent gets
// a group with a mix of offspring — ordinary narrow edits, the occasional
// empty change list (a cloned survivor) and the occasional wide edit (a
// crossover window past the rebuild break-even point). Returns the groups
// ready for EvaluateBatch.
func buildBatch(t *testing.T, eval *Evaluator, rng *rand.Rand, parents []*dataset.Dataset, attrs []int, offspringPer int) []BatchGroup {
	t.Helper()
	groups := make([]BatchGroup, len(parents))
	for g, p := range parents {
		pe, err := eval.Evaluate(p)
		if err != nil {
			t.Fatal(err)
		}
		groups[g] = BatchGroup{
			Parent: pe,
			File:   p,
			State:  mustPrepare(t, eval, p),
		}
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
			groups[g].Offspring = append(groups[g].Offspring, BatchOffspring{Changes: changes})
		}
	}
	return groups
}

// restoreGroups settles every group's state at its parent's file.
func restoreGroups(eval *Evaluator, groups []BatchGroup) {
	for g := range groups {
		if groups[g].State != nil {
			eval.Restore(groups[g].State)
		}
	}
}

// checkBatchAgainstEvaluate runs EvaluateBatch at the given worker width
// and requires every offspring evaluation to equal a full Evaluate of the
// child built from the group's file bit for bit.
func checkBatchAgainstEvaluate(t *testing.T, eval *Evaluator, groups []BatchGroup, workers int, context string) {
	t.Helper()
	if err := eval.EvaluateBatch(groups, workers); err != nil {
		t.Fatalf("%s: EvaluateBatch: %v", context, err)
	}
	restoreGroups(eval, groups)
	for g := range groups {
		for k := range groups[g].Offspring {
			requireOffspring(t, eval, &groups[g], k, fmt.Sprintf("%s group %d offspring %d", context, g, k))
		}
	}
}

// requireOffspring checks one scored offspring against Evaluate of its
// child built by CloneWith. It also pins when EvaluateBatch builds the
// child itself: for every wide edit, and for a narrow one only when some
// measure has no state; the file it built must be that child.
func requireOffspring(t *testing.T, eval *Evaluator, grp *BatchGroup, k int, context string) {
	t.Helper()
	off := &grp.Offspring[k]
	child := grp.File.CloneWith(off.Changes)
	want, err := eval.Evaluate(child)
	if err != nil {
		t.Fatalf("%s: Evaluate: %v", context, err)
	}
	requireIdentical(t, context, off.Eval, want)
	nilSlot := grp.State == nil
	if !nilSlot {
		nilSlot = slices.Contains(grp.State.states, nil)
	}
	needed := len(off.Changes) > 0 && (eval.WideEdit(off.Changes) || nilSlot)
	if (off.Child != nil) != needed {
		t.Fatalf("%s: built child: %v, want %v", context, off.Child != nil, needed)
	}
	if off.Child != nil && !off.Child.Equal(child) {
		t.Fatalf("%s: the child EvaluateBatch built is not the parent's file with the changes applied", context)
	}
}

func TestEvaluateBatchMatchesEvaluate(t *testing.T) {
	eval, orig := deltaTestEvaluator(t)
	names, _ := datagen.ProtectedAttrs("german")
	attrs, _ := orig.Schema().Indices(names...)
	for _, workers := range []int{1, 4} {
		rng := rand.New(rand.NewPCG(97, uint64(workers)))
		parents := make([]*dataset.Dataset, 5)
		for i := range parents {
			p := orig.Clone()
			applyRandomChanges(rng, p, attrs, 10+rng.IntN(20))
			parents[i] = p
		}
		groups := buildBatch(t, eval, rng, parents, attrs, 4)
		checkBatchAgainstEvaluate(t, eval, groups, workers, "default battery")

		// States stay valid ancestors after the batch: evaluate a fresh
		// child per group through the (rolled-back) state and compare
		// against a from-scratch evaluation.
		for g := range groups {
			child := parents[g].Clone()
			changes := applyRandomChanges(rng, child, attrs, 3)
			got, err := deltaEvaluate(eval, groups[g].Parent, groups[g].State, parents[g], changes)
			if err != nil {
				t.Fatal(err)
			}
			want, err := eval.Evaluate(child)
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, "post-batch state reuse", got, want)
		}
	}
}

// TestEvaluateBatchFallbackBattery runs the equivalence over a battery
// containing a measure with no incremental support at all (the
// per-offspring full-recompute routing inside a batch).
func TestEvaluateBatchFallbackBattery(t *testing.T) {
	orig := datagen.MustByName("flare", 90, 11)
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
	groups := buildBatch(t, eval, rng, parents, attrs, 3)
	checkBatchAgainstEvaluate(t, eval, groups, 2, "non-incremental")
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

// TestEvaluateBatchNilState pins the nil-state contract: a stateless
// group is fine as long as every offspring is scored without the state
// (empty or wide change lists); a narrow edit then errors.
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
	groups := []BatchGroup{{Parent: pe, File: orig, Offspring: []BatchOffspring{
		{},
		{Changes: wide},
	}}}
	if err := eval.EvaluateBatch(groups, 1); err != nil {
		t.Fatalf("stateless group with empty+wide offspring: %v", err)
	}
	requireIdentical(t, "empty offspring", groups[0].Offspring[0].Eval, pe)
	wantWide, err := eval.Evaluate(wideChild)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "wide offspring", groups[0].Offspring[1].Eval, wantWide)

	narrow := applyRandomChanges(rng, orig.Clone(), attrs, 2)
	groups[0].Offspring = append(groups[0].Offspring, BatchOffspring{Changes: narrow})
	if err := eval.EvaluateBatch(groups, 1); err == nil {
		t.Error("EvaluateBatch accepted a narrow-edit offspring with a nil group state")
	}
}

// FuzzEvaluateBatchGrouping fuzzes the change-list grouping: arbitrary
// group/offspring shapes drawn from the fuzz inputs must keep the batch
// path bit-identical to full evaluation at both worker widths.
func FuzzEvaluateBatchGrouping(f *testing.F) {
	f.Add(uint64(1), uint(3), uint(4))
	f.Add(uint64(99), uint(1), uint(1))
	f.Add(uint64(7), uint(6), uint(2))
	orig := datagen.MustByName("flare", 80, 3)
	names, _ := datagen.ProtectedAttrs("flare")
	attrs, err := orig.Schema().Indices(names...)
	if err != nil {
		f.Fatal(err)
	}
	eval, err := NewEvaluator(orig, attrs, Config{})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, seed uint64, nGroups, nOff uint) {
		ng := int(nGroups%6) + 1
		no := int(nOff%5) + 1
		rng := rand.New(rand.NewPCG(seed, 13))
		groups := make([]BatchGroup, ng)
		for g := range groups {
			p := orig.Clone()
			applyRandomChanges(rng, p, attrs, 5+rng.IntN(10))
			pe, err := eval.Evaluate(p)
			if err != nil {
				t.Fatal(err)
			}
			groups[g] = BatchGroup{Parent: pe, File: p, State: mustPrepare(t, eval, p)}
			for k := 0; k < no; k++ {
				child := p.Clone() // scratch: the draws chain on it
				var changes []dataset.CellChange
				switch rng.IntN(5) {
				case 0:
					// empty — cloned survivor
				case 1:
					changes = applyRandomChanges(rng, child, attrs, orig.Rows()/2+1)
				default:
					changes = applyRandomChanges(rng, child, attrs, 1+rng.IntN(3))
				}
				groups[g].Offspring = append(groups[g].Offspring, BatchOffspring{Changes: changes})
			}
		}
		for _, workers := range []int{1, 4} {
			if err := eval.EvaluateBatch(groups, workers); err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			restoreGroups(eval, groups)
			for g := range groups {
				for k := range groups[g].Offspring {
					requireOffspring(t, eval, &groups[g], k, "fuzz grouping")
				}
			}
		}
	})
}
