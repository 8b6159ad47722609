package score_test

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"evoprot/internal/datagen"
	"evoprot/internal/dataset"
	"evoprot/internal/dataset/datasettest"
	"evoprot/internal/infoloss"
	"evoprot/internal/score"
	"evoprot/internal/score/scoretest"
)

// TestSettlePendingEdit pins the settle contract of EvaluateBatch: each
// group's state is left holding its last narrow offspring's edit, which
// Keep commits (the state then scores like one prepared from that
// offspring's file) and Restore rolls back (it scores like one prepared
// from the parent's); a clone taken before the Restore scores like the
// offspring. Unsettled states are refused by EvaluateBatch.
// The pending lists run up to rows/2 cells, past the DBRL state's own
// break-even on this file, so stale pending states (a state-wide but
// battery-narrow edit) are kept, restored and cloned too; PRL's
// break-even lies beyond rows/2 here, and internal/risk covers its stale
// states. Batteries: the default, the default plus ML utility, the
// default plus a stripped (stateless) ML utility, and a stripped one
// without any state; widths 1 and 4.
func TestSettlePendingEdit(t *testing.T) {
	orig := datagen.MustByName("german", 150, 61)
	names, _ := datagen.ProtectedAttrs("german")
	attrs, err := orig.Schema().Indices(names...)
	if err != nil {
		t.Fatal(err)
	}
	target, err := orig.Schema().Indices("FOREIGN")
	if err != nil {
		t.Fatal(err)
	}
	n := orig.Rows()
	for _, tc := range []struct {
		name string
		cfg  score.Config
	}{
		{"default", score.Config{}},
		{"default+MLU", score.Config{IL: append(infoloss.Default(), &infoloss.MLUtility{Target: target[0]})}},
		{"default+stripped MLU", score.Config{IL: append(infoloss.Default(), scoretest.StripIL(&infoloss.MLUtility{Target: target[0]}))}},
		{"stripped", scoretest.Strip(score.Config{})},
	} {
		eval, err := score.NewEvaluator(orig, attrs, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			rng := rand.New(rand.NewPCG(uint64(workers), 31))
			// Group g's pending offspring has width 1, rows/4 or rows/2
			// (g%3) and is settled by Keep, Restore, or a clone and a
			// Restore (g/3), so every width meets every settle.
			const numGroups = 9
			parents := make([]*dataset.Dataset, numGroups)
			groups := make([]score.BatchGroup, numGroups)
			for g := range groups {
				p := orig.Clone()
				applyChanges(rng, p, attrs, 20)
				parents[g] = p
				pe, err := eval.Evaluate(p)
				if err != nil {
					t.Fatal(err)
				}
				groups[g] = score.BatchGroup{Parent: pe, File: p, State: prepare(t, eval, p)}
				for _, width := range []int{2, 0, n/2 + 1, []int{1, n / 4, n / 2}[g%3], 0} {
					groups[g].Offspring = append(groups[g].Offspring, score.BatchOffspring{
						Changes: applyChanges(rng, p.Clone(), attrs, width),
					})
				}
			}
			if err := eval.EvaluateBatch(groups, workers); err != nil {
				t.Fatal(err)
			}
			for g := range groups {
				grp := &groups[g]
				ctx := fmt.Sprintf("%s, width %d, group %d", tc.name, workers, g)
				if grp.Pending != 3 {
					t.Fatalf("%s: Pending = %d, want 3 (the last narrow offspring)", ctx, grp.Pending)
				}
				child := parents[g].CloneWith(grp.Offspring[3].Changes)
				again := []score.BatchGroup{{Parent: grp.Parent, File: parents[g], State: grp.State,
					Offspring: []score.BatchOffspring{{}}}}
				if err := eval.EvaluateBatch(again, 1); err == nil {
					t.Fatalf("%s: EvaluateBatch accepted an unsettled state", ctx)
				}
				switch g / 3 {
				case 0:
					eval.Keep(grp.State)
					requireScoresLike(t, eval, grp.State, child, rng, ctx+", kept")
				case 1:
					eval.Restore(grp.State)
					requireScoresLike(t, eval, grp.State, parents[g], rng, ctx+", restored")
				default:
					clone := grp.State.Clone()
					eval.Restore(grp.State)
					requireScoresLike(t, eval, clone, child, rng, ctx+", clone before restore")
					requireScoresLike(t, eval, grp.State, parents[g], rng, ctx+", restored after clone")
				}
			}
		}
	}
}

// TestEvaluateBatchErrorSettles: a batch that fails after an offspring
// was scored through a group's state — the next offspring's list does
// not start from the parent's file — leaves that state settled at the
// parent's file.
func TestEvaluateBatchErrorSettles(t *testing.T) {
	orig := datagen.MustByName("german", 150, 61)
	names, _ := datagen.ProtectedAttrs("german")
	attrs, err := orig.Schema().Indices(names...)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := score.NewEvaluator(orig, attrs, score.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(5, 31))
	parent := orig.Clone()
	applyChanges(rng, parent, attrs, 20)
	pe, err := eval.Evaluate(parent)
	if err != nil {
		t.Fatal(err)
	}
	st := prepare(t, eval, parent)
	child := parent.Clone()
	scored := applyChanges(rng, child, attrs, 2)
	// The second list starts from the first offspring's file, not the
	// parent's.
	groups := []score.BatchGroup{{Parent: pe, File: parent, State: st, Offspring: []score.BatchOffspring{
		{Changes: scored},
		{Changes: []dataset.CellChange{scored[0].Inverted()}},
	}}}
	if err := eval.EvaluateBatch(groups, 1); err == nil {
		t.Fatal("EvaluateBatch accepted a list that does not start from the parent's file")
	}
	if groups[0].Pending != -1 {
		t.Fatalf("Pending = %d after a failed batch, want -1", groups[0].Pending)
	}
	requireScoresLike(t, eval, st, parent, rng, "after a failed batch")
}

// requireScoresLike scores two grandchildren of file — one cell and rows/2
// cells away — through st and through a state freshly prepared from file,
// and requires both to equal Evaluate of each grandchild. st is left
// settled, describing file.
func requireScoresLike(t *testing.T, eval *score.Evaluator, st *score.DeltaState, file *dataset.Dataset, rng *rand.Rand, ctx string) {
	t.Helper()
	fe, err := eval.Evaluate(file)
	if err != nil {
		t.Fatal(err)
	}
	var offs []score.BatchOffspring
	for _, width := range []int{1, file.Rows() / 2} {
		offs = append(offs, score.BatchOffspring{Changes: applyChanges(rng, file.Clone(), eval.Attrs(), width)})
	}
	for _, route := range []struct {
		name  string
		state *score.DeltaState
	}{{"state", st}, {"fresh Prepare", prepare(t, eval, file)}} {
		groups := []score.BatchGroup{{Parent: fe, File: file, State: route.state, Offspring: append([]score.BatchOffspring(nil), offs...)}}
		if err := eval.EvaluateBatch(groups, 1); err != nil {
			t.Fatalf("%s, %s: %v", ctx, route.name, err)
		}
		eval.Restore(route.state)
		for k, off := range groups[0].Offspring {
			want, err := eval.Evaluate(file.CloneWith(off.Changes))
			if err != nil {
				t.Fatal(err)
			}
			score.RequireIdentical(t, fmt.Sprintf("%s, %s, grandchild %d", ctx, route.name, k), off.Eval, want)
		}
	}
}

// applyChanges draws width random edits of d's protected cells, applies
// them to d and returns them as a change list.
func applyChanges(rng *rand.Rand, d *dataset.Dataset, attrs []int, width int) []dataset.CellChange {
	changes := make([]dataset.CellChange, width)
	for i := range changes {
		changes[i] = datasettest.RandomChange(rng, d, attrs)
	}
	return changes
}

func prepare(t *testing.T, eval *score.Evaluator, d *dataset.Dataset) *score.DeltaState {
	t.Helper()
	st, err := eval.Prepare(d)
	if err != nil {
		t.Fatal(err)
	}
	return st
}
