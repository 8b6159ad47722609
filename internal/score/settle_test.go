package score_test

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"evoprot/internal/datagen"
	"evoprot/internal/datagen/datagentest"
	"evoprot/internal/dataset"
	"evoprot/internal/dataset/datasettest"
	"evoprot/internal/infoloss"
	"evoprot/internal/score"
	"evoprot/internal/score/scoretest"
)

// TestSettlePendingEdit pins the settle contract of EvaluateEdit: a
// narrow edit is left pending in the parent's state, which Keep commits
// (the state then scores like one prepared from that offspring's file)
// and Restore rolls back (it scores like one prepared from the
// parent's); a clone taken before the Restore scores like the offspring.
// An empty or wide edit scored meanwhile leaves the pending edit alone,
// and a narrow one is refused until the state is settled.
// The pending lists run up to rows/2 cells, past the DBRL state's own
// break-even on this file, so stale pending states (a state-wide but
// battery-narrow edit) are kept, restored and cloned too; PRL's
// break-even lies beyond rows/2 here, and internal/risk covers its stale
// states. Batteries: the default, the default plus ML utility, the
// default plus a stripped (stateless) ML utility, and a stripped one
// without any state.
func TestSettlePendingEdit(t *testing.T) {
	orig := datagentest.MustByName("german", 150, 61)
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
		for _, seed := range []uint64{1, 4} {
			rng := rand.New(rand.NewPCG(seed, 31))
			// Parent g's pending offspring has width 1, rows/4 or rows/2
			// (g%3) and is settled by Keep, Restore, or a clone and a
			// Restore (g/3), so every width meets every settle.
			for g := range 9 {
				ctx := fmt.Sprintf("%s, seed %d, parent %d", tc.name, seed, g)
				parent := orig.Clone()
				applyChanges(rng, parent, attrs, 20)
				pe, err := eval.Evaluate(parent)
				if err != nil {
					t.Fatal(err)
				}
				st := prepare(t, eval, parent)
				var pending []dataset.CellChange
				for k, width := range []int{2, 0, n/2 + 1, []int{1, n / 4, n / 2}[g%3], 0} {
					changes := applyChanges(rng, parent.Clone(), attrs, width)
					ev, _, err := eval.EvaluateEdit(pe, parent, st, changes)
					if err != nil {
						t.Fatalf("%s, offspring %d: %v", ctx, k, err)
					}
					if k < 3 {
						eval.Restore(st)
					} else if k == 3 {
						pending = changes
					}
					want, err := eval.Evaluate(parent.CloneWith(changes))
					if err != nil {
						t.Fatal(err)
					}
					score.RequireIdentical(t, fmt.Sprintf("%s, offspring %d", ctx, k), ev, want)
				}
				child := parent.CloneWith(pending)
				again := applyChanges(rng, parent.Clone(), attrs, 1)
				if _, _, err := eval.EvaluateEdit(pe, parent, st, again); err == nil {
					t.Fatalf("%s: EvaluateEdit accepted an unsettled state", ctx)
				}
				switch g / 3 {
				case 0:
					eval.Keep(st)
					requireScoresLike(t, eval, st, child, rng, ctx+", kept")
				case 1:
					eval.Restore(st)
					requireScoresLike(t, eval, st, parent, rng, ctx+", restored")
				default:
					clone := st.Clone()
					eval.Restore(st)
					requireScoresLike(t, eval, clone, child, rng, ctx+", clone before restore")
					requireScoresLike(t, eval, st, parent, rng, ctx+", restored after clone")
				}
			}
		}
	}
}

// TestEvaluateBatchErrorSettles: a rejected change list — one that does
// not start from the parent's file — never touches the state. A settled
// state stays settled at the parent's file, and one holding an
// offspring's pending edit keeps it, so Keep still commits that edit.
func TestEvaluateBatchErrorSettles(t *testing.T) {
	orig := datagentest.MustByName("german", 150, 61)
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
	scored := applyChanges(rng, parent.Clone(), attrs, 2)
	// The rejected list starts from the scored offspring's file, not the
	// parent's.
	rejected := []dataset.CellChange{scored[0].Inverted()}
	if _, _, err := eval.EvaluateEdit(pe, parent, st, rejected); err == nil {
		t.Fatal("EvaluateEdit accepted a list that does not start from the parent's file")
	}
	requireScoresLike(t, eval, st, parent, rng, "after a rejection on a settled state")
	if _, _, err := eval.EvaluateEdit(pe, parent, st, scored); err != nil {
		t.Fatal(err)
	}
	if _, _, err := eval.EvaluateEdit(pe, parent, st, rejected); err == nil {
		t.Fatal("EvaluateEdit accepted a list that does not start from the parent's file")
	}
	eval.Keep(st)
	requireScoresLike(t, eval, st, parent.CloneWith(scored), rng, "kept after a rejection on a pending state")
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
	var lists [][]dataset.CellChange
	for _, width := range []int{1, file.Rows() / 2} {
		lists = append(lists, applyChanges(rng, file.Clone(), eval.Attrs(), width))
	}
	for _, route := range []struct {
		name  string
		state *score.DeltaState
	}{{"state", st}, {"fresh Prepare", prepare(t, eval, file)}} {
		for k, changes := range lists {
			got, _, err := eval.EvaluateEdit(fe, file, route.state, changes)
			if err != nil {
				t.Fatalf("%s, %s: %v", ctx, route.name, err)
			}
			eval.Restore(route.state)
			want, err := eval.Evaluate(file.CloneWith(changes))
			if err != nil {
				t.Fatal(err)
			}
			score.RequireIdentical(t, fmt.Sprintf("%s, %s, grandchild %d", ctx, route.name, k), got, want)
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
