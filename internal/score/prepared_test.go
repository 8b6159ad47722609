package score_test

import (
	"context"
	"fmt"
	"math/rand/v2"
	"testing"

	"evoprot/internal/datagen"
	"evoprot/internal/datagen/datagentest"
	"evoprot/internal/dataset"
	"evoprot/internal/dataset/datasettest"
	"evoprot/internal/infoloss"
	"evoprot/internal/protection/protectiontest"
	"evoprot/internal/score"
	"evoprot/internal/score/scoretest"
)

// TestEvaluateAllPreparedMatchesEvaluate: the set-up route reads every
// stateful slot from its freshly prepared state and recomputes only the
// stateless ones. Over the default battery, the default plus ML
// utility, the default plus a stripped ML utility (a stateless slot among
// stateful ones) and a stripped battery (no stateful slot at all), at
// widths 1 and 4, each evaluation must equal Evaluate's, parts included,
// and each returned state must still score a one-cell offspring like
// Evaluate does.
func TestEvaluateAllPreparedMatchesEvaluate(t *testing.T) {
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
	maskings := []*dataset.Dataset{orig}
	for i, spec := range []string{"pram:theta=0.5", "micro:k=5", "top:q=0.2", "pram:theta=0.9"} {
		masked, err := protectiontest.Must(spec).Protect(orig, attrs, rand.New(rand.NewPCG(uint64(i), 5)))
		if err != nil {
			t.Fatal(err)
		}
		maskings = append(maskings, masked)
	}
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
			evs, states, err := eval.EvaluateAllPrepared(context.Background(), maskings, workers)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewPCG(uint64(workers), 9))
			for i, masked := range maskings {
				ctx := fmt.Sprintf("%s, width %d, dataset %d", tc.name, workers, i)
				want, err := eval.Evaluate(masked)
				if err != nil {
					t.Fatal(err)
				}
				score.RequireIdentical(t, ctx, evs[i], want)

				child := masked.Clone()
				ch := datasettest.RandomChange(rng, child, attrs)
				got, _, err := eval.EvaluateEdit(evs[i], masked, states[i], []dataset.CellChange{ch})
				if err != nil {
					t.Fatal(err)
				}
				eval.Restore(states[i])
				want, _ = eval.Evaluate(child)
				score.RequireIdentical(t, ctx+", one-cell offspring", got, want)
			}
		}
	}
}
