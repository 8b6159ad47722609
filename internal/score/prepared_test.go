package score_test

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
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

// TestPrepareConcurrently: the bound measures an evaluator holds are
// shared read-only, so four goroutines may prepare states on one
// evaluator at once and score one-cell and wide edits on them (a wide
// edit runs the bound full recomputes). Every evaluation must equal the
// stripped oracle's; under -race the test also checks that no state
// writes what its bound measure shares.
func TestPrepareConcurrently(t *testing.T) {
	orig := datagentest.MustByName("german", 200, 67)
	names, _ := datagen.ProtectedAttrs("german")
	attrs, err := orig.Schema().Indices(names...)
	if err != nil {
		t.Fatal(err)
	}
	target, err := orig.Schema().Indices("FOREIGN")
	if err != nil {
		t.Fatal(err)
	}
	cfg := score.Config{IL: append(infoloss.Default(), &infoloss.MLUtility{Target: target[0]})}
	eval, err := score.NewEvaluator(orig, attrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := score.NewEvaluator(orig, attrs, scoretest.Strip(cfg))
	if err != nil {
		t.Fatal(err)
	}
	const workers, steps = 4, 12
	type scored struct {
		file *dataset.Dataset
		ev   score.Evaluation
	}
	results := make([][]scored, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = func() error {
				rng := rand.New(rand.NewPCG(67, uint64(w)))
				file, err := protectiontest.Must("pram:theta=0.7").Protect(orig, attrs, rng)
				if err != nil {
					return err
				}
				st, err := eval.Prepare(file)
				if err != nil {
					return err
				}
				parent, err := eval.Evaluate(file)
				if err != nil {
					return err
				}
				for step := range steps {
					width := 1
					if step%4 == 3 {
						width = orig.Rows() / 2
					}
					child := file.Clone()
					changes := make([]dataset.CellChange, width)
					for i := range changes {
						changes[i] = datasettest.RandomChange(rng, child, attrs)
					}
					ev, _, err := eval.EvaluateEdit(parent, file, st, changes)
					if err != nil {
						return err
					}
					if eval.WideEdit(changes) {
						if st, err = eval.Prepare(child); err != nil {
							return err
						}
					} else {
						eval.Keep(st)
					}
					results[w] = append(results[w], scored{child, ev})
					file, parent = child, ev
				}
				return nil
			}()
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	for w, rs := range results {
		for step, r := range rs {
			want, err := oracle.Evaluate(r.file)
			if err != nil {
				t.Fatal(err)
			}
			score.RequireIdentical(t, fmt.Sprintf("worker %d step %d", w, step), r.ev, want)
		}
	}
}
