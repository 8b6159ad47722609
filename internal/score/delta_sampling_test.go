package score

// Intruder-side sampling (MaxRecords) used to knock the DBRL and PRL
// measures out of the incremental path — Prepare returned a nil slot and
// delta evaluation recomputed just those measures in full each step. The
// linkage states are stride-aware now, so a sampling-configured battery
// runs fully incrementally; this file keeps the end-to-end oracle that
// guarded the old fallback, which is exactly as binding on the new path.
// The property: a delta-evaluation chain over a sampling-configured
// battery is bit-identical to a from-scratch evaluation of each
// intermediate dataset — every measure value, both averages and the
// aggregated score — across random grids, strides and change batches.

import (
	"math/rand/v2"
	"testing"

	"evoprot/internal/datagen"
	"evoprot/internal/risk"
)

// TestSampledLinkageFallbackMatchesFromScratch is the property test: for
// several datasets, MaxRecords strides and seeds, a chain of random
// mutation batches evaluated through Prepare/EvaluateBatch/Advance (with every
// linkage measure on its stride-aware incremental state) must equal
// Evaluate-from-scratch bit for bit at every step.
func TestSampledLinkageFallbackMatchesFromScratch(t *testing.T) {
	grids := []struct {
		name string
		rows int
	}{
		{"flare", 90},
		{"german", 130},
	}
	for _, grid := range grids {
		for _, maxRecords := range []int{10, 33, 64} {
			for _, seed := range []uint64{3, 19} {
				orig := datagen.MustByName(grid.name, grid.rows, seed)
				names, _ := datagen.ProtectedAttrs(grid.name)
				attrs, err := orig.Schema().Indices(names...)
				if err != nil {
					t.Fatal(err)
				}
				if grid.rows <= maxRecords {
					t.Fatalf("test setup: stride sampling inactive for %d rows with MaxRecords %d", grid.rows, maxRecords)
				}
				eval, err := NewEvaluator(orig, attrs, Config{
					DR: []risk.Measure{
						&risk.IntervalDisclosure{MaxP: 10},
						&risk.DistanceLinkage{MaxRecords: maxRecords},
						&risk.ProbabilisticLinkage{EMIters: 10, MaxRecords: maxRecords},
						&risk.RankIntervalLinkage{P: 15, MaxRecords: maxRecords},
					},
				})
				if err != nil {
					t.Fatal(err)
				}

				rng := rand.New(rand.NewPCG(seed, 7))
				masked := orig.Clone()
				applyRandomChanges(rng, masked, attrs, 25) // start away from the original
				parentEval, err := eval.Evaluate(masked)
				if err != nil {
					t.Fatal(err)
				}
				state := mustPrepare(t, eval, masked)

				for step := 0; step < 6; step++ {
					child := masked.Clone()
					batch := 1 + rng.IntN(4) // mutations and small crossover windows
					changes := applyRandomChanges(rng, child, attrs, batch)
					gotEval, err := deltaEvaluate(eval, parentEval, state, child, changes)
					if err != nil {
						t.Fatalf("%s/max%d/seed%d step %d: %v", grid.name, maxRecords, seed, step, err)
					}
					want, err := eval.Evaluate(child)
					if err != nil {
						t.Fatal(err)
					}
					requireIdentical(t,
						grid.name+" sampled delta step", gotEval, want)
					if err := eval.Advance(state, child, changes); err != nil {
						t.Fatalf("%s/max%d/seed%d step %d: narrow edit not committed: %v", grid.name, maxRecords, seed, step, err)
					}
					masked, parentEval = child, gotEval
				}
			}
		}
	}
}

// TestSampledLinkagePrepareSlots pins the capability the oracle above
// now exercises: under active stride sampling every default-battery
// measure must offer an incremental state — a regression to nil-slot
// Prepares would silently turn the chain test into a test of the full
// recompute fallback.
func TestSampledLinkagePrepareSlots(t *testing.T) {
	orig := datagen.MustByName("flare", 90, 5)
	names, _ := datagen.ProtectedAttrs("flare")
	attrs, err := orig.Schema().Indices(names...)
	if err != nil {
		t.Fatal(err)
	}
	masked := orig.Clone()
	if st := (&risk.DistanceLinkage{MaxRecords: 30}).Prepare(orig, masked, attrs); st == nil {
		t.Error("sampled DBRL lost its incremental support")
	}
	if st := (&risk.ProbabilisticLinkage{MaxRecords: 30}).Prepare(orig, masked, attrs); st == nil {
		t.Error("sampled PRL lost its incremental support")
	}
	if st := (&risk.RankIntervalLinkage{MaxRecords: 30}).Prepare(orig, masked, attrs); st == nil {
		t.Error("sampled RSRL lost its incremental support")
	}
	if st := (&risk.IntervalDisclosure{}).Prepare(orig, masked, attrs); st == nil {
		t.Error("ID lost its incremental support")
	}
}
