package evoprot

// Cross-module integration tests: the full pipeline (datagen -> protection
// grids -> measures -> evolution -> reports) exercised end to end, checking
// the paper's qualitative claims at reduced scale.

import (
	"bytes"
	"context"
	"runtime"
	"sort"
	"testing"

	"evoprot/internal/dataset"
	"evoprot/internal/experiment"
	"evoprot/internal/infoloss"
)

func integrationSpec(ds, agg string, remove float64) experiment.Spec {
	return experiment.Spec{
		Dataset:        ds,
		Rows:           150,
		Aggregator:     agg,
		RemoveBestFrac: remove,
		Generations:    60,
		Seed:           424242,
		InitWorkers:    runtime.GOMAXPROCS(0),
	}
}

// TestIntegrationOptimizationImproves: on every dataset and under both
// aggregations, evolution must not worsen any population statistic and
// must improve the mean (the paper's universal observation).
func TestIntegrationOptimizationImproves(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	for _, ds := range DatasetNames() {
		for _, agg := range []string{"mean", "max"} {
			rep, err := experiment.Run(integrationSpec(ds, agg, 0))
			if err != nil {
				t.Fatalf("%s/%s: %v", ds, agg, err)
			}
			if rep.FinalMean > rep.InitMean+1e-9 {
				t.Errorf("%s/%s: mean worsened %.2f -> %.2f", ds, agg, rep.InitMean, rep.FinalMean)
			}
			if rep.FinalMin > rep.InitMin+1e-9 {
				t.Errorf("%s/%s: min worsened %.2f -> %.2f", ds, agg, rep.InitMin, rep.FinalMin)
			}
			if rep.FinalMax > rep.InitMax+1e-9 {
				t.Errorf("%s/%s: max worsened %.2f -> %.2f", ds, agg, rep.InitMax, rep.FinalMax)
			}
			if rep.ImpMean <= 0 {
				t.Errorf("%s/%s: no mean improvement (%.2f%%)", ds, agg, rep.ImpMean)
			}
		}
	}
}

// topBalance returns the mean |IL-DR| of the k best pairs under the given
// aggregator — the balance of the population's optimized frontier.
func topBalance(pairs []Pair, agg Aggregator, k int) float64 {
	sorted := make([]Pair, len(pairs))
	copy(sorted, pairs)
	sort.Slice(sorted, func(i, j int) bool {
		return agg.Combine(sorted[i].IL, sorted[i].DR) < agg.Combine(sorted[j].IL, sorted[j].DR)
	})
	if k > len(sorted) {
		k = len(sorted)
	}
	return experiment.Balance(sorted[:k])
}

// TestIntegrationMaxBalancesBetterThanMean: the paper's §3.2 conclusion —
// under the max aggregation the optimized individuals concentrate around
// balanced (IL ≈ DR) pairs, while mean tolerates unbalanced winners. The
// effect lives at the top of the population: the mean aggregation happily
// keeps a 0/40 individual at score 20, the max aggregation scores it 40.
// Checked on all four datasets.
func TestIntegrationMaxBalancesBetterThanMean(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	spec := func(ds, agg string) experiment.Spec {
		s := integrationSpec(ds, agg, 0)
		s.Generations = 300 // the contrast needs real optimization pressure
		return s
	}
	for _, ds := range DatasetNames() {
		mean, err := experiment.Run(spec(ds, "mean"))
		if err != nil {
			t.Fatal(err)
		}
		max, err := experiment.Run(spec(ds, "max"))
		if err != nil {
			t.Fatal(err)
		}
		bMean := topBalance(mean.Final, Mean{}, 20)
		bMax := topBalance(max.Final, Max{}, 20)
		t.Logf("%s: top-20 balance mean-fitness=%.2f max-fitness=%.2f", ds, bMean, bMax)
		if bMax > bMean {
			t.Errorf("%s: max-fitness frontier less balanced (%.2f) than mean's (%.2f)", ds, bMax, bMean)
		}
	}
}

// TestIntegrationRobustnessRecovery: the §3.3 claim — runs without the
// best 5%/10% individuals end within a few points of the full run's
// minimum score.
func TestIntegrationRobustnessRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	full, err := experiment.Run(integrationSpec("flare", "max", 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, remove := range []float64{0.05, 0.10} {
		rob, err := experiment.Run(integrationSpec("flare", "max", remove))
		if err != nil {
			t.Fatal(err)
		}
		gap := rob.FinalMin - full.FinalMin
		t.Logf("remove %.0f%%: min %.2f vs full %.2f (gap %.2f)", remove*100, rob.FinalMin, full.FinalMin, gap)
		if gap < 0 {
			continue // beat the full run: fine (stochasticity, like the paper's 10% beating its 5%)
		}
		// The paper reports gaps of ~1.1-1.3 points at full scale; allow a
		// loose bound at this reduced scale.
		if gap > 12 {
			t.Errorf("remove %.0f%%: gap %.2f points, robustness failed", remove*100, gap)
		}
	}
}

// TestIntegrationMaskedFilesRemainLoadable: every individual surviving an
// evolution run must serialize to CSV and reload identically against the
// original schema — protections are publishable files, not just in-memory
// chromosomes.
func TestIntegrationMaskedFilesRemainLoadable(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	orig, _ := GenerateDataset("german", 100, 9)
	attrs, _ := ProtectedAttributes("german")
	run, err := Run(context.Background(), orig, attrs,
		WithGrid("german"), WithGenerations(30), WithSeed(9), WithWorkers(runtime.GOMAXPROCS(0)))
	if err != nil {
		t.Fatal(err)
	}
	res := run.Islands[0]
	for i, ind := range res.Population[:10] {
		var buf bytes.Buffer
		if err := ind.Data.WriteCSV(&buf); err != nil {
			t.Fatalf("individual %d: %v", i, err)
		}
		back, err := dataset.ReadCSVWithSchema(bytes.NewReader(buf.Bytes()), orig.Schema())
		if err != nil {
			t.Fatalf("individual %d: %v", i, err)
		}
		if !ind.Data.Equal(back) {
			t.Fatalf("individual %d: CSV round trip changed the protection", i)
		}
	}
}

// TestIntegrationEvaluationConsistency: the evaluator must assign exactly
// the same evaluation to an individual before and after an engine run
// (cached Eval fields never drift from the data they describe).
func TestIntegrationEvaluationConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	orig, _ := GenerateDataset("adult", 120, 31)
	attrs, _ := ProtectedAttributes("adult")
	eval, err := NewEvaluator(orig, attrs, EvaluatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	run, err := Run(context.Background(), orig, attrs,
		WithGrid("adult"), WithGenerations(40), WithSeed(31), WithWorkers(runtime.GOMAXPROCS(0)))
	if err != nil {
		t.Fatal(err)
	}
	res := run.Islands[0]
	for i, ind := range res.Population {
		ev, err := eval.Evaluate(ind.Data)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Score != ind.Eval.Score || ev.IL != ind.Eval.IL || ev.DR != ind.Eval.DR {
			t.Fatalf("individual %d: cached eval (%.4f,%.4f,%.4f) != recomputed (%.4f,%.4f,%.4f)",
				i, ind.Eval.IL, ind.Eval.DR, ind.Eval.Score, ev.IL, ev.DR, ev.Score)
		}
	}
}

// TestIntegrationMeasureMethodMatrix pins the qualitative signature every
// masking family leaves on every measure — the cross-module behaviour the
// whole fitness function rests on.
func TestIntegrationMeasureMethodMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	orig, _ := GenerateDataset("flare", 300, 55)
	attrNames, _ := ProtectedAttributes("flare")
	attrs, _ := orig.Schema().Indices(attrNames...)
	eval, err := NewEvaluator(orig, attrNames, EvaluatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	identity, err := eval.Evaluate(orig)
	if err != nil {
		t.Fatal(err)
	}

	mask := func(spec string) Evaluation {
		t.Helper()
		m, err := ParseMethod(spec)
		if err != nil {
			t.Fatal(err)
		}
		masked, err := m.Protect(orig, attrs, newTestRNG())
		if err != nil {
			t.Fatal(err)
		}
		ev, err := eval.Evaluate(masked)
		if err != nil {
			t.Fatal(err)
		}
		return ev
	}

	// Rank swapping permutes within columns: one-way contingency tables
	// are *exactly* preserved (the defining invariant), while the 2-way
	// structure and per-cell values change.
	rsMethod, _ := ParseMethod("rankswap:p=8")
	rsMasked, err := rsMethod.Protect(orig, attrs, newTestRNG())
	if err != nil {
		t.Fatal(err)
	}
	oneWay := infoloss.CTBIL{MaxDim: 1}
	if got := oneWay.Loss(orig, rsMasked, attrs); got != 0 {
		t.Errorf("rank swapping: 1-way CTBIL = %v, want exactly 0", got)
	}
	rs, err := eval.Evaluate(rsMasked)
	if err != nil {
		t.Fatal(err)
	}
	if rs.ILParts["DBIL"] <= 0 {
		t.Error("rank swapping: DBIL should be positive")
	}
	if rs.ILParts["CTBIL"] <= 0 {
		t.Error("rank swapping: full CTBIL should be positive (2-way structure broken)")
	}

	// Near-lossless PRAM: every measure close to the identity evaluation.
	gentle := mask("pram:theta=0.97")
	if gentle.IL > 5 {
		t.Errorf("pram(0.97): IL = %.2f, want < 5", gentle.IL)
	}
	if gentle.DR < identity.DR-15 {
		t.Errorf("pram(0.97): DR = %.2f, identity = %.2f; should stay close", gentle.DR, identity.DR)
	}

	// Saturated recoding collapses every attribute to one category: the
	// masked file reveals nothing (EBIL at its ceiling for the data's
	// entropy, linkage at the random-guess floor).
	flat := mask("recode:depth=50")
	if flat.ILParts["EBIL"] < 30 {
		t.Errorf("saturated recoding: EBIL = %.2f, want large", flat.ILParts["EBIL"])
	}
	if flat.DRParts["DBRL"] > 5 {
		t.Errorf("saturated recoding: DBRL = %.2f, want near random guess", flat.DRParts["DBRL"])
	}

	// Top coding only touches the upper tail: information loss well below
	// a full scramble's, risk well above the saturated recode's.
	tc := mask("top:q=0.15")
	if tc.IL >= flat.IL {
		t.Errorf("top coding IL %.2f should be below saturation %.2f", tc.IL, flat.IL)
	}
	if tc.DR <= flat.DR {
		t.Errorf("top coding DR %.2f should exceed saturation %.2f", tc.DR, flat.DR)
	}

	// Microaggregation k=2 vs k=12: IL grows, DR shrinks — the knob moves
	// along the trade-off curve in the expected direction.
	k2, k12 := mask("micro:k=2"), mask("micro:k=12")
	if k2.IL >= k12.IL {
		t.Errorf("microaggregation IL: k=2 %.2f >= k=12 %.2f", k2.IL, k12.IL)
	}
	if k2.DR <= k12.DR {
		t.Errorf("microaggregation DR: k=2 %.2f <= k=12 %.2f", k2.DR, k12.DR)
	}
}

// TestIntegrationReportsAreRenderable: every figure artifact of
// cmd/experiments renders and exports for each experiment family.
func TestIntegrationReportsAreRenderable(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	specs := []experiment.Spec{
		integrationSpec("adult", "mean", 0),
		integrationSpec("flare", "max", 0.05),
	}
	for _, spec := range specs {
		rep, err := experiment.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if rep.DispersionPlot(60, 16) == "" || rep.EvolutionPlot(60, 16) == "" || rep.Summary() == "" {
			t.Fatalf("%s: empty rendering", spec.Name())
		}
		var buf bytes.Buffer
		if err := rep.WriteDispersionCSV(&buf); err != nil {
			t.Fatal(err)
		}
		if err := rep.WriteEvolutionCSV(&buf); err != nil {
			t.Fatal(err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s: empty CSV export", spec.Name())
		}
	}
}
