package evoprot

// Tests for the facade surface added beyond the core pipeline: pareto
// helpers, renderers, extended aggregators, and checkpoint resume.

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestAggregatorByNameFacade(t *testing.T) {
	for spec, want := range map[string]string{
		"mean":         "mean",
		"max":          "max",
		"euclidean":    "euclidean",
		"weighted:0.8": "weighted(0.80)",
	} {
		agg, err := AggregatorByName(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if agg.Name() != want {
			t.Errorf("%s -> %q, want %q", spec, agg.Name(), want)
		}
	}
	if _, err := AggregatorByName("harmonic"); err == nil {
		t.Error("unknown aggregator accepted")
	}
}

func TestParetoFrontFacade(t *testing.T) {
	pairs := []Pair{{IL: 10, DR: 40}, {IL: 20, DR: 20}, {IL: 15, DR: 45}, {IL: 40, DR: 10}}
	front := ParetoFront(pairs)
	if len(front) != 3 {
		t.Fatalf("front = %v", front)
	}
	hv, err := Hypervolume(pairs, Pair{IL: 100, DR: 100})
	if err != nil {
		t.Fatal(err)
	}
	if hv <= 0 || hv >= 100*100 {
		t.Fatalf("hypervolume = %v", hv)
	}
	// Adding a dominating point grows the hypervolume.
	hv2, err := Hypervolume(append(pairs, Pair{IL: 5, DR: 5}), Pair{IL: 100, DR: 100})
	if err != nil {
		t.Fatal(err)
	}
	if hv2 <= hv {
		t.Fatalf("hypervolume did not grow: %v -> %v", hv, hv2)
	}
	// A degenerate reference bounds no box.
	if _, err := Hypervolume(pairs, Pair{}); err == nil {
		t.Fatal("degenerate reference accepted")
	}
}

func TestRenderPairsFacade(t *testing.T) {
	initial := []Pair{{IL: 30, DR: 60}, {IL: 50, DR: 40}}
	final := []Pair{{IL: 25, DR: 28}}
	out := RenderPairs(initial, final, 50, 12)
	if !strings.Contains(out, "o=initial (2)") || !strings.Contains(out, "*=final (1)") {
		t.Fatalf("legend missing:\n%s", out)
	}
}

func TestRenderEvolutionAndDispersionFacade(t *testing.T) {
	orig, _ := GenerateDataset("flare", 70, 3)
	attrs, _ := ProtectedAttributes("flare")
	run, err := Run(context.Background(), orig, attrs,
		WithGrid("flare"), WithGenerations(8), WithSeed(3), WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	res := run.Islands[0]
	maxS := make([]float64, len(res.History))
	meanS := make([]float64, len(res.History))
	minS := make([]float64, len(res.History))
	for i, gs := range res.History {
		maxS[i], meanS[i], minS[i] = gs.Max, gs.Mean, gs.Min
	}
	evo := RenderEvolution(maxS, meanS, minS, 60, 12)
	if !strings.Contains(evo, "M=max") {
		t.Fatalf("evolution render incomplete:\n%s", evo)
	}
	disp := RenderDispersion(res.Population, 60, 12)
	if !strings.Contains(disp, "*=population (104)") {
		t.Fatalf("dispersion render incomplete:\n%s", disp)
	}
}

func TestResumeEngineFacade(t *testing.T) {
	orig, _ := GenerateDataset("german", 80, 21)
	attrNames, _ := ProtectedAttributes("german")
	eval, err := NewEvaluator(orig, attrNames, EvaluatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	attrs, _ := orig.Schema().Indices(attrNames...)
	var seeds []*Individual
	for i, spec := range []string{"micro:k=3", "pram:theta=0.8", "rankswap:p=8", "top:q=0.15"} {
		m, _ := ParseMethod(spec)
		masked, err := m.Protect(orig, attrs, newTestRNG())
		if err != nil {
			t.Fatal(err)
		}
		_ = i
		seeds = append(seeds, NewIndividual(masked, spec))
	}
	engine, err := NewEngine(eval, seeds, EngineConfig{Generations: 10, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := engine.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	resumed, err := ResumeEngine(eval, &buf, EngineConfig{Generations: 10, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Generation() != 10 {
		t.Fatalf("resumed generation = %d", resumed.Generation())
	}
	res, err := resumed.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 20 {
		t.Fatalf("total history = %d, want 20", len(res.History))
	}
}

func TestOptimizeWithExtendedAggregator(t *testing.T) {
	orig, _ := GenerateDataset("adult", 80, 17)
	attrs, _ := ProtectedAttributes("adult")
	res, err := Run(context.Background(), orig, attrs,
		WithGrid("adult"), WithAggregator("weighted:0.7"), WithGenerations(10), WithSeed(17), WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	best := res.Best.Eval
	want := 0.7*best.IL + 0.3*best.DR
	if diff := best.Score - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("score %v != weighted combination %v", best.Score, want)
	}
}
