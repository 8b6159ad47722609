package evoprot

import (
	"context"
	"path/filepath"
	"strings"
	"testing"
)

func TestGenerateDatasetAndProtectedAttributes(t *testing.T) {
	for _, name := range DatasetNames() {
		d, err := GenerateDataset(name, 60, 7)
		if err != nil {
			t.Fatal(err)
		}
		if d.Rows() != 60 {
			t.Fatalf("%s: rows = %d", name, d.Rows())
		}
		attrs, err := ProtectedAttributes(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Schema().Indices(attrs...); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := GenerateDataset("bogus", 0, 1); err == nil {
		t.Fatal("bogus dataset accepted")
	}
}

func TestCSVRoundTripThroughFacade(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.csv")
	d, _ := GenerateDataset("flare", 40, 3)
	if err := SaveCSV(d, path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Rows() != 40 || back.Cols() != d.Cols() {
		t.Fatalf("round trip shape = %dx%d", back.Rows(), back.Cols())
	}
	// Inferred schema sorts categories, so compare record contents.
	a, b := d.Records(), back.Records()
	for r := range a {
		for c := range a[r] {
			if a[r][c] != b[r][c] {
				t.Fatalf("record (%d,%d): %q != %q", r, c, a[r][c], b[r][c])
			}
		}
	}
}

func TestLoadCSVMissingFile(t *testing.T) {
	if _, err := LoadCSV(filepath.Join(t.TempDir(), "absent.csv")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestReadCSVFacade(t *testing.T) {
	d, err := ReadCSV(strings.NewReader("a,b\nx,1\ny,2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if d.Rows() != 2 {
		t.Fatalf("rows = %d", d.Rows())
	}
}

func TestParseMethodFacade(t *testing.T) {
	m, err := ParseMethod("rankswap:p=6")
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "rankswapping" {
		t.Fatalf("name = %q", m.Name())
	}
	if _, err := ParseMethod("wat"); err == nil {
		t.Fatal("bad spec accepted")
	}
}

func TestPaperCompositionFacade(t *testing.T) {
	c, err := PaperComposition("housing")
	if err != nil {
		t.Fatal(err)
	}
	if c.Total() != 110 {
		t.Fatalf("housing total = %d", c.Total())
	}
}

func TestOptimizeEndToEnd(t *testing.T) {
	orig, _ := GenerateDataset("adult", 100, 11)
	attrs, _ := ProtectedAttributes("adult")
	run, err := Run(context.Background(), orig, attrs,
		WithGrid("adult"), WithGenerations(25), WithSeed(11), WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	res := run.Islands[0]
	if len(res.Population) != 86 {
		t.Fatalf("population = %d, want 86", len(res.Population))
	}
	if res.Best.Eval.Score <= 0 {
		t.Fatalf("best score = %v", res.Best.Eval.Score)
	}
	if res.Best.Eval.Score != res.Population[0].Eval.Score {
		t.Fatal("best is not population[0]")
	}
	if len(res.History) != 25 {
		t.Fatalf("history = %d", len(res.History))
	}
}

func TestOptimizeWithExplicitSeeds(t *testing.T) {
	orig, _ := GenerateDataset("flare", 80, 13)
	attrs, _ := ProtectedAttributes("flare")
	idx, _ := orig.Schema().Indices(attrs...)

	var seeds []*Dataset
	for _, spec := range []string{"micro:k=3", "top:q=0.2", "pram:theta=0.8", "recode:depth=2"} {
		m, _ := ParseMethod(spec)
		masked, err := m.Protect(orig, idx, newTestRNG())
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, masked)
	}
	res, err := Run(context.Background(), orig, attrs,
		WithSeeds(seeds...), WithAggregator("mean"), WithGenerations(15), WithSeed(13))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Islands[0].Population); n != 4 {
		t.Fatalf("population = %d", n)
	}
}

func TestOptimizeValidation(t *testing.T) {
	orig, _ := GenerateDataset("flare", 50, 17)
	attrs, _ := ProtectedAttributes("flare")
	ctx := context.Background()
	if _, err := Run(ctx, orig, attrs); err == nil {
		t.Error("missing grid and seeds accepted")
	}
	if _, err := Run(ctx, orig, attrs, WithSeeds(orig)); err == nil {
		t.Error("single seed accepted")
	}
	if _, err := Run(ctx, orig, []string{"GHOST"}, WithGrid("flare")); err == nil {
		t.Error("unknown attribute accepted")
	}
	if _, err := Run(ctx, orig, attrs, WithGrid("flare"), WithAggregator("median")); err == nil {
		t.Error("unknown aggregator accepted")
	}
}

func TestRunExperimentFacade(t *testing.T) {
	rep, err := RunExperiment(ExperimentSpec{
		Dataset:     "german",
		Rows:        90,
		Generations: 20,
		Seed:        19,
		InitWorkers: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Initial) != 104 {
		t.Fatalf("initial = %d", len(rep.Initial))
	}
}

func TestNewEvaluatorAndEngineFacade(t *testing.T) {
	orig, _ := GenerateDataset("german", 70, 23)
	attrs, _ := ProtectedAttributes("german")
	eval, err := NewEvaluator(orig, attrs, EvaluatorConfig{Aggregator: Mean{}})
	if err != nil {
		t.Fatal(err)
	}
	idx, _ := orig.Schema().Indices(attrs...)
	m, _ := ParseMethod("pram:theta=0.7")
	a, err := m.Protect(orig, idx, newTestRNG())
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Protect(orig, idx, newTestRNG())
	if err != nil {
		t.Fatal(err)
	}
	engine, err := NewEngine(eval, []*Individual{NewIndividual(a, "a"), NewIndividual(b, "b")},
		EngineConfig{Generations: 10, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Generations != 10 {
		t.Fatalf("generations = %d", res.Generations)
	}
}
