package experiment

import (
	"bytes"
	"strings"
	"testing"

	"evoprot/internal/datagen"
	"evoprot/internal/datagen/datagentest"
	"evoprot/internal/score"
)

// smallSpec keeps experiment tests fast: reduced records and generations,
// parallel initial evaluation.
func smallSpec(dataset, agg string) Spec {
	return Spec{
		Dataset:     dataset,
		Rows:        120,
		Aggregator:  agg,
		Generations: 40,
		Seed:        101,
		InitWorkers: 8,
	}
}

func TestSpecName(t *testing.T) {
	if got := (Spec{Dataset: "flare"}).Name(); got != "flare/max" {
		t.Errorf("Name = %q", got)
	}
	if got := (Spec{Dataset: "adult", Aggregator: "mean"}).Name(); got != "adult/mean" {
		t.Errorf("Name = %q", got)
	}
	if got := (Spec{Dataset: "flare", RemoveBestFrac: 0.05}).Name(); got != "flare/max-5%" {
		t.Errorf("Name = %q", got)
	}
}

func TestBuildPopulationMatchesPaperComposition(t *testing.T) {
	orig := datagentest.MustByName("adult", 80, 5)
	names, _ := datagen.ProtectedAttrs("adult")
	attrs, _ := orig.Schema().Indices(names...)
	pop, err := BuildPopulation(orig, attrs, "adult", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(pop) != 86 {
		t.Fatalf("population = %d, want 86", len(pop))
	}
	families := make(map[string]int)
	for _, ind := range pop {
		fam, _, _ := strings.Cut(ind.Origin, "(")
		families[fam]++
		if err := ind.Data.Validate(); err != nil {
			t.Fatalf("%s: %v", ind.Origin, err)
		}
	}
	if families["microaggregation"] != 48 || families["pram"] != 9 {
		t.Fatalf("family counts = %v", families)
	}
}

func TestBuildPopulationUnknownDataset(t *testing.T) {
	orig := datagentest.MustByName("adult", 50, 5)
	if _, err := BuildPopulation(orig, []int{1, 2, 3}, "mystery", 5); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestRunProducesCompleteReport(t *testing.T) {
	rep, err := Run(smallSpec("flare", "max"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Initial) != 104 || len(rep.Final) != 104 {
		t.Fatalf("population sizes: %d initial, %d final", len(rep.Initial), len(rep.Final))
	}
	if len(rep.Series) != 40 {
		t.Fatalf("series = %d, want 40", len(rep.Series))
	}
	if len(rep.Labels) != len(rep.Initial) {
		t.Fatal("labels misaligned")
	}
	if rep.InitMin <= 0 || rep.InitMax < rep.InitMin {
		t.Fatalf("bad initial stats: %+v", rep)
	}
	if rep.FinalMin > rep.InitMin+1e-9 {
		t.Fatalf("final min %v worse than initial %v (elitism broken)", rep.FinalMin, rep.InitMin)
	}
	if rep.FinalMean > rep.InitMean+1e-9 {
		t.Fatalf("final mean %v worse than initial %v", rep.FinalMean, rep.InitMean)
	}
	if rep.Evaluations <= len(rep.Initial) {
		t.Fatalf("evaluations = %d", rep.Evaluations)
	}
	if rep.Duration <= 0 {
		t.Fatal("duration not recorded")
	}
}

func TestRunImprovementsAreConsistent(t *testing.T) {
	rep, err := Run(smallSpec("german", "max"))
	if err != nil {
		t.Fatal(err)
	}
	// Improvements are percentages of the initial values.
	wantMean := 100 * (rep.InitMean - rep.FinalMean) / rep.InitMean
	if diff := rep.ImpMean - wantMean; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("ImpMean = %v, want %v", rep.ImpMean, wantMean)
	}
	if rep.ImpMean < 0 {
		t.Fatalf("mean improvement negative: %v", rep.ImpMean)
	}
}

func TestRunDeterministicPerSeed(t *testing.T) {
	a, err := Run(smallSpec("adult", "max"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallSpec("adult", "max"))
	if err != nil {
		t.Fatal(err)
	}
	if a.FinalMin != b.FinalMin || a.FinalMean != b.FinalMean || a.FinalMax != b.FinalMax {
		t.Fatalf("same seed, different outcomes: %v vs %v", a.FinalMean, b.FinalMean)
	}
}

func TestRunRobustnessRemovesBest(t *testing.T) {
	full, err := Run(smallSpec("flare", "max"))
	if err != nil {
		t.Fatal(err)
	}
	spec := smallSpec("flare", "max")
	spec.RemoveBestFrac = 0.10
	rob, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	popSize := 104.0
	wantSize := 104 - int(0.10*popSize)
	if len(rob.Initial) != wantSize {
		t.Fatalf("robust population = %d, want %d", len(rob.Initial), wantSize)
	}
	// The handicapped run starts from a worse best score.
	if rob.InitMin < full.InitMin {
		t.Fatalf("removing the best lowered the initial min: %v < %v", rob.InitMin, full.InitMin)
	}
}

func TestRunRejectsBadSpecs(t *testing.T) {
	if _, err := Run(Spec{Dataset: "unknown"}); err == nil {
		t.Error("unknown dataset accepted")
	}
	s := smallSpec("flare", "median")
	if _, err := Run(s); err == nil {
		t.Error("unknown aggregator accepted")
	}
	s = smallSpec("flare", "max")
	s.RemoveBestFrac = 1.0
	if _, err := Run(s); err == nil {
		t.Error("RemoveBestFrac=1 accepted")
	}
	s = smallSpec("flare", "max")
	s.Selection = "nope"
	if _, err := Run(s); err == nil {
		t.Error("unknown selection accepted")
	}
}

func TestRunParetoAndAcceptanceMetrics(t *testing.T) {
	rep, err := Run(smallSpec("flare", "max"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.FrontInit < 1 || rep.FrontInit > len(rep.Initial) {
		t.Fatalf("FrontInit = %d", rep.FrontInit)
	}
	if rep.FrontFinal < 1 || rep.FrontFinal > len(rep.Final) {
		t.Fatalf("FrontFinal = %d", rep.FrontFinal)
	}
	// Hypervolumes live inside the [0,100]^2 reference box. (Score-based
	// elitism does not guarantee Pareto growth — a lower-score child need
	// not dominate the parent it replaces — so only bounds are asserted.)
	for _, hv := range []float64{rep.HVInit, rep.HVFinal} {
		if hv <= 0 || hv > 100*100 {
			t.Fatalf("hypervolume out of range: init %v final %v", rep.HVInit, rep.HVFinal)
		}
	}
	if rep.TotalOffspring != 40 && rep.TotalOffspring != 80 {
		// 40 generations of 1 or 2 evals each: bounds.
		if rep.TotalOffspring < 40 || rep.TotalOffspring > 80 {
			t.Fatalf("TotalOffspring = %d", rep.TotalOffspring)
		}
	}
	if rep.AcceptedOffspring > rep.TotalOffspring {
		t.Fatalf("accepted %d > total %d", rep.AcceptedOffspring, rep.TotalOffspring)
	}
}

func TestRunWithExtendedAggregators(t *testing.T) {
	for _, agg := range []string{"euclidean", "weighted:0.7"} {
		rep, err := Run(smallSpec("adult", agg))
		if err != nil {
			t.Fatalf("%s: %v", agg, err)
		}
		if rep.FinalMean > rep.InitMean+1e-9 {
			t.Errorf("%s: mean worsened", agg)
		}
	}
}

func TestBalance(t *testing.T) {
	pairs := []score.Pair{{IL: 10, DR: 30}, {IL: 40, DR: 20}}
	if got := Balance(pairs); got != 20 {
		t.Fatalf("Balance = %v, want 20", got)
	}
	if got := Balance(nil); got != 0 {
		t.Fatalf("Balance(nil) = %v", got)
	}
}

func TestReportRendering(t *testing.T) {
	rep, err := Run(smallSpec("adult", "mean"))
	if err != nil {
		t.Fatal(err)
	}
	disp := rep.DispersionPlot(60, 14)
	if !strings.Contains(disp, "o=initial") || !strings.Contains(disp, "*=final") {
		t.Fatalf("dispersion plot incomplete:\n%s", disp)
	}
	evo := rep.EvolutionPlot(60, 14)
	if !strings.Contains(evo, "M=max") || !strings.Contains(evo, "_=min") {
		t.Fatalf("evolution plot incomplete:\n%s", evo)
	}
	sum := rep.Summary()
	if !strings.Contains(sum, "max score") || !strings.Contains(sum, "improvement") {
		t.Fatalf("summary incomplete:\n%s", sum)
	}

	var buf bytes.Buffer
	if err := rep.WriteDispersionCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 1+2*86 {
		t.Fatalf("dispersion CSV rows = %d, want %d", lines, 1+2*86)
	}
	buf.Reset()
	if err := rep.WriteEvolutionCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 1+40+1 {
		t.Fatalf("evolution CSV rows = %d, want %d", lines, 1+40+1)
	}
}

func TestEvolutionSeriesIncludesGen0(t *testing.T) {
	rep, err := Run(smallSpec("german", "max"))
	if err != nil {
		t.Fatal(err)
	}
	series := rep.EvolutionSeries()
	if len(series) != 3 {
		t.Fatalf("series count = %d", len(series))
	}
	for _, s := range series {
		if len(s.Values) != 41 { // gen0 + 40 generations
			t.Fatalf("%s length = %d, want 41", s.Name, len(s.Values))
		}
	}
	if series[0].Values[0] != rep.Gen0.Max {
		t.Fatal("gen0 missing from max series")
	}
}
