package evoprot

// Tests for the facade surface added beyond the core pipeline: pareto
// helpers, renderers, extended aggregators, and checkpoint resume.

import (
	"bytes"
	"context"
	"errors"
	"io"
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
	for _, bad := range []string{"harmonic", "weighted:NaN", "weighted:0.5junk"} {
		if _, err := AggregatorByName(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
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

// TestRunnerCheckpointSinkFacade: the service-facing Runner surface —
// WithCheckpointSink receives every checkpoint as bytes, WithFirstEventSeq
// numbers the feed from the given origin, Best and Snapshot refuse
// before the first Run, and a sink checkpoint resumes to the same best.
func TestRunnerCheckpointSinkFacade(t *testing.T) {
	orig, _ := GenerateDataset("flare", 60, 41)
	attrs, _ := ProtectedAttributes("flare")
	var snaps [][]byte
	var seqs []uint64
	r, err := NewRunner(orig, attrs,
		WithGrid("flare"), WithGenerations(6), WithSeed(41),
		WithCheckpointSink(func(b []byte) error { snaps = append(snaps, b); return nil }, 3),
		WithFirstEventSeq(100),
		WithProgress(func(ev Event) { seqs = append(seqs, ev.Seq) }),
	)
	if err != nil {
		t.Fatal(err)
	}
	if r.Best() != nil || r.Islands() != 1 {
		t.Fatalf("before Run: best %v, islands %d", r.Best(), r.Islands())
	}
	if err := r.Snapshot(io.Discard); err == nil {
		t.Fatal("Snapshot before the first Run succeeded")
	}
	res, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) == 0 || seqs[0] != 100 {
		t.Fatalf("feed starts at seq %v, want 100", seqs)
	}
	if len(snaps) == 0 {
		t.Fatal("checkpoint sink never called")
	}
	meta, err := PeekCheckpoint(bytes.NewReader(snaps[len(snaps)-1]))
	if err != nil || meta.Generation != 6 {
		t.Fatalf("final sink checkpoint: generation %d, err %v", meta.Generation, err)
	}
	if err := r.Snapshot(io.Discard); err != nil {
		t.Fatal(err)
	}
	r2, err := NewRunner(orig, attrs, WithGrid("flare"), WithSeed(41))
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.Resume(bytes.NewReader(snaps[len(snaps)-1])); err != nil {
		t.Fatal(err)
	}
	if r2.Best().Eval.Score != res.Best.Eval.Score || r2.Generation() != 6 {
		t.Fatalf("resumed best %v at generation %d, want %v at 6", r2.Best().Eval.Score, r2.Generation(), res.Best.Eval.Score)
	}
}

// TestCheckpointSinkGenerationMatchesRunner pins the invariant a service's
// feed marker relies on: at every sink call the snapshot's peeked
// Generation equals the Runner's Generation, so the marker can be tagged
// without decoding the snapshot. The first run has one island on a
// smaller per-island budget, so checkpoints hold unequal generations
// (Generation != MinGeneration); the second is cancelled mid-run, so its
// only write is the final one after the cancellation.
func TestCheckpointSinkGenerationMatchesRunner(t *testing.T) {
	orig, _ := GenerateDataset("flare", 60, 43)
	attrs, _ := ProtectedAttributes("flare")
	var r *Runner
	var writes, uneven int
	sink := func(snapshot []byte) error {
		// The sink may run on the islands' coordinator goroutine: report
		// with t.Errorf, not t.Fatal.
		meta, err := PeekCheckpoint(bytes.NewReader(snapshot))
		if err != nil {
			t.Errorf("peeking a sink checkpoint: %v", err)
			return err
		}
		if meta.Generation != r.Generation() {
			t.Errorf("snapshot generation %d, runner generation %d", meta.Generation, r.Generation())
		}
		writes++
		if meta.Generation != meta.MinGeneration {
			uneven++
		}
		return nil
	}

	var err error
	r, err = NewRunner(orig, attrs,
		WithGrid("flare"), WithGenerations(12), WithSeed(43),
		WithIslands(2), WithMigration(3, 1),
		WithPerIsland(IslandConfig{}, IslandConfig{Generations: 4}),
		WithCheckpointSink(sink, 3),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if writes < 2 || uneven == 0 {
		t.Fatalf("%d writes, %d with unequal island generations; want several and some", writes, uneven)
	}

	writes = 0
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r, err = NewRunner(orig, attrs,
		WithGrid("flare"), WithGenerations(200), WithSeed(43),
		WithIslands(2), WithMigration(3, 1),
		WithCheckpointSink(sink, 1000),
		WithProgress(func(ev Event) {
			if ev.Stats.Gen >= 5 {
				cancel()
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v", err)
	}
	if writes != 1 || r.Generation() >= 200 {
		t.Fatalf("cancelled run: %d writes at generation %d, want the one final write mid-run", writes, r.Generation())
	}
}
