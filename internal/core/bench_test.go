package core

import (
	"math/rand/v2"
	"testing"

	"evoprot/internal/datagen"
	"evoprot/internal/datagen/datagentest"
	"evoprot/internal/protection"
	"evoprot/internal/score"
	"evoprot/internal/score/scoretest"
)

func benchEngine(b *testing.B, forceOp string) *Engine {
	b.Helper()
	return benchEngineCfg(b, Config{Generations: 1 << 30, Seed: 5, ForceOp: forceOp, InitWorkers: 8})
}

func benchEngineCfg(b *testing.B, cfg Config) *Engine {
	b.Helper()
	return benchEngineWith(b, cfg, score.Config{})
}

// benchEngineWith is benchEngineCfg over the given measure battery.
func benchEngineWith(b *testing.B, cfg Config, sc score.Config) *Engine {
	b.Helper()
	d := datagentest.MustByName("flare", 300, 5)
	names, _ := datagen.ProtectedAttrs("flare")
	attrs, err := d.Schema().Indices(names...)
	if err != nil {
		b.Fatal(err)
	}
	eval, err := score.NewEvaluator(d, attrs, sc)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(5, 5))
	var pop []*Individual
	for _, spec := range []string{"micro:k=3", "micro:k=6", "top:q=0.1", "bottom:q=0.1", "recode:depth=2", "rankswap:p=8", "rankswap:p=16", "pram:theta=0.8", "pram:theta=0.5", "micro:k=9"} {
		m := protection.Must(spec)
		masked, err := m.Protect(d, attrs, rng)
		if err != nil {
			b.Fatal(err)
		}
		pop = append(pop, NewIndividual(masked, protection.String(m)))
	}
	e, err := NewEngine(eval, pop, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return e
}

func BenchmarkStepMutation(b *testing.B) {
	e := benchEngine(b, "mutation")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

func BenchmarkStepCrossover(b *testing.B) {
	e := benchEngine(b, "crossover")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkStepMutationFullEval is the pre-delta baseline: identical
// generations over the capability-stripped battery, so every offspring is
// scored in full. Compare against BenchmarkStepMutation for the
// engine-level delta speedup.
func BenchmarkStepMutationFullEval(b *testing.B) {
	e := benchEngineWith(b, Config{Generations: 1 << 30, Seed: 5, ForceOp: "mutation", InitWorkers: 8},
		scoretest.Strip(score.Config{}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

func BenchmarkStepCrossoverFullEval(b *testing.B) {
	e := benchEngineWith(b, Config{Generations: 1 << 30, Seed: 5, ForceOp: "crossover", InitWorkers: 8},
		scoretest.Strip(score.Config{}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkMutateOperator isolates the genetic operator from fitness
// evaluation: the paper's "rest of each generation" (0.02s of 120.34s).
func BenchmarkMutateOperator(b *testing.B) {
	e := benchEngine(b, "mutation")
	parent := e.pop[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.mutate(parent)
	}
}

// BenchmarkEvaluateOffspringDelta isolates a single mutation offspring's
// delta evaluation (states already warm) from the operator itself: the
// batch route's apply, read and undo against the parent's state.
func BenchmarkEvaluateOffspringDelta(b *testing.B) {
	e := benchEngine(b, "mutation")
	parent := e.pop[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		child, changes := e.mutate(parent)
		e.bParents[0], e.bChildren[0], e.bChanges[0] = parent, child, changes
		e.batchEvaluateGeneration(e.bParents[:1], e.bChildren[:1], e.bChanges[:1])
		e.settleStates()
	}
}

func BenchmarkCrossOperator(b *testing.B) {
	e := benchEngine(b, "crossover")
	p1, p2 := e.pop[0], e.pop[1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.cross(p1, p2)
	}
}

// BenchmarkInitialPopulationPrepare times the first 20 mutation
// generations of a fresh engine, construction excluded: the states are
// built inside the InitWorkers pool at construction, so the first
// selection of every parent goes straight to delta evaluation.
func BenchmarkInitialPopulationPrepare(b *testing.B) {
	b.Run("eager", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			e := benchEngineCfg(b, Config{Generations: 1 << 30, Seed: 5, ForceOp: "mutation", InitWorkers: 8})
			b.StartTimer()
			for g := 0; g < 20; g++ {
				e.Step()
			}
		}
	})
}

func BenchmarkSelectIndex(b *testing.B) {
	e := benchEngine(b, "mutation")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.selectIndex()
	}
}
