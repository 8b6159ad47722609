package core

// Equivalence tests for generation-batch offspring evaluation, the
// engine's one route: it must walk bit-identical trajectories to the
// capability-stripped oracle, which scores every offspring in full —
// histories, event feeds and final populations — at every worker width,
// under both crowding policies, and across heterogeneous engines
// exchanging migrants.

import (
	"context"
	"math/rand/v2"
	"testing"

	"evoprot/internal/dataset"
	"evoprot/internal/score"
	"evoprot/internal/score/scoretest"
)

// TestBatchRunMatchesPerOffspringRun: same seed, batch route against the
// oracle's full per-offspring evaluation, at EvalWorkers 1 and 4. The
// histories, streamed OnGeneration feeds, acceptance counts and best
// individuals must agree bit for bit.
func TestBatchRunMatchesPerOffspringRun(t *testing.T) {
	for _, seed := range []uint64{7, 42, 1001} {
		for _, workers := range []int{1, 4} {
			var batchFeed, fullFeed []GenStats
			batch := mustRun(t, testEngine(t, Config{
				Generations: 60, Seed: seed, EvalWorkers: workers,
				OnGeneration: func(gs GenStats) { batchFeed = append(batchFeed, gs) },
			}))
			full := mustRun(t, oracleEngine(t, Config{
				Generations: 60, Seed: seed,
				OnGeneration: func(gs GenStats) { fullFeed = append(fullFeed, gs) },
			}))
			sameHistories(t, "batch vs oracle", batch.History, full.History)
			sameHistories(t, "batch feed vs oracle feed", batchFeed, fullFeed)
			if !batch.Best.Data.Equal(full.Best.Data) {
				t.Fatalf("seed %d workers %d: best individuals diverged", seed, workers)
			}
			if batch.AcceptedOffspring != full.AcceptedOffspring {
				t.Fatalf("seed %d workers %d: accepted %d vs %d", seed, workers,
					batch.AcceptedOffspring, full.AcceptedOffspring)
			}
		}
	}
}

// TestBatchRunCrowdingSwapEquivalence drives the cross-parentage state
// commit: under CrowdNearestParent a child can win a slot whose occupant
// is not its biological parent, so the batch route must clone or transfer
// the right parent's state. Forced crossover maximizes swap traffic.
func TestBatchRunCrowdingSwapEquivalence(t *testing.T) {
	for _, seed := range []uint64{11, 67} {
		cfg := Config{Generations: 80, Seed: seed, ForceOp: "crossover", Crowding: CrowdNearestParent, EvalWorkers: 2}
		batch := mustRun(t, testEngine(t, cfg))
		full := mustRun(t, oracleEngine(t, cfg))
		sameHistories(t, "crowding batch vs oracle", batch.History, full.History)
		if !batch.Best.Data.Equal(full.Best.Data) {
			t.Fatalf("seed %d: crowding-swap runs diverged", seed)
		}
	}
}

// TestBatchStatesStayConsistent re-scores every individual from scratch
// after a batch run: cached evaluations must match, and every carried
// delta state must still describe its individual (a further delta
// evaluation through it equals a fresh one).
func TestBatchStatesStayConsistent(t *testing.T) {
	e := testEngine(t, Config{Generations: 80, Seed: 55, EvalWorkers: 2})
	mustRun(t, e)
	for i, ind := range e.Population() {
		want, err := e.eval.Evaluate(ind.Data)
		if err != nil {
			t.Fatal(err)
		}
		if ind.Eval.Score != want.Score || ind.Eval.IL != want.IL || ind.Eval.DR != want.DR {
			t.Fatalf("individual %d (%s): cached (IL=%v DR=%v) != fresh (IL=%v DR=%v)",
				i, ind.Origin, ind.Eval.IL, ind.Eval.DR, want.IL, want.DR)
		}
		if ind.state == nil {
			continue
		}
		child := ind.Data.Clone()
		rng := rand.New(rand.NewPCG(9, uint64(i)))
		changes := []dataset.CellChange{dataset.RandomChange(rng, child, e.attrs)}
		groups := []score.BatchGroup{{Parent: ind.Eval, State: ind.state,
			Offspring: []score.BatchOffspring{{Child: child, Changes: changes}}}}
		if err := e.eval.EvaluateBatch(groups, 1); err != nil {
			t.Fatalf("individual %d: carried state rejected a delta evaluation: %v", i, err)
		}
		got := groups[0].Offspring[0].Eval
		fresh, err := e.eval.Evaluate(child)
		if err != nil {
			t.Fatal(err)
		}
		if got.Score != fresh.Score || got.IL != fresh.IL || got.DR != fresh.DR {
			t.Fatalf("individual %d: carried state drifted: delta (IL=%v DR=%v) vs fresh (IL=%v DR=%v)",
				i, got.IL, got.DR, fresh.IL, fresh.DR)
		}
	}
}

// TestBatchHeterogeneousEnginesEquivalence is the niched-islands
// equivalence: heterogeneous engines (different aggregators, selection,
// crossover and crowding policies) sharing one initial population, with
// periodic migration between them, must match the oracle bit for bit.
func TestBatchHeterogeneousEnginesEquivalence(t *testing.T) {
	run := func(sc score.Config) [][]GenStats {
		eval, pop := testPopulationWith(t, sc)
		cfgs := []Config{
			{Generations: 30, Seed: 31, Aggregator: "mean", EvalWorkers: 4},
			{Generations: 30, Seed: 32, Selection: SelectRank, CrossoverPoints: 3},
			{Generations: 30, Seed: 33, Crowding: CrowdNearestParent, ForceOp: "crossover"},
		}
		engines, err := NewEngines(context.Background(), eval, pop, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		for g := 0; g < 30; g++ {
			for _, e := range engines {
				e.Step()
			}
			if g%10 == 9 {
				// Ring migration, delta states cloned along (Emigrants).
				for i, e := range engines {
					engines[(i+1)%len(engines)].Immigrate(e.Emigrants(2))
				}
			}
		}
		out := make([][]GenStats, len(engines))
		for i, e := range engines {
			out[i] = e.History()
		}
		return out
	}
	batch, full := run(score.Config{}), run(scoretest.Strip(score.Config{}))
	for i := range batch {
		sameHistories(t, "hetero island", batch[i], full[i])
	}
}
