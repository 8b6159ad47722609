package core

// Equivalence tests for generation-batch offspring evaluation, the
// engine's one route: it must walk bit-identical trajectories to the
// capability-stripped oracle, which scores every offspring in full —
// histories, event feeds and final populations — at every worker width,
// under both crowding policies, and across heterogeneous engines
// exchanging migrants.

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"evoprot/internal/dataset"
	"evoprot/internal/dataset/datasettest"
	"evoprot/internal/score"
	"evoprot/internal/score/scoretest"
)

// TestBatchRunMatchesPerOffspringRun: same seed, batch route against the
// oracle's full per-offspring evaluation, at EvalWorkers 1 and 4. The
// histories, acceptance counts and best individuals must agree bit for
// bit.
func TestBatchRunMatchesPerOffspringRun(t *testing.T) {
	for _, seed := range []uint64{7, 42, 1001} {
		for _, workers := range []int{1, 4} {
			batch := mustRun(t, testEngine(t, Config{Generations: 60, Seed: seed, EvalWorkers: workers}))
			full := mustRun(t, oracleEngine(t, Config{Generations: 60, Seed: seed}))
			sameHistories(t, "batch vs oracle", batch.History, full.History)
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
// delta state must be settled and still describe its individual (a
// further delta evaluation through it equals a fresh one). It runs a
// scalar and a Pareto engine, and a two-member crossover-only engine
// that crosses an individual with itself, the only way two offspring
// share a parent's state; every such generation must stage two empty
// change lists, so that state never holds a sibling's pending edit.
func TestBatchStatesStayConsistent(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     Config
		members int // population prefix; 0 keeps all
	}{
		{"scalar", Config{Generations: 80, Seed: 55, EvalWorkers: 2}, 0},
		{"pareto", Config{Generations: 80, Seed: 55, EvalWorkers: 2, Objective: ObjectivePareto}, 0},
		{"self-crossover", Config{Generations: 300, Seed: 55, ForceOp: "crossover", Selection: SelectRank}, 2},
	} {
		eval, pop := testPopulation(t)
		if tc.members > 0 {
			pop = pop[:tc.members]
		}
		e, err := NewEngine(eval, pop, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		selfCrosses := 0
		for g := range tc.cfg.Generations {
			e.Step()
			if e.bChildren[0].Origin == "crossover" && e.bParents[0] == e.bParents[1] {
				selfCrosses++
				if len(e.bChanges[0]) > 0 || len(e.bChanges[1]) > 0 {
					t.Fatalf("%s: generation %d crossed an individual with itself into %d and %d changes",
						tc.name, g, len(e.bChanges[0]), len(e.bChanges[1]))
				}
			}
		}
		if tc.members > 0 && selfCrosses == 0 {
			t.Fatalf("%s: no generation crossed an individual with itself", tc.name)
		}
		for i, ind := range e.Population() {
			requireStateDescribes(t, e, ind, fmt.Sprintf("%s: individual %d (%s)", tc.name, i, ind.Origin), uint64(i))
		}
	}
}

// requireStateDescribes checks ind's cached evaluation against a fresh
// one and, when ind carries a delta state, that the state is settled and
// scores a one-cell offspring of ind like a fresh evaluation does.
func requireStateDescribes(t *testing.T, e *Engine, ind *Individual, ctx string, seed uint64) {
	t.Helper()
	want, err := e.eval.Evaluate(ind.Data)
	if err != nil {
		t.Fatal(err)
	}
	if ind.Eval.Score != want.Score || ind.Eval.IL != want.IL || ind.Eval.DR != want.DR {
		t.Fatalf("%s: cached (IL=%v DR=%v) != fresh (IL=%v DR=%v)",
			ctx, ind.Eval.IL, ind.Eval.DR, want.IL, want.DR)
	}
	if ind.state == nil {
		return
	}
	child := ind.Data.Clone()
	rng := rand.New(rand.NewPCG(9, seed))
	changes := []dataset.CellChange{datasettest.RandomChange(rng, child, e.attrs)}
	got, _, err := e.eval.EvaluateEdit(ind.Eval, ind.Data, ind.state, changes)
	if err != nil {
		t.Fatalf("%s: carried state rejected a delta evaluation: %v", ctx, err)
	}
	e.eval.Restore(ind.state)
	fresh, err := e.eval.Evaluate(child)
	if err != nil {
		t.Fatal(err)
	}
	if got.Score != fresh.Score || got.IL != fresh.IL || got.DR != fresh.DR {
		t.Fatalf("%s: carried state drifted: delta (IL=%v DR=%v) vs fresh (IL=%v DR=%v)",
			ctx, got.IL, got.DR, fresh.IL, fresh.DR)
	}
}

// TestCommitAroundPendingEdit drives commitSurvivor directly on the
// two offspring shapes the engine stages from one parent: one narrow
// offspring, whose edit the parent's state holds pending, and a
// self-crossover pair, whose empty change lists leave it settled. With
// every offspring surviving and the parent evicted or alive, the parent
// and each survivor must hold a state that describes it, or none: the
// evicted parent's state goes to the first survivor, which a state still
// holding any other edit would fail, and a living parent's is cloned. Scoring a second narrow offspring against a state
// that still holds a sibling's pending edit is a programming error and
// panics.
func TestCommitAroundPendingEdit(t *testing.T) {
	for _, tc := range []struct {
		name     string
		self     bool // a self-crossover pair; otherwise one mutation offspring
		evicted  bool
		stateful []bool // parent, then each offspring
	}{
		{"narrow offspring, parent evicted", false, true, []bool{false, true}},
		{"narrow offspring, parent lives", false, false, []bool{true, true}},
		{"self-crossover pair, parent evicted", true, true, []bool{false, true, false}},
		{"self-crossover pair, parent lives", true, false, []bool{true, true, true}},
	} {
		e := testEngine(t, Config{Generations: 1, Seed: 3})
		parent := e.pop[0]
		var children []*Individual
		if tc.self {
			c1, c2, ch1, ch2 := e.cross(parent, parent)
			children = []*Individual{c1, c2}
			e.bChanges[0], e.bChanges[1] = ch1, ch2
		} else {
			c, ch := e.mutate(parent)
			children = []*Individual{c}
			e.bChanges[0] = ch
		}
		n := len(children)
		for k, c := range children {
			e.bParents[k], e.bChildren[k] = parent, c
		}
		e.evaluateStaged(n)
		for k, c := range children {
			e.commitSurvivor(c, parent, e.bChanges[k], tc.evicted)
		}
		e.settleStates()
		for k, ind := range append([]*Individual{parent}, children...) {
			if (ind.state != nil) != tc.stateful[k] {
				t.Fatalf("%s: individual %d has a state: %v, want %v", tc.name, k, ind.state != nil, tc.stateful[k])
			}
			requireStateDescribes(t, e, ind, fmt.Sprintf("%s: individual %d", tc.name, k), uint64(k))
		}
	}

	e := testEngine(t, Config{Generations: 1, Seed: 3})
	parent := e.pop[0]
	c1, ch := e.mutate(parent)
	ch1 := slices.Clone(ch)
	c2, ch2 := e.mutate(parent)
	e.bParents[0], e.bChildren[0], e.bChanges[0] = parent, c1, ch1
	e.bParents[1], e.bChildren[1], e.bChanges[1] = parent, c2, ch2
	defer func() {
		if recover() == nil {
			t.Fatal("scoring two narrow offspring against one parent state did not panic")
		}
	}()
	e.evaluateStaged(2)
}

// TestBatchHeterogeneousEnginesEquivalence is the niched-islands
// equivalence: heterogeneous engines (different aggregators, selection,
// operator and crowding policies) sharing one initial population, with
// periodic migration between them, must match the oracle bit for bit.
func TestBatchHeterogeneousEnginesEquivalence(t *testing.T) {
	run := func(sc score.Config) [][]GenStats {
		eval, pop := testPopulationWith(t, sc)
		cfgs := []Config{
			{Generations: 30, Seed: 31, Aggregator: "mean", EvalWorkers: 4},
			{Generations: 30, Seed: 32, Selection: SelectRank},
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
