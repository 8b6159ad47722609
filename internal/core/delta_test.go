package core

import (
	"bytes"
	"testing"
)

// TestDeltaRunMatchesFullEvaluationRun is the engine-level equivalence
// property per operator: with every generation pinned to mutation (one
// offspring, always a narrow edit) or to crossover (two offspring, some
// past the wide-edit break-even point), the batch route and the
// full-evaluation oracle must produce bit-identical histories across
// several seeds. Both runs draw the same random stream, so any divergence
// can only come from a delta evaluation that is not bit-equal to the full
// one.
func TestDeltaRunMatchesFullEvaluationRun(t *testing.T) {
	for _, op := range []string{"mutation", "crossover"} {
		for _, seed := range []uint64{7, 42, 1001} {
			cfg := Config{Generations: 60, Seed: seed, ForceOp: op}
			delta := mustRun(t, testEngine(t, cfg))
			full := mustRun(t, oracleEngine(t, cfg))
			sameHistories(t, op+" delta vs oracle", delta.History, full.History)
			if !delta.Best.Data.Equal(full.Best.Data) {
				t.Fatalf("%s seed %d: best individuals diverged", op, seed)
			}
		}
	}
}

// TestDeltaEvaluationsMatchFreshEvaluate re-scores every individual from
// scratch after a run and demands the cached (delta-derived) evaluations
// agree bit-for-bit, parts maps included.
func TestDeltaEvaluationsMatchFreshEvaluate(t *testing.T) {
	e := testEngine(t, Config{Generations: 80, Seed: 55})
	mustRun(t, e)
	for i, ind := range e.Population() {
		want, err := e.eval.Evaluate(ind.Data)
		if err != nil {
			t.Fatal(err)
		}
		got := ind.Eval
		if got.Score != want.Score || got.IL != want.IL || got.DR != want.DR {
			t.Fatalf("individual %d (%s): cached (IL=%v DR=%v Score=%v) != fresh (IL=%v DR=%v Score=%v)",
				i, ind.Origin, got.IL, got.DR, got.Score, want.IL, want.DR, want.Score)
		}
		for k, v := range want.ILParts {
			if got.ILParts[k] != v {
				t.Fatalf("individual %d: ILParts[%s] = %v, want %v", i, k, got.ILParts[k], v)
			}
		}
		for k, v := range want.DRParts {
			if got.DRParts[k] != v {
				t.Fatalf("individual %d: DRParts[%s] = %v, want %v", i, k, got.DRParts[k], v)
			}
		}
	}
}

// TestSnapshotResumeWithDeltaEvaluation proves the checkpoint property
// holds while delta evaluation is active: resumed individuals restart
// with no incremental state, rebuild it lazily, and still reproduce the
// uninterrupted run's scores exactly.
func TestSnapshotResumeWithDeltaEvaluation(t *testing.T) {
	const n, m = 20, 25
	ref := testEngine(t, Config{Generations: n + m, Seed: 202})
	refRes := mustRun(t, ref)

	first := testEngine(t, Config{Generations: n, Seed: 202})
	mustRun(t, first)
	var buf bytes.Buffer
	if err := first.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	eval, _ := testPopulation(t)
	resumed, err := Resume(eval, &buf, Config{Generations: m, Seed: 202})
	if err != nil {
		t.Fatal(err)
	}
	for _, ind := range resumed.Population() {
		if ind.state != nil {
			t.Fatal("resumed individual carries a serialized delta state; states must rebuild lazily")
		}
	}
	resRes := mustRun(t, resumed)
	if len(resRes.History) != n+m {
		t.Fatalf("resumed history = %d, want %d", len(resRes.History), n+m)
	}
	for i := range refRes.History {
		a, b := refRes.History[i], resRes.History[i]
		a.EvalTime, a.TotalTime = 0, 0
		b.EvalTime, b.TotalTime = 0, 0
		if a != b {
			t.Fatalf("generation %d diverged:\nref: %+v\nres: %+v", i+1, a, b)
		}
	}
	if refRes.Best.Eval.Score != resRes.Best.Eval.Score || !refRes.Best.Data.Equal(resRes.Best.Data) {
		t.Fatal("best individual diverged after resume with delta evaluation")
	}
}

// TestOffspringCarryDeltaState: after a run with delta evaluation, any
// accepted offspring must carry a state derived from its parent's, and
// parents that reproduced must have materialized theirs.
func TestOffspringCarryDeltaState(t *testing.T) {
	e := testEngine(t, Config{Generations: 60, Seed: 77})
	res := mustRun(t, e)
	if res.AcceptedOffspring == 0 {
		t.Skip("no offspring accepted; nothing to check")
	}
	withState := 0
	for _, ind := range e.Population() {
		if ind.state != nil {
			withState++
		}
	}
	if withState == 0 {
		t.Fatal("no individual carries a delta state after an accepting run")
	}
}
