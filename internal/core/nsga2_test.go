package core

// Tests for Pareto mode: configuration validation, the environmental
// selection primitive (including the single-objective degeneration
// property), fixed-seed determinism and snapshot/resume bit-identity,
// batch/non-batch equivalence, dominance-based migration, and the
// NSGA2Generation benchmark tracked by the CI hot subset.

import (
	"bytes"
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"evoprot/internal/pareto"
	"evoprot/internal/score"
)

func TestObjectiveByName(t *testing.T) {
	for name, want := range map[string]string{"": "", "scalar": ObjectiveScalar, "pareto": ObjectivePareto} {
		got, err := ObjectiveByName(name)
		if err != nil || got != want {
			t.Fatalf("ObjectiveByName(%q) = %q, %v", name, got, err)
		}
	}
	if _, err := ObjectiveByName("lexicographic"); err == nil {
		t.Fatal("unknown objective accepted")
	}
}

func TestObjectiveConfigValidation(t *testing.T) {
	if err := (Config{Objective: "nsga3"}).Validate(); err == nil {
		t.Fatal("bad objective accepted")
	}
	for _, ref := range []score.Pair{
		{IL: -1, DR: 100},
		{IL: 100, DR: -1},
		{IL: math.NaN(), DR: 100},
		{IL: math.Inf(1), DR: 100},
	} {
		if err := (Config{Objective: ObjectivePareto, ParetoRef: ref}).Validate(); err == nil {
			t.Fatalf("ParetoRef %v accepted", ref)
		}
		// The reference is validated even in scalar mode, so a typo in a
		// heterogeneous template surfaces at admission.
		if err := (Config{ParetoRef: ref}).Validate(); err == nil {
			t.Fatalf("scalar-mode ParetoRef %v accepted", ref)
		}
	}
	cfg := Config{Objective: ObjectivePareto}
	c, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if c.ParetoRef != DefaultParetoRef {
		t.Fatalf("defaulted ParetoRef = %v, want %v", c.ParetoRef, DefaultParetoRef)
	}
}

// pairPool wraps raw pairs as individuals scored under Mean, the setup
// the envSelect unit tests drive directly.
func pairPool(pairs []score.Pair) []*Individual {
	pool := make([]*Individual, len(pairs))
	for i, p := range pairs {
		pool[i] = &Individual{Eval: score.Evaluation{IL: p.IL, DR: p.DR, Score: (p.IL + p.DR) / 2}}
	}
	return pool
}

// TestEnvSelectSingleObjectiveMatchesScalar: with one objective tied off
// (all-equal DR) dominance degenerates to the IL order, so NSGA-II
// environmental selection must keep exactly the survivor set a scalarized
// truncation would — the n individuals with the lowest IL (as a
// multiset; ties are interchangeable).
func TestEnvSelectSingleObjectiveMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 29))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.IntN(20)
		extra := 1 + rng.IntN(10)
		dr := float64(rng.IntN(100))
		pairs := make([]score.Pair, n+extra)
		for i := range pairs {
			// A small integer domain forces plenty of exact ties.
			pairs[i] = score.Pair{IL: float64(rng.IntN(12)), DR: dr}
		}
		kept := new(nsgaSort).envSelect(pairPool(pairs), n)
		if len(kept) != n {
			t.Fatalf("trial %d: kept %d of %d", trial, len(kept), n)
		}
		got := make([]float64, n)
		for i, ind := range kept {
			got[i] = ind.Eval.IL
		}
		want := make([]float64, len(pairs))
		for i, p := range pairs {
			want[i] = p.IL
		}
		sort.Float64s(want)
		sort.Float64s(got)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: survivor ILs %v, scalar truncation keeps %v", trial, got, want[:n])
			}
		}
	}
}

// TestEnvSelectKeepsNonDominated: no evicted individual may dominate a
// survivor, and the first front always survives intact when it fits.
func TestEnvSelectKeepsNonDominated(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 31))
	for trial := 0; trial < 100; trial++ {
		n := 3 + rng.IntN(15)
		pairs := make([]score.Pair, n+2)
		for i := range pairs {
			pairs[i] = score.Pair{IL: rng.Float64() * 100, DR: rng.Float64() * 100}
		}
		pool := pairPool(pairs)
		kept := new(nsgaSort).envSelect(pool, n)
		for _, ind := range pool {
			if containsIndividual(kept, ind) {
				continue
			}
			for _, k := range kept {
				if pareto.Dominates(ind.Eval.Pair(), k.Eval.Pair()) {
					t.Fatalf("trial %d: evicted %v dominates survivor %v", trial, ind.Eval.Pair(), k.Eval.Pair())
				}
			}
		}
	}
}

func paretoCfg(cfg Config) Config {
	cfg.Objective = ObjectivePareto
	return cfg
}

// TestParetoRunDeterministic: a fixed seed reproduces a Pareto run bit
// for bit — history (including per-generation fronts), final population
// order and data.
func TestParetoRunDeterministic(t *testing.T) {
	run := func() *Result {
		return mustRun(t, testEngine(t, paretoCfg(Config{Generations: 60, Seed: 91})))
	}
	a, b := run(), run()
	sameHistories(t, "pareto fixed seed", a.History, b.History)
	if len(a.Population) != len(b.Population) {
		t.Fatal("population sizes diverged")
	}
	for i := range a.Population {
		if !a.Population[i].Data.Equal(b.Population[i].Data) {
			t.Fatalf("individual %d diverged", i)
		}
	}
}

// TestParetoFrontStatsPopulated: every Pareto generation carries a
// consistent front summary; scalar runs carry none (their event bytes
// must stay identical to pre-Pareto builds).
func TestParetoFrontStatsPopulated(t *testing.T) {
	res := mustRun(t, testEngine(t, paretoCfg(Config{Generations: 30, Seed: 5})))
	for _, gs := range res.History {
		if gs.Front == nil {
			t.Fatalf("generation %d: no front stats", gs.Gen)
		}
		if gs.Front.Size != len(gs.Front.Pairs) || gs.Front.Size < 1 {
			t.Fatalf("generation %d: front size %d with %d pairs", gs.Gen, gs.Front.Size, len(gs.Front.Pairs))
		}
		if gs.Front.Hypervolume <= 0 {
			t.Fatalf("generation %d: hypervolume %v", gs.Gen, gs.Front.Hypervolume)
		}
		for i, p := range gs.Front.Pairs {
			for j, q := range gs.Front.Pairs {
				if i != j && pareto.Dominates(p, q) {
					t.Fatalf("generation %d: front point %v dominates front point %v", gs.Gen, p, q)
				}
			}
		}
	}
	scalar := mustRun(t, testEngine(t, Config{Generations: 10, Seed: 5}))
	for _, gs := range scalar.History {
		if gs.Front != nil {
			t.Fatalf("scalar generation %d grew front stats", gs.Gen)
		}
	}
}

// TestParetoBestOnFirstFront: the reported best individual is always a
// member of the population's first non-dominated front.
func TestParetoBestOnFirstFront(t *testing.T) {
	e := testEngine(t, paretoCfg(Config{Generations: 40, Seed: 77}))
	mustRun(t, e)
	best := e.Best()
	for _, ind := range e.Population() {
		if pareto.Dominates(ind.Eval.Pair(), best.Eval.Pair()) {
			t.Fatalf("best %v is dominated by %v", best.Eval.Pair(), ind.Eval.Pair())
		}
	}
}

// TestParetoBatchMatchesPerOffspring: Pareto mode must match the
// full-evaluation oracle bit for bit, like scalar mode does — replacement
// and selection read only the (IL, DR) pairs, which both routes produce
// identically, and the environmental-selection state handoff must not
// disturb the trajectory.
func TestParetoBatchMatchesPerOffspring(t *testing.T) {
	for _, seed := range []uint64{7, 42} {
		cfg := paretoCfg(Config{Generations: 60, Seed: seed, EvalWorkers: 2})
		batch := mustRun(t, testEngine(t, cfg))
		full := mustRun(t, oracleEngine(t, cfg))
		sameHistories(t, "pareto batch vs oracle", batch.History, full.History)
		if !batch.Best.Data.Equal(full.Best.Data) {
			t.Fatalf("seed %d: best individuals diverged", seed)
		}
	}
}

// TestParetoStatesStayConsistent: after a Pareto run with its
// any-slot evictions and state transfers, every cached evaluation and
// carried delta state must still describe its individual.
func TestParetoStatesStayConsistent(t *testing.T) {
	e := testEngine(t, paretoCfg(Config{Generations: 80, Seed: 55, EvalWorkers: 2}))
	mustRun(t, e)
	for i, ind := range e.Population() {
		want, err := e.eval.Evaluate(ind.Data)
		if err != nil {
			t.Fatal(err)
		}
		if ind.Eval.IL != want.IL || ind.Eval.DR != want.DR {
			t.Fatalf("individual %d (%s): cached (IL=%v DR=%v) != fresh (IL=%v DR=%v)",
				i, ind.Origin, ind.Eval.IL, ind.Eval.DR, want.IL, want.DR)
		}
	}
}

// TestParetoSnapshotResume: run N+M generations straight, versus run N,
// snapshot, resume, run M — identical histories and final populations.
func TestParetoSnapshotResume(t *testing.T) {
	cfg := paretoCfg(Config{Generations: 40, Seed: 19})
	straight := testEngine(t, cfg)
	for g := 0; g < 40; g++ {
		straight.Step()
	}

	first := testEngine(t, cfg)
	for g := 0; g < 25; g++ {
		first.Step()
	}
	var buf bytes.Buffer
	if err := first.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	eval, _ := testPopulation(t)
	resumed, err := Resume(eval, &buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 15; g++ {
		resumed.Step()
	}
	sameHistories(t, "pareto straight vs snapshot/resume", straight.History(), resumed.History())
	sp, rp := straight.Population(), resumed.Population()
	if len(sp) != len(rp) {
		t.Fatal("population sizes diverged")
	}
	for i := range sp {
		if !sp[i].Data.Equal(rp[i].Data) {
			t.Fatalf("individual %d diverged after resume", i)
		}
	}
}

// TestParetoImmigrate: a dominating migrant is accepted by environmental
// selection, a dominated one is rejected, and a rejected offer leaves the
// tournament state exactly as a fresh sort derives it.
func TestParetoImmigrate(t *testing.T) {
	e := testEngine(t, paretoCfg(Config{Generations: 10, Seed: 3}))
	dominating := &Individual{
		Data: e.pop[0].Data,
		Eval: score.Evaluation{IL: 0, DR: 0},
	}
	if got := e.Immigrate([]*Individual{dominating}); got != 1 {
		t.Fatalf("dominating migrant accepted %d times, want 1", got)
	}
	if e.Best().Eval.Pair() != (score.Pair{}) {
		t.Fatalf("best after migration = %v, want (0,0)", e.Best().Eval.Pair())
	}
	dominated := &Individual{
		Data: e.pop[0].Data,
		Eval: score.Evaluation{IL: 100, DR: 100},
	}
	if got := e.Immigrate([]*Individual{dominated}); got != 0 {
		t.Fatalf("dominated migrant accepted %d times, want 0", got)
	}
}

// TestScalarConfigUnchangedByParetoFields: a zero-objective engine must
// not consult ParetoRef or the NSGA-II machinery — its history is
// bit-identical with and without a stray (valid) reference point.
func TestScalarConfigUnchangedByParetoFields(t *testing.T) {
	plain := mustRun(t, testEngine(t, Config{Generations: 30, Seed: 9}))
	withRef := mustRun(t, testEngine(t, Config{Generations: 30, Seed: 9, ParetoRef: score.Pair{IL: 50, DR: 50}}))
	sameHistories(t, "scalar with stray ParetoRef", plain.History, withRef.History)
}

// BenchmarkNSGA2Generation tracks the Pareto-mode generation cost — the
// non-dominated sort and crowding truncation on top of the shared
// evaluation path. Part of CI's gated -benchtime=5x hot subset.
func BenchmarkNSGA2Generation(b *testing.B) {
	e := benchEngineCfg(b, paretoCfg(Config{Generations: 1 << 30, Seed: 5, InitWorkers: 8}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
