package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand/v2"
	"testing"
	"time"

	"evoprot/internal/datagen"
	"evoprot/internal/datagen/datagentest"
	"evoprot/internal/dataset"
	"evoprot/internal/protection"
	"evoprot/internal/protection/protectiontest"
	"evoprot/internal/score"
	"evoprot/internal/score/scoretest"
)

// mustRun executes a full run under a background context, failing the
// test on any run error.
func mustRun(t *testing.T, e *Engine) *Result {
	t.Helper()
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// testEngine builds a small but realistic engine: flare-shaped data, a
// 14-individual population from all six masking families.
func testEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	eval, pop := testPopulation(t)
	e, err := NewEngine(eval, pop, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// oracleEngine builds testEngine's engine over the capability-stripped
// battery: every offspring is scored by full Loss/Risk, the reference
// trajectory the batch route must reproduce bit for bit.
func oracleEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	eval, pop := testPopulationWith(t, scoretest.Strip(score.Config{}))
	e, err := NewEngine(eval, pop, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func testPopulation(t *testing.T) (*score.Evaluator, []*Individual) {
	t.Helper()
	return testPopulationWith(t, score.Config{})
}

// testPopulationWith is testPopulation over the given measure battery.
func testPopulationWith(t *testing.T, sc score.Config) (*score.Evaluator, []*Individual) {
	t.Helper()
	d := datagentest.MustByName("flare", 90, 23)
	names, _ := datagen.ProtectedAttrs("flare")
	attrs, err := d.Schema().Indices(names...)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := score.NewEvaluator(d, attrs, sc)
	if err != nil {
		t.Fatal(err)
	}
	specs := []string{
		"micro:k=2", "micro:k=4", "micro:k=6", "micro:k=8",
		"top:q=0.1", "top:q=0.25", "bottom:q=0.1", "bottom:q=0.25",
		"recode:depth=1", "recode:depth=2",
		"rankswap:p=5", "rankswap:p=15",
		"pram:theta=0.9", "pram:theta=0.6",
	}
	rng := rand.New(rand.NewPCG(77, 1))
	pop := make([]*Individual, len(specs))
	for i, s := range specs {
		m := protectiontest.Must(s)
		masked, err := m.Protect(d, attrs, rng)
		if err != nil {
			t.Fatal(err)
		}
		pop[i] = NewIndividual(masked, protection.String(m))
	}
	return eval, pop
}

// scoreEvaluatorOverFirstAttr builds an evaluator protecting only column
// 0 of the dataset — a deliberately different QI set for mismatch tests.
func scoreEvaluatorOverFirstAttr(orig *dataset.Dataset) (*score.Evaluator, error) {
	return score.NewEvaluator(orig, []int{0}, score.Config{})
}

func TestNewEngineErrors(t *testing.T) {
	eval, pop := testPopulation(t)
	if _, err := NewEngine(nil, pop, Config{Generations: 5}); err == nil {
		t.Error("nil evaluator accepted")
	}
	if _, err := NewEngine(eval, pop[:1], Config{Generations: 5}); err == nil {
		t.Error("population of 1 accepted")
	}
	if _, err := NewEngine(eval, []*Individual{pop[0], nil}, Config{Generations: 5}); err == nil {
		t.Error("nil individual accepted")
	}
	if _, err := NewEngine(eval, pop, Config{Generations: -1}); err == nil {
		t.Error("negative generations accepted")
	}
	if _, err := NewEngine(eval, pop, Config{Generations: 5, MutationRate: 1.5}); err == nil {
		t.Error("mutation rate 1.5 accepted")
	}
	if _, err := NewEngine(eval, pop, Config{Generations: 5, LeaderFraction: -0.1}); err == nil {
		t.Error("negative leader fraction accepted")
	}
	if _, err := NewEngine(eval, pop, Config{Generations: 5, ForceOp: "sideways"}); err == nil {
		t.Error("bad ForceOp accepted")
	}
}

func TestInitialPopulationEvaluatedAndSorted(t *testing.T) {
	e := testEngine(t, Config{Generations: 5, Seed: 1})
	pop := e.Population()
	for i, ind := range pop {
		if ind.Eval.Score <= 0 {
			t.Errorf("individual %d has score %v", i, ind.Eval.Score)
		}
		if i > 0 && pop[i-1].Eval.Score > ind.Eval.Score {
			t.Errorf("population not sorted at %d", i)
		}
	}
	if e.Evaluations() != len(pop) {
		t.Errorf("Evaluations = %d, want %d", e.Evaluations(), len(pop))
	}
	if e.Best() != pop[0] {
		t.Error("Best is not the first of the sorted population")
	}
}

func TestInitWorkersMatchesSequential(t *testing.T) {
	eval, pop := testPopulation(t)
	seq, err := NewEngine(eval, pop, Config{Generations: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewEngine(eval, pop, Config{Generations: 1, Seed: 9, InitWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	a, b := seq.Population(), par.Population()
	for i := range a {
		if a[i].Eval.Score != b[i].Eval.Score {
			t.Fatalf("parallel init differs at %d: %v vs %v", i, a[i].Eval.Score, b[i].Eval.Score)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := mustRun(t, testEngine(t, Config{Generations: 25, Seed: 42}))
	b := mustRun(t, testEngine(t, Config{Generations: 25, Seed: 42}))
	if len(a.History) != len(b.History) {
		t.Fatal("history lengths differ")
	}
	for i := range a.History {
		if a.History[i] != b.History[i] {
			// Timing fields differ; compare the deterministic parts.
			x, y := a.History[i], b.History[i]
			x.EvalTime, x.TotalTime = 0, 0
			y.EvalTime, y.TotalTime = 0, 0
			if x != y {
				t.Fatalf("generation %d differs: %+v vs %+v", i, x, y)
			}
		}
	}
	c := mustRun(t, testEngine(t, Config{Generations: 25, Seed: 43}))
	same := true
	for i := range a.History {
		if i >= len(c.History) || a.History[i].Op != c.History[i].Op {
			same = false
			break
		}
	}
	if same && a.Best.Eval.Score == c.Best.Eval.Score && a.Best.Data.Equal(c.Best.Data) {
		t.Error("different seeds produced identical runs")
	}
}

func TestElitismBestNeverWorsens(t *testing.T) {
	e := testEngine(t, Config{Generations: 40, Seed: 3})
	prev := e.Best().Eval.Score
	for g := 0; g < 40; g++ {
		gs := e.Step()
		if gs.Min > prev+1e-12 {
			t.Fatalf("generation %d: best worsened from %v to %v", gs.Gen, prev, gs.Min)
		}
		prev = gs.Min
	}
}

func TestMeanNeverWorsens(t *testing.T) {
	// Replacement only happens on strict improvement, so the population
	// mean is non-increasing — the paper's "more or less continuous
	// decrement" of the mean score.
	e := testEngine(t, Config{Generations: 40, Seed: 5})
	prev := e.Stats().Mean
	for g := 0; g < 40; g++ {
		gs := e.Step()
		if gs.Mean > prev+1e-9 {
			t.Fatalf("generation %d: mean worsened from %v to %v", gs.Gen, prev, gs.Mean)
		}
		prev = gs.Mean
	}
}

func TestRunHistoryBookkeeping(t *testing.T) {
	e := testEngine(t, Config{Generations: 30, Seed: 7})
	res := mustRun(t, e)
	if res.Generations != 30 || len(res.History) != 30 {
		t.Fatalf("generations = %d, history = %d", res.Generations, len(res.History))
	}
	wantEvals := len(res.Population)
	for i, gs := range res.History {
		if gs.Gen != i+1 {
			t.Errorf("history %d has Gen %d", i, gs.Gen)
		}
		switch gs.Op {
		case "mutation":
			if gs.Evals != 1 {
				t.Errorf("mutation generation with %d evals", gs.Evals)
			}
		case "crossover":
			if gs.Evals != 2 {
				t.Errorf("crossover generation with %d evals", gs.Evals)
			}
		default:
			t.Errorf("unknown op %q", gs.Op)
		}
		wantEvals += gs.Evals
		if gs.Min > gs.Mean || gs.Mean > gs.Max {
			t.Errorf("generation %d: min/mean/max out of order: %+v", i, gs)
		}
	}
	if res.Evaluations != wantEvals {
		t.Errorf("Evaluations = %d, want %d", res.Evaluations, wantEvals)
	}
}

func TestForceOpPinsOperator(t *testing.T) {
	for _, op := range []string{"mutation", "crossover"} {
		e := testEngine(t, Config{Generations: 10, Seed: 11, ForceOp: op})
		res := mustRun(t, e)
		for _, gs := range res.History {
			if gs.Op != op {
				t.Fatalf("ForceOp=%s produced op %s", op, gs.Op)
			}
		}
	}
}

func TestNoImprovementWindowStopsEarly(t *testing.T) {
	e := testEngine(t, Config{Generations: 500, Seed: 13, NoImprovementWindow: 5})
	res := mustRun(t, e)
	if res.Generations == 500 {
		t.Skip("run never stagnated for 5 generations; extremely unlikely but not a failure")
	}
	// The last 5 generations must be non-improving.
	h := res.History
	for _, gs := range h[len(h)-5:] {
		if gs.Improved {
			t.Fatalf("early stop despite improvement in window: %+v", gs)
		}
	}
}

func TestMutateChangesExactlyOneGene(t *testing.T) {
	e := testEngine(t, Config{Generations: 1, Seed: 17})
	parent := e.Population()[3]
	for i := 0; i < 50; i++ {
		child, changes := e.mutate(parent)
		if child.Data != nil {
			t.Fatal("mutation built the offspring's file")
		}
		if len(changes) != 1 {
			t.Fatalf("mutation reported %d changes, want 1", len(changes))
		}
		ch := changes[0]
		data := parent.Data.CloneWith(changes)
		if data.At(ch.Row, ch.Col) != ch.New || parent.Data.At(ch.Row, ch.Col) != ch.Old {
			t.Fatalf("change record %+v does not match the datasets", ch)
		}
		if got := data.Mismatches(parent.Data, e.attrs); got != 1 {
			t.Fatalf("mutation changed %d genes, want 1", got)
		}
		// Unprotected columns untouched.
		if got := data.Mismatches(parent.Data, nil); got != 1 {
			t.Fatalf("mutation leaked outside protected attributes (%d cells)", got)
		}
		if child.Origin != "mutation" {
			t.Fatalf("origin = %q", child.Origin)
		}
	}
}

func TestCrossoverIsComplementary(t *testing.T) {
	e := testEngine(t, Config{Generations: 1, Seed: 19})
	pop := e.Population()
	p1, p2 := pop[0], pop[5]
	parentDiff := p1.Data.Mismatches(p2.Data, e.attrs)
	for i := 0; i < 50; i++ {
		c1, c2, ch1, ch2 := e.cross(p1, p2)
		if c1.Data != nil || c2.Data != nil {
			t.Fatal("crossover built an offspring's file")
		}
		c1.Data, c2.Data = p1.Data.CloneWith(ch1), p2.Data.CloneWith(ch2)
		// The change lists are each child's exact diff against its parent.
		if want := diff(p1.Data, c1.Data, e.attrs); len(ch1) != len(want) {
			t.Fatalf("c1 change list has %d entries, diff has %d", len(ch1), len(want))
		}
		if want := diff(p2.Data, c2.Data, e.attrs); len(ch2) != len(want) {
			t.Fatalf("c2 change list has %d entries, diff has %d", len(ch2), len(want))
		}
		// Every gene of c1 comes from p1 or p2 at the same position, and
		// c2 takes the complementary choice.
		rows := p1.Data.Rows()
		for r := 0; r < rows; r++ {
			for _, col := range e.attrs {
				v1, v2 := p1.Data.At(r, col), p2.Data.At(r, col)
				g1, g2 := c1.Data.At(r, col), c2.Data.At(r, col)
				ok := (g1 == v1 && g2 == v2) || (g1 == v2 && g2 == v1)
				if !ok {
					t.Fatalf("gene (%d,%d): parents (%d,%d), children (%d,%d)", r, col, v1, v2, g1, g2)
				}
			}
		}
		// Swapped-segment structure: c1's distance to p1 plus its distance
		// to p2 equals the parents' distance. Nearest-parent crowding
		// reads all four distances off this identity.
		if d1, d2 := c1.Data.Mismatches(p1.Data, e.attrs), c1.Data.Mismatches(p2.Data, e.attrs); d1+d2 != parentDiff {
			t.Fatalf("crossover not segment-structured: %d + %d != %d", d1, d2, parentDiff)
		}
	}
}

// diff returns the cell changes that turn from into to over the given
// columns, in row-major order. Both datasets must have the same shape.
func diff(from, to *dataset.Dataset, attrs []int) []dataset.CellChange {
	var out []dataset.CellChange
	for r := 0; r < from.Rows(); r++ {
		for _, c := range attrs {
			if u, v := from.At(r, c), to.At(r, c); u != v {
				out = append(out, dataset.CellChange{Row: r, Col: c, Old: u, New: v})
			}
		}
	}
	return out
}

// TestSelfCrossoverChangesNothing pins the invariant the survivor commit
// rests on: crossing an individual with itself swaps equal values, so
// both change lists are empty and both offspring equal the parent.
func TestSelfCrossoverChangesNothing(t *testing.T) {
	e := testEngine(t, Config{Generations: 1, Seed: 19})
	p := e.Population()[3]
	for i := 0; i < 60; i++ {
		c1, c2, ch1, ch2 := e.cross(p, p)
		if len(ch1) != 0 || len(ch2) != 0 {
			t.Fatalf("self-crossover staged %d and %d changes", len(ch1), len(ch2))
		}
		if c1.Data != nil || c2.Data != nil {
			t.Fatal("self-crossover built an offspring's file")
		}
		if !p.Data.CloneWith(ch1).Equal(p.Data) || !p.Data.CloneWith(ch2).Equal(p.Data) {
			t.Fatal("self-crossover offspring differ from the parent")
		}
	}
}

func TestSelectionFavorsGoodIndividuals(t *testing.T) {
	e := testEngine(t, Config{Generations: 1, Seed: 23})
	n := len(e.pop)
	draws := 20000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[e.selectIndex()]++
	}
	// Best individual (index 0) must be drawn more often than the worst.
	if counts[0] <= counts[n-1] {
		t.Fatalf("inverse-proportional selection drew best %d times, worst %d times", counts[0], counts[n-1])
	}
}

func TestRawProportionalFavorsBadIndividuals(t *testing.T) {
	e := testEngine(t, Config{Generations: 1, Seed: 29, Selection: SelectRawProportional})
	n := len(e.pop)
	counts := make([]int, n)
	for i := 0; i < 20000; i++ {
		counts[e.selectIndex()]++
	}
	// The literal Eq. 3 favours high scores — the documented inversion.
	if counts[0] >= counts[n-1] {
		t.Fatalf("raw-proportional drew best %d, worst %d; expected the reverse", counts[0], counts[n-1])
	}
}

func TestSelectionPoliciesRun(t *testing.T) {
	for _, sel := range []SelectionPolicy{SelectInverseProportional, SelectRawProportional, SelectRank, SelectUniform} {
		e := testEngine(t, Config{Generations: 8, Seed: 31, Selection: sel})
		res := mustRun(t, e)
		if len(res.History) != 8 {
			t.Errorf("%v: history %d", sel, len(res.History))
		}
	}
}

func TestSelectionByName(t *testing.T) {
	cases := map[string]SelectionPolicy{
		"":                     SelectInverseProportional,
		"inverse":              SelectInverseProportional,
		"inverse-proportional": SelectInverseProportional,
		"raw":                  SelectRawProportional,
		"rank":                 SelectRank,
		"uniform":              SelectUniform,
	}
	for name, want := range cases {
		got, err := SelectionByName(name)
		if err != nil || got != want {
			t.Errorf("SelectionByName(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := SelectionByName("tournament"); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestCrowdingPoliciesRun(t *testing.T) {
	for _, cr := range []CrowdingPolicy{CrowdParentIndex, CrowdNearestParent} {
		e := testEngine(t, Config{Generations: 12, Seed: 37, Crowding: cr, ForceOp: "crossover"})
		res := mustRun(t, e)
		if len(res.History) != 12 {
			t.Errorf("%v: history %d", cr, len(res.History))
		}
	}
}

func TestPolicyStrings(t *testing.T) {
	if SelectInverseProportional.String() != "inverse-proportional" {
		t.Error("selection String")
	}
	if CrowdParentIndex.String() != "parent-index" || CrowdNearestParent.String() != "nearest-parent" {
		t.Error("crowding String")
	}
	if SelectionPolicy(99).String() == "" || CrowdingPolicy(99).String() == "" {
		t.Error("unknown policy String empty")
	}
}

func TestLeaderSizeBounds(t *testing.T) {
	e := testEngine(t, Config{Generations: 1, Seed: 41, LeaderFraction: 0.01})
	if nb := e.leaderSize(); nb != 2 {
		t.Errorf("leaderSize floor = %d, want 2", nb)
	}
	e2 := testEngine(t, Config{Generations: 1, Seed: 41, LeaderFraction: 1})
	if nb := e2.leaderSize(); nb != len(e2.pop) {
		t.Errorf("leaderSize cap = %d, want %d", nb, len(e2.pop))
	}
}

func TestStatsSnapshot(t *testing.T) {
	e := testEngine(t, Config{Generations: 1, Seed: 43})
	gs := e.Stats()
	if gs.Gen != 0 {
		t.Errorf("Stats Gen = %d, want 0", gs.Gen)
	}
	if gs.Min > gs.Mean || gs.Mean > gs.Max {
		t.Errorf("Stats out of order: %+v", gs)
	}
	pop := e.Population()
	if gs.Min != pop[0].Eval.Score {
		t.Errorf("Stats Min = %v, best = %v", gs.Min, pop[0].Eval.Score)
	}
}

func TestOffspringStayInDomain(t *testing.T) {
	e := testEngine(t, Config{Generations: 60, Seed: 47})
	mustRun(t, e)
	for i, ind := range e.Population() {
		if err := ind.Data.Validate(); err != nil {
			t.Fatalf("individual %d invalid after run: %v", i, err)
		}
	}
}

func TestGenePosMapping(t *testing.T) {
	e := testEngine(t, Config{Generations: 1, Seed: 53})
	a := len(e.attrs)
	n := e.eval.Orig().Rows()
	if e.geneCount() != n*a {
		t.Fatalf("geneCount = %d, want %d", e.geneCount(), n*a)
	}
	seen := make(map[[2]int]bool)
	for g := 0; g < e.geneCount(); g++ {
		r, c := e.genePos(g)
		if r < 0 || r >= n {
			t.Fatalf("gene %d maps to row %d", g, r)
		}
		found := false
		for _, col := range e.attrs {
			if col == c {
				found = true
			}
		}
		if !found {
			t.Fatalf("gene %d maps to unprotected column %d", g, c)
		}
		seen[[2]int{r, c}] = true
	}
	if len(seen) != n*a {
		t.Fatalf("gene mapping not a bijection: %d cells", len(seen))
	}
}

func TestPopulationReturnsCopy(t *testing.T) {
	e := testEngine(t, Config{Generations: 1, Seed: 59})
	pop := e.Population()
	pop[0] = nil
	if e.Best() == nil {
		t.Fatal("Population leaked internal slice")
	}
}

func TestHistoryReturnsCopy(t *testing.T) {
	e := testEngine(t, Config{Generations: 3, Seed: 61})
	mustRun(t, e)
	h := e.History()
	if len(h) != 3 {
		t.Fatalf("history = %d", len(h))
	}
	h[0].Gen = 999
	if e.History()[0].Gen == 999 {
		t.Fatal("History leaked internal slice")
	}
}

func TestCrossoverOriginLabels(t *testing.T) {
	e := testEngine(t, Config{Generations: 1, Seed: 67})
	pop := e.Population()
	c1, c2, _, _ := e.cross(pop[0], pop[1])
	if c1.Origin != "crossover" || c2.Origin != "crossover" {
		t.Fatalf("origins = %q, %q", c1.Origin, c2.Origin)
	}
}

func TestRunContextCancellation(t *testing.T) {
	e := testEngine(t, Config{Generations: 10000, Seed: 79})
	for range 7 {
		e.Step()
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := e.Run(ctx)
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if res == nil || res.Generations != 7 {
		t.Fatalf("partial result has %d generations, want 7", res.Generations)
	}
	if len(res.History) != 7 {
		t.Fatalf("history = %d", len(res.History))
	}
	if res.StopReason != StopCancelled {
		t.Fatalf("stop reason = %q, want %q", res.StopReason, StopCancelled)
	}
}

func TestRunDeadlineStopReason(t *testing.T) {
	e := testEngine(t, Config{Generations: 1 << 30, Seed: 81})
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	<-ctx.Done()
	res, err := e.Run(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if res.StopReason != StopDeadline {
		t.Fatalf("stop reason = %q, want %q", res.StopReason, StopDeadline)
	}
}

func TestRunStopReasons(t *testing.T) {
	if res := mustRun(t, testEngine(t, Config{Generations: 5, Seed: 83})); res.StopReason != StopCompleted {
		t.Fatalf("completed run stop reason = %q", res.StopReason)
	}
	res := mustRun(t, testEngine(t, Config{Generations: 5000, Seed: 83, NoImprovementWindow: 4}))
	if res.Generations < 5000 && res.StopReason != StopStagnated {
		t.Fatalf("stagnated run stop reason = %q", res.StopReason)
	}
}

func TestGenerationsDefaultsToPaperBudget(t *testing.T) {
	e := testEngine(t, Config{Seed: 85})
	if e.MaxGenerations() != DefaultGenerations {
		t.Fatalf("MaxGenerations = %d, want %d", e.MaxGenerations(), DefaultGenerations)
	}
}

func TestInitialPopulationEagerlyPrepared(t *testing.T) {
	e := testEngine(t, Config{Generations: 5, Seed: 87})
	for i, ind := range e.pop {
		if ind.state == nil {
			t.Fatalf("individual %d has no delta state after construction", i)
		}
	}
}

// TestEagerPrepareMatchesLazyTrajectory: an engine resumed from a
// generation-0 snapshot starts with no states and builds each one when
// the individual first reproduces; it must walk the eagerly prepared
// engine's trajectory.
func TestEagerPrepareMatchesLazyTrajectory(t *testing.T) {
	eager := mustRun(t, testEngine(t, Config{Generations: 40, Seed: 89}))
	var buf bytes.Buffer
	if err := testEngine(t, Config{Generations: 40, Seed: 89}).Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	eval, _ := testPopulation(t)
	resumed, err := Resume(eval, &buf, Config{Generations: 40, Seed: 89})
	if err != nil {
		t.Fatal(err)
	}
	lazy := mustRun(t, resumed)
	if len(eager.History) != len(lazy.History) {
		t.Fatalf("history lengths %d vs %d", len(eager.History), len(lazy.History))
	}
	for i := range eager.History {
		a, b := eager.History[i], lazy.History[i]
		a.EvalTime, a.TotalTime = 0, 0
		b.EvalTime, b.TotalTime = 0, 0
		if a != b {
			t.Fatalf("generation %d diverged:\neager: %+v\nlazy:  %+v", i+1, a, b)
		}
	}
}

func TestNewEnginesSharedEvaluation(t *testing.T) {
	eval, pop := testPopulation(t)
	cfgs := []Config{
		{Generations: 10, Seed: 1},
		{Generations: 10, Seed: 2},
		{Generations: 10, Seed: 3},
	}
	engines, err := NewEngines(context.Background(), eval, pop, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(engines) != 3 {
		t.Fatalf("engines = %d", len(engines))
	}
	// Every engine starts from the same evaluated population...
	for i := 1; i < len(engines); i++ {
		a, b := engines[0].Population(), engines[i].Population()
		for j := range a {
			if a[j].Eval.Score != b[j].Eval.Score {
				t.Fatalf("engine %d initial population differs at %d", i, j)
			}
		}
	}
	// ...and an engine built by NewEngines matches a solo NewEngine with
	// the same seed, trajectory and all.
	solo := mustRun(t, testEngine(t, Config{Generations: 10, Seed: 1}))
	batch, err := engines[0].Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := range solo.History {
		a, b := solo.History[i], batch.History[i]
		a.EvalTime, a.TotalTime = 0, 0
		b.EvalTime, b.TotalTime = 0, 0
		if a != b {
			t.Fatalf("generation %d diverged between NewEngine and NewEngines", i+1)
		}
	}
}

func TestEmigrantsAndImmigrate(t *testing.T) {
	eval, pop := testPopulation(t)
	engines, err := NewEngines(context.Background(), eval, pop, []Config{{Generations: 30, Seed: 7}, {Generations: 30, Seed: 8}})
	if err != nil {
		t.Fatal(err)
	}
	a, b := engines[0], engines[1]
	mustRun(t, a)
	em := a.Emigrants(3)
	if len(em) != 3 {
		t.Fatalf("emigrants = %d", len(em))
	}
	for i, m := range em {
		if m.Eval.Score != a.Population()[i].Eval.Score {
			t.Fatalf("emigrant %d is not the %d-th best", i, i)
		}
		if m == a.Population()[i] {
			t.Fatal("emigrant shares its wrapper with the source population")
		}
	}
	worstBefore := b.Population()[len(b.pop)-1].Eval.Score
	bestBefore := b.Best().Eval.Score
	acc := b.Immigrate(em)
	if acc < 0 || acc > len(em) {
		t.Fatalf("accepted = %d", acc)
	}
	if b.Best().Eval.Score > bestBefore {
		t.Fatal("immigration worsened the best individual")
	}
	if acc > 0 && b.Population()[len(b.pop)-1].Eval.Score > worstBefore {
		t.Fatal("immigration worsened the worst individual")
	}
	// A hopeless migrant is rejected. Immigrate trusts the (IL, DR) pair
	// and re-combines the score under the receiving engine's aggregator,
	// so hopelessness lives in the components, not a hand-edited Score.
	bad := &Individual{Data: em[0].Data, Origin: "bad"}
	bad.Eval = em[0].Eval
	bad.Eval.IL, bad.Eval.DR, bad.Eval.Score = 1e9, 1e9, 1e9
	if got := b.Immigrate([]*Individual{bad}); got != 0 {
		t.Fatalf("hopeless migrant accepted %d times", got)
	}
	// Emigrants(k) clamps to the population size.
	if got := a.Emigrants(1 << 20); len(got) != len(a.Population()) {
		t.Fatalf("oversized Emigrants = %d", len(got))
	}
}

func TestAcceptanceBookkeeping(t *testing.T) {
	e := testEngine(t, Config{Generations: 50, Seed: 73})
	res := mustRun(t, e)
	if res.TotalOffspring != res.Evaluations-len(res.Population) {
		t.Fatalf("TotalOffspring = %d, want %d", res.TotalOffspring, res.Evaluations-len(res.Population))
	}
	if res.AcceptedOffspring < 0 || res.AcceptedOffspring > res.TotalOffspring {
		t.Fatalf("AcceptedOffspring = %d outside [0,%d]", res.AcceptedOffspring, res.TotalOffspring)
	}
	sum := 0
	for _, gs := range res.History {
		if gs.Accepted < 0 || gs.Accepted > gs.Evals {
			t.Fatalf("generation %d: Accepted=%d Evals=%d", gs.Gen, gs.Accepted, gs.Evals)
		}
		sum += gs.Accepted
	}
	if sum != res.AcceptedOffspring {
		t.Fatalf("history acceptance %d != result %d", sum, res.AcceptedOffspring)
	}
	// An evolving population must accept something over 50 generations.
	if res.AcceptedOffspring == 0 {
		t.Fatal("no offspring accepted in 50 generations")
	}
}

func TestSingleCategoryAttributesRejectedAtConstruction(t *testing.T) {
	// When every protected domain has a single category no gene can ever
	// change, so the engine refuses to start instead of silently no-oping
	// on every mutation.
	s := dataset.MustSchema(
		dataset.MustAttribute("only", []string{"x"}, true),
		dataset.MustAttribute("pad", []string{"a", "b"}, true),
	)
	orig := dataset.New(s, 10)
	eval, err := score.NewEvaluator(orig, []int{0}, score.Config{})
	if err != nil {
		t.Fatal(err)
	}
	pop := []*Individual{NewIndividual(orig.Clone(), "a"), NewIndividual(orig.Clone(), "b")}
	if _, err := NewEngine(eval, pop, Config{Generations: 1, Seed: 71}); err == nil {
		t.Fatal("engine accepted a protected set where nothing can mutate")
	}
}

func TestMutationSkipsSingleCategoryColumns(t *testing.T) {
	// With a mixed protected set the gene draw must be restricted to the
	// columns that can actually change: every mutation alters exactly one
	// gene, never in the single-category column.
	s := dataset.MustSchema(
		dataset.MustAttribute("only", []string{"x"}, true),
		dataset.MustAttribute("pad", []string{"a", "b", "c"}, true),
	)
	orig := dataset.New(s, 10)
	eval, err := score.NewEvaluator(orig, []int{0, 1}, score.Config{})
	if err != nil {
		t.Fatal(err)
	}
	pop := []*Individual{NewIndividual(orig.Clone(), "a"), NewIndividual(orig.Clone(), "b")}
	e, err := NewEngine(eval, pop, Config{Generations: 1, Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		_, changes := e.mutate(e.pop[0])
		if got := e.pop[0].Data.CloneWith(changes).Mismatches(e.pop[0].Data, e.attrs); got != 1 {
			t.Fatalf("mutation changed %d genes, want exactly 1", got)
		}
		if changes[0].Col != 1 {
			t.Fatalf("mutation touched single-category column %d", changes[0].Col)
		}
	}
}

func TestAllCrossoverSentinel(t *testing.T) {
	// MutationRate 0 keeps the paper's default of 0.5; the AllCrossover
	// sentinel requests a true rate of 0.0.
	e := testEngine(t, Config{Generations: 20, Seed: 101, MutationRate: AllCrossover})
	for _, gs := range mustRun(t, e).History {
		if gs.Op != "crossover" {
			t.Fatalf("AllCrossover produced op %q", gs.Op)
		}
	}
	if e.cfg.MutationRate != 0 {
		t.Fatalf("effective rate = %v, want 0", e.cfg.MutationRate)
	}
	def := testEngine(t, Config{Generations: 1, Seed: 101})
	if def.cfg.MutationRate != 0.5 {
		t.Fatalf("zero-value rate resolved to %v, want 0.5", def.cfg.MutationRate)
	}
	// Other negative rates stay invalid.
	eval, pop := testPopulation(t)
	if _, err := NewEngine(eval, pop, Config{Generations: 1, MutationRate: -0.25}); err == nil {
		t.Fatal("negative non-sentinel mutation rate accepted")
	}
}
