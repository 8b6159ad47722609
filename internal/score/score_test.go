package score

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"evoprot/internal/datagen"
	"evoprot/internal/datagen/datagentest"
	"evoprot/internal/dataset"
	"evoprot/internal/protection/protectiontest"
	"evoprot/internal/risk"
)

func testSetup(t *testing.T) (*dataset.Dataset, []int) {
	t.Helper()
	d := datagentest.MustByName("flare", 150, 19)
	names, _ := datagen.ProtectedAttrs("flare")
	attrs, err := d.Schema().Indices(names...)
	if err != nil {
		t.Fatal(err)
	}
	return d, attrs
}

func maskWith(t *testing.T, d *dataset.Dataset, attrs []int, spec string, seed uint64) *dataset.Dataset {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 5))
	masked, err := protectiontest.Must(spec).Protect(d, attrs, rng)
	if err != nil {
		t.Fatal(err)
	}
	return masked
}

func TestAggregators(t *testing.T) {
	if got := (Mean{}).Combine(20, 40); got != 30 {
		t.Errorf("Mean = %v, want 30", got)
	}
	if got := (Max{}).Combine(20, 40); got != 40 {
		t.Errorf("Max = %v, want 40", got)
	}
	if got := (Max{}).Combine(50, 10); got != 50 {
		t.Errorf("Max = %v, want 50", got)
	}
	if (Mean{}).Name() != "mean" || (Max{}).Name() != "max" {
		t.Error("aggregator names wrong")
	}
}

func TestNewEvaluatorErrors(t *testing.T) {
	d, attrs := testSetup(t)
	specs := make([]*dataset.Attribute, risk.MaxPRLAttrs+1)
	wide := make([]int, len(specs))
	for i := range specs {
		specs[i] = dataset.MustAttribute(fmt.Sprintf("q%d", i), []string{"x", "y"}, false)
		wide[i] = i
	}
	wideData := dataset.New(dataset.MustSchema(specs...), 10)
	dbrlOnly := Config{DR: []risk.Measure{&risk.DistanceLinkage{}}}
	for _, c := range []struct {
		name  string
		orig  *dataset.Dataset
		attrs []int
		cfg   Config
		ok    bool
	}{
		{"valid", d, attrs, Config{}, true},
		{"nil original", nil, attrs, Config{}, false},
		{"no attrs", d, nil, Config{}, false},
		{"out-of-range attr", d, []int{99}, Config{}, false},
		{"repeated attr", d, []int{attrs[0], attrs[0], attrs[1]}, Config{}, false},
		{"repeated attr without PRL", d, []int{attrs[1], attrs[0], attrs[1]}, dbrlOnly, false},
		{"more attrs than PRL supports", wideData, wide, Config{}, false},
		{"wide attrs without PRL", wideData, wide, dbrlOnly, true},
	} {
		_, err := NewEvaluator(c.orig, c.attrs, c.cfg)
		if c.ok && err != nil {
			t.Errorf("%s: refused: %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestEvaluateIdentity(t *testing.T) {
	d, attrs := testSetup(t)
	e, err := NewEvaluator(d, attrs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := e.Evaluate(d)
	if err != nil {
		t.Fatal(err)
	}
	if ev.IL != 0 {
		t.Errorf("identity IL = %v, want 0", ev.IL)
	}
	if ev.DR <= 0 {
		t.Errorf("identity DR = %v, want > 0", ev.DR)
	}
	// Default aggregator is Max; identity score = DR.
	if ev.Score != ev.DR {
		t.Errorf("Score = %v, want DR %v", ev.Score, ev.DR)
	}
	if len(ev.ILParts) != 3 || len(ev.DRParts) != 4 {
		t.Errorf("parts: %d IL, %d DR; want 3, 4", len(ev.ILParts), len(ev.DRParts))
	}
}

func TestEvaluateShapeMismatch(t *testing.T) {
	d, attrs := testSetup(t)
	e, _ := NewEvaluator(d, attrs, Config{})
	other := dataset.New(d.Schema(), d.Rows()+1)
	if _, err := e.Evaluate(other); err == nil {
		t.Error("shape mismatch accepted")
	}
	if _, err := e.Evaluate(nil); err == nil {
		t.Error("nil masked accepted")
	}
}

func TestScoreIsAggregateOfParts(t *testing.T) {
	d, attrs := testSetup(t)
	masked := maskWith(t, d, attrs, "pram:theta=0.6", 7)
	for _, aggName := range []string{"mean", "max"} {
		agg, _ := AggregatorByName(aggName)
		e, _ := NewEvaluator(d, attrs, Config{Aggregator: agg})
		ev, err := e.Evaluate(masked)
		if err != nil {
			t.Fatal(err)
		}
		// IL/DR are means of their parts.
		sumIL := 0.0
		for _, v := range ev.ILParts {
			sumIL += v
		}
		sumDR := 0.0
		for _, v := range ev.DRParts {
			sumDR += v
		}
		if diff := ev.IL - sumIL/3; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s: IL %v != mean of parts %v", aggName, ev.IL, sumIL/3)
		}
		if diff := ev.DR - sumDR/4; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s: DR %v != mean of parts %v", aggName, ev.DR, sumDR/4)
		}
		if want := agg.Combine(ev.IL, ev.DR); ev.Score != want {
			t.Errorf("%s: Score %v != Combine %v", aggName, ev.Score, want)
		}
	}
}

// TestParallelMatchesSequential: the offspring of distinct parents,
// scored concurrently through their own states (one goroutine per
// parent, as a crossover's two children are), score bit-identically to
// the same offspring scored in sequence.
func TestParallelMatchesSequential(t *testing.T) {
	eval, orig := deltaTestEvaluator(t)
	attrs := eval.Attrs()
	build := func() []family {
		rng := rand.New(rand.NewPCG(8, 8))
		parents := make([]*dataset.Dataset, 4)
		for i := range parents {
			parents[i] = orig.Clone()
			applyRandomChanges(rng, parents[i], attrs, 10+i)
		}
		return buildFamilies(t, eval, rng, parents, attrs, 3)
	}
	seq, par := build(), build()
	want := make([][]Evaluation, len(seq))
	for g := range seq {
		want[g] = scoreFamily(t, eval, &seq[g], "sequential")
	}
	got := make([][]Evaluation, len(par))
	var wg sync.WaitGroup
	for g := range par {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = make([]Evaluation, len(par[g].offspring))
			for k, changes := range par[g].offspring {
				ev, _, err := eval.EvaluateEdit(par[g].eval, par[g].file, par[g].state, changes)
				if err != nil {
					t.Error(err)
					return
				}
				eval.Restore(par[g].state)
				got[g][k] = ev
			}
		}()
	}
	wg.Wait()
	for g := range seq {
		for k := range seq[g].offspring {
			requireIdentical(t, "concurrent scoring", got[g][k], want[g][k])
		}
	}
}

// TestEvaluateAllCapsWorkersAtDatasets: the pool width arrives from job
// specs unbounded, so an outsized value must cost no more than one worker
// per dataset. Spawning 1<<22 idle goroutines takes seconds; two datasets
// take milliseconds.
func TestEvaluateAllCapsWorkersAtDatasets(t *testing.T) {
	d, attrs := testSetup(t)
	e, _ := NewEvaluator(d, attrs, Config{})
	maskings := []*dataset.Dataset{d, maskWith(t, d, attrs, "pram:theta=0.5", 3)}
	want, _, err := e.EvaluateAllPrepared(context.Background(), maskings, 1)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	got, states, err := e.EvaluateAllPrepared(context.Background(), maskings, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("two datasets with a 1<<22-wide pool took %v; the pool is not capped", el)
	}
	for i := range maskings {
		requireIdentical(t, "capped pool", got[i], want[i])
		if states[i] == nil {
			t.Fatalf("dataset %d: no prepared state", i)
		}
	}
}

func TestEvaluateAllPreservesOrderAndMatches(t *testing.T) {
	d, attrs := testSetup(t)
	maskings := []*dataset.Dataset{
		d,
		maskWith(t, d, attrs, "pram:theta=0.5", 3),
		maskWith(t, d, attrs, "micro:k=5", 3),
		maskWith(t, d, attrs, "top:q=0.2", 3),
	}
	e, _ := NewEvaluator(d, attrs, Config{})
	seq, err := e.EvaluateAll(context.Background(), maskings, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := e.EvaluateAll(context.Background(), maskings, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range maskings {
		if seq[i].Score != par[i].Score || seq[i].IL != par[i].IL {
			t.Fatalf("index %d: parallel differs from sequential", i)
		}
	}
	if seq[0].IL != 0 {
		t.Error("order not preserved: identity should be first")
	}
}

func TestEvaluateAllPropagatesErrors(t *testing.T) {
	d, attrs := testSetup(t)
	bad := dataset.New(d.Schema(), 3)
	e, _ := NewEvaluator(d, attrs, Config{})
	if _, err := e.EvaluateAll(context.Background(), []*dataset.Dataset{d, bad}, 1); err == nil {
		t.Error("sequential: bad dataset accepted")
	}
	if _, err := e.EvaluateAll(context.Background(), []*dataset.Dataset{d, bad, d, d}, 3); err == nil {
		t.Error("parallel: bad dataset accepted")
	}
}

func TestWithAggregator(t *testing.T) {
	d, attrs := testSetup(t)
	masked := maskWith(t, d, attrs, "pram:theta=0.7", 13)
	eMax, _ := NewEvaluator(d, attrs, Config{})
	eMean := eMax.WithAggregator(Mean{})
	a, _ := eMax.Evaluate(masked)
	b, _ := eMean.Evaluate(masked)
	if a.IL != b.IL || a.DR != b.DR {
		t.Fatal("WithAggregator changed the measures")
	}
	if a.Score == b.Score && a.IL != a.DR {
		t.Fatal("WithAggregator did not change the aggregation")
	}
	if eMax.Aggregator().Name() != "max" || eMean.Aggregator().Name() != "mean" {
		t.Fatal("aggregator accessors wrong")
	}
}

func TestAccessors(t *testing.T) {
	d, attrs := testSetup(t)
	e, _ := NewEvaluator(d, attrs, Config{})
	if e.Orig() != d {
		t.Error("Orig mismatch")
	}
	got := e.Attrs()
	if len(got) != len(attrs) {
		t.Fatal("Attrs length mismatch")
	}
	got[0] = 99 // must not corrupt the evaluator
	again := e.Attrs()
	if again[0] == 99 {
		t.Error("Attrs leaked internal slice")
	}
}

func TestEvaluationPair(t *testing.T) {
	ev := Evaluation{IL: 12, DR: 34}
	p := ev.Pair()
	if p.IL != 12 || p.DR != 34 {
		t.Fatalf("Pair = %+v", p)
	}
}
