package score

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWeightedCombine(t *testing.T) {
	w, err := NewWeighted(0.7)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Combine(10, 30); math.Abs(got-16) > 1e-12 {
		t.Fatalf("weighted = %v, want 16", got)
	}
	if w.Name() != "weighted(0.70)" {
		t.Fatalf("name = %q", w.Name())
	}
}

func TestWeightedHalfEqualsMean(t *testing.T) {
	w, _ := NewWeighted(0.5)
	f := func(il, dr uint8) bool {
		a := w.Combine(float64(il), float64(dr))
		b := Mean{}.Combine(float64(il), float64(dr))
		return math.Abs(a-b) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedValidation(t *testing.T) {
	if _, err := NewWeighted(-0.1); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := NewWeighted(1.1); err == nil {
		t.Error("weight > 1 accepted")
	}
	if _, err := NewWeighted(math.NaN()); err == nil {
		t.Error("NaN weight accepted")
	}
}

func TestEuclideanProperties(t *testing.T) {
	e := Euclidean{}
	if got := e.Combine(0, 0); got != 0 {
		t.Fatalf("ideal point = %v", got)
	}
	if got := e.Combine(100, 100); math.Abs(got-100) > 1e-9 {
		t.Fatalf("worst point = %v, want 100", got)
	}
	// For a fixed sum, balanced pairs score lower than unbalanced ones —
	// the property that distinguishes Euclidean from Mean.
	if e.Combine(20, 20) >= e.Combine(0, 40) {
		t.Fatal("euclidean does not penalize imbalance")
	}
	// But it stays between Mean and Max.
	f := func(ilRaw, drRaw uint8) bool {
		il, dr := float64(ilRaw%101), float64(drRaw%101)
		v := e.Combine(il, dr)
		return v >= Mean{}.Combine(il, dr)-1e-9 && v <= Max{}.Combine(il, dr)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAggregatorByName pins the paper's two aggregators and the rejection
// of names the resolver does not know.
func TestAggregatorByName(t *testing.T) {
	for _, name := range []string{"mean", "max"} {
		agg, err := AggregatorByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if agg.Name() != name {
			t.Errorf("%s -> %q", name, agg.Name())
		}
	}
	for _, bad := range []string{"", "median", "chebyshev", "Weighted:0.5"} {
		if agg, err := AggregatorByName(bad); err == nil {
			t.Errorf("%q accepted as %s", bad, agg.Name())
		}
	}
}

// TestExtendedAggregatorByName pins the aggregators beyond the paper's
// pair and the parsing of the weighted:<w> spec.
func TestExtendedAggregatorByName(t *testing.T) {
	cases := []struct {
		spec string
		want string
	}{
		{"euclidean", "euclidean"},
		{"weighted:0.25", "weighted(0.25)"},
		{"weighted:0", "weighted(0.00)"},
		{"weighted:1", "weighted(1.00)"},
		{"weighted:1e-1", "weighted(0.10)"},
	}
	for _, c := range cases {
		agg, err := AggregatorByName(c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		if agg.Name() != c.want {
			t.Errorf("%s -> %q, want %q", c.spec, agg.Name(), c.want)
		}
	}
	for _, bad := range []string{
		"weighted:", "weighted:x", "weighted:2", "weighted:-0.1",
		"weighted:NaN", "weighted:nan", "weighted:Inf", "weighted:0.5junk", "weighted:1e-1x",
		"weighted: 0.5", "weighted:0.5 ",
	} {
		if agg, err := AggregatorByName(bad); err == nil {
			t.Errorf("%q accepted as %s", bad, agg.Name())
		}
	}
}

// FuzzAggregatorByName: every name the resolver accepts combines finite
// (IL, DR) inputs into a finite score.
func FuzzAggregatorByName(f *testing.F) {
	for _, name := range []string{"mean", "max", "euclidean", "weighted:0.3", "weighted:NaN", "weighted:0.5junk", "weighted:1e-1"} {
		f.Add(name, 10.0, 20.0)
	}
	f.Fuzz(func(t *testing.T, name string, il, dr float64) {
		agg, err := AggregatorByName(name)
		if err != nil {
			return
		}
		if math.IsNaN(il) || math.IsInf(il, 0) || math.IsNaN(dr) || math.IsInf(dr, 0) {
			return
		}
		il, dr = math.Mod(il, 1e6), math.Mod(dr, 1e6) // the measures' scale, not float64's edge
		if got := agg.Combine(il, dr); math.IsNaN(got) || math.IsInf(got, 0) {
			t.Fatalf("%q accepted, but Combine(%v, %v) = %v", name, il, dr, got)
		}
	})
}

func TestAggregatorsInEvaluator(t *testing.T) {
	d, attrs := testSetup(t)
	for _, agg := range []Aggregator{Weighted{W: 0.3}, Euclidean{}} {
		e, err := NewEvaluator(d, attrs, Config{Aggregator: agg})
		if err != nil {
			t.Fatal(err)
		}
		ev, err := e.Evaluate(d)
		if err != nil {
			t.Fatal(err)
		}
		if want := agg.Combine(ev.IL, ev.DR); ev.Score != want {
			t.Errorf("%s: score %v != %v", agg.Name(), ev.Score, want)
		}
	}
}
