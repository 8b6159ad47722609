package infoloss_test

import (
	"math/rand/v2"
	"testing"

	"evoprot/internal/datagen"
	"evoprot/internal/datagen/datagentest"
	"evoprot/internal/dataset"
	"evoprot/internal/infoloss"
	"evoprot/internal/measure/measuretest"
	"evoprot/internal/protection/protectiontest"
)

// bindFixture returns a 300-record german file, its protected
// attributes, three masked versions of it and the battery under test:
// the paper's, plus ML utility predicting an unprotected and a protected
// column.
func bindFixture(t *testing.T) (*dataset.Dataset, []int, []*dataset.Dataset, []infoloss.Measure) {
	t.Helper()
	orig := datagentest.MustByName("german", 300, 13)
	names, _ := datagen.ProtectedAttrs("german")
	attrs, err := orig.Schema().Indices(names...)
	if err != nil {
		t.Fatal(err)
	}
	housing, err := orig.Schema().Indices("HOUSING")
	if err != nil {
		t.Fatal(err)
	}
	var masked []*dataset.Dataset
	for k, spec := range []string{"pram:theta=0.7", "pram:theta=0.2", "rankswap:p=10"} {
		m, err := protectiontest.Must(spec).Protect(orig, attrs, rand.New(rand.NewPCG(13, uint64(k))))
		if err != nil {
			t.Fatal(err)
		}
		masked = append(masked, m)
	}
	battery := append(infoloss.Default(), &infoloss.MLUtility{Target: housing[0]}, &infoloss.MLUtility{Target: attrs[0]})
	return orig, attrs, masked, battery
}

// sides returns m bound to (orig, attrs) and unbound.
func sides(m infoloss.Measure, orig *dataset.Dataset, attrs []int) measuretest.Sides {
	b := m.(infoloss.Binder).Bind(orig, attrs)
	return measuretest.Sides{
		Name: m.Name(), Bound: b, Unbound: m.(infoloss.Reversible),
		BoundFull: b.Loss, UnboundFull: m.Loss, Shared: infoloss.SharedOf,
	}
}

// TestBoundMatchesUnbound: for every measure of the battery, ML utility
// included, the states one bound value prepares, and their clones, share
// its original-only summaries, and the bound value scores bit for bit
// like the unbound measure, in full and over chains of one-cell and wide
// ApplyUndo/Undo/Apply steps, on several masked files.
func TestBoundMatchesUnbound(t *testing.T) {
	orig, attrs, masked, battery := bindFixture(t)
	for k, m := range battery {
		measuretest.CheckBound(t, sides(m, orig, attrs), orig, attrs, masked, uint64(k))
	}
}

// TestBoundRefusesAnotherPair: a bound value panics when handed another
// original file or attribute list, in Prepare and in Loss.
func TestBoundRefusesAnotherPair(t *testing.T) {
	orig, attrs, masked, battery := bindFixture(t)
	for _, m := range battery {
		measuretest.CheckPairGuard(t, sides(m, orig, attrs), orig, masked[0], attrs)
	}
}
