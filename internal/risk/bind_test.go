package risk_test

import (
	"math/rand/v2"
	"testing"

	"evoprot/internal/datagen"
	"evoprot/internal/datagen/datagentest"
	"evoprot/internal/dataset"
	"evoprot/internal/measure/measuretest"
	"evoprot/internal/protection/protectiontest"
	"evoprot/internal/risk"
)

// bindFixture returns a 300-record file of the named dataset, its
// protected attributes and three masked versions of it.
func bindFixture(t *testing.T, name string) (*dataset.Dataset, []int, []*dataset.Dataset) {
	t.Helper()
	orig := datagentest.MustByName(name, 300, 11)
	names, _ := datagen.ProtectedAttrs(name)
	attrs, err := orig.Schema().Indices(names...)
	if err != nil {
		t.Fatal(err)
	}
	var masked []*dataset.Dataset
	for k, spec := range []string{"pram:theta=0.7", "pram:theta=0.2", "rankswap:p=10"} {
		m, err := protectiontest.Must(spec).Protect(orig, attrs, rand.New(rand.NewPCG(11, uint64(k))))
		if err != nil {
			t.Fatal(err)
		}
		masked = append(masked, m)
	}
	return orig, attrs, masked
}

// sides returns m bound to (orig, attrs) and unbound.
func sides(m risk.Measure, orig *dataset.Dataset, attrs []int) measuretest.Sides {
	b := m.(risk.Binder).Bind(orig, attrs)
	return measuretest.Sides{
		Name: m.Name(), Bound: b, Unbound: m.(risk.Reversible),
		BoundFull: b.Risk, UnboundFull: m.Risk, Shared: risk.SharedOf,
	}
}

// TestBoundMatchesUnbound: for every measure of the battery, the states
// one bound value prepares, and their clones, share its original-only
// summaries, and the bound value scores bit for bit like the unbound
// measure, in full and over chains of one-cell and wide
// ApplyUndo/Undo/Apply steps, on several masked files.
func TestBoundMatchesUnbound(t *testing.T) {
	for k, name := range []string{"flare", "german"} {
		orig, attrs, masked := bindFixture(t, name)
		for _, m := range risk.Default() {
			s := sides(m, orig, attrs)
			s.Name = name + "/" + s.Name
			measuretest.CheckBound(t, s, orig, attrs, masked, uint64(k))
		}
	}
}

// TestBoundRefusesAnotherPair: a bound value panics when handed another
// original file or attribute list, in Prepare and in Risk.
func TestBoundRefusesAnotherPair(t *testing.T) {
	orig, attrs, masked := bindFixture(t, "flare")
	for _, m := range risk.Default() {
		measuretest.CheckPairGuard(t, sides(m, orig, attrs), orig, masked[0], attrs)
	}
}
