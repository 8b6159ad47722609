// Package measuretest checks a bound measure (see the measure package's
// Binding) against the same measure unbound: the shared helper of the
// information-loss and disclosure-risk bind tests.
package measuretest

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"evoprot/internal/dataset"
	"evoprot/internal/dataset/datasettest"
	"evoprot/internal/measure"
)

// Scorer is a measure's full recompute, Loss or Risk.
type Scorer func(orig, masked *dataset.Dataset, attrs []int) float64

// Sides is one measure twice: bound to (orig, attrs), and unbound.
type Sides struct {
	Name                   string
	Bound, Unbound         measure.Reversible
	BoundFull, UnboundFull Scorer
	// Shared returns the original-only summaries a state points at.
	Shared func(measure.State) any
}

// CheckBound checks s against orig and attrs, on every file of masked:
//
//   - full scoring: the bound and unbound recomputes are bit-equal;
//   - sharing: two states the bound value prepares, and their clones,
//     point at the same summaries, which no unbound state shares;
//   - chains: over one-cell and wide ApplyUndo/Undo and Apply steps, with
//     clones taken along the way, the bound and unbound states read
//     bit-equal values, and at the end both equal the full recompute of
//     the edited file.
//
// Every state is prepared from its own copy of the file.
func CheckBound(t *testing.T, s Sides, orig *dataset.Dataset, attrs []int, masked []*dataset.Dataset, seed uint64) {
	t.Helper()
	for k, file := range masked {
		if got, want := s.BoundFull(orig, file, attrs), s.UnboundFull(orig, file, attrs); !same(got, want) {
			t.Fatalf("%s file %d: bound full %v, unbound %v", s.Name, k, got, want)
		}
		sb := s.Bound.Prepare(orig, file.Clone(), attrs)
		su := s.Unbound.Prepare(orig, file.Clone(), attrs)
		if sb == nil || su == nil {
			t.Fatalf("%s file %d: no state (bound %v, unbound %v)", s.Name, k, sb != nil, su != nil)
		}
		shared := s.Shared(sb)
		if shared == nil {
			t.Fatalf("%s file %d: the bound state shares nothing", s.Name, k)
		}
		other := s.Bound.Prepare(orig, file.Clone(), attrs)
		for what, st := range map[string]measure.State{
			"a second state": other, "a clone": sb.CloneState(), "a clone of the second": other.CloneState(),
		} {
			if s.Shared(st) != shared {
				t.Fatalf("%s file %d: %s does not share the bound summaries", s.Name, k, what)
			}
		}
		if s.Shared(su) == shared {
			t.Fatalf("%s file %d: an unbound state shares the bound summaries", s.Name, k)
		}
		chain(t, s, orig, attrs, file.Clone(), sb, su, rand.New(rand.NewPCG(seed, uint64(k))))
	}
}

// chain runs 40 random steps on the bound state sb and the unbound
// state su of work, comparing their values.
func chain(t *testing.T, s Sides, orig *dataset.Dataset, attrs []int, work *dataset.Dataset, sb, su measure.State, rng *rand.Rand) {
	t.Helper()
	for step := range 40 {
		width := 1
		if rng.IntN(4) == 0 {
			width = work.Rows() / 2
		}
		spec := work.Clone()
		changes := make([]dataset.CellChange, width)
		for i := range changes {
			changes[i] = datasettest.RandomChange(rng, spec, attrs)
		}
		switch rng.IntN(3) {
		case 0: // speculate, then roll back
			if b, u := s.Bound.ApplyUndo(sb, changes), s.Unbound.ApplyUndo(su, changes); !same(b, u) {
				t.Fatalf("%s step %d: %d-cell ApplyUndo bound %v, unbound %v", s.Name, step, width, b, u)
			}
			s.Bound.Undo(sb)
			s.Unbound.Undo(su)
		case 1: // commit
			if b, u := s.Bound.Apply(sb, changes), s.Unbound.Apply(su, changes); !same(b, u) {
				t.Fatalf("%s step %d: %d-cell Apply bound %v, unbound %v", s.Name, step, width, b, u)
			}
			work = spec
		default: // branch both states
			sb, su = sb.CloneState(), su.CloneState()
		}
		if b, u := s.Bound.Apply(sb, nil), s.Unbound.Apply(su, nil); !same(b, u) {
			t.Fatalf("%s step %d: settled value bound %v, unbound %v", s.Name, step, b, u)
		}
	}
	want := s.UnboundFull(orig, work, attrs)
	if b, u := s.Bound.Apply(sb, nil), s.Unbound.Apply(su, nil); !same(b, want) || !same(u, want) {
		t.Fatalf("%s: after the chain bound %v, unbound %v, full %v", s.Name, b, u, want)
	}
}

// CheckPairGuard checks that the bound value of s panics, in Prepare and
// in its full recompute, when handed another original file (an equal
// copy) or another attribute list than (orig, attrs): attrs without its
// last attribute and, when it has two or more, attrs reversed.
func CheckPairGuard(t *testing.T, s Sides, orig, masked *dataset.Dataset, attrs []int) {
	t.Helper()
	type pair struct {
		what  string
		orig  *dataset.Dataset
		attrs []int
	}
	others := []pair{
		{"another original file", orig.Clone(), attrs},
		{"a shorter attribute list", orig, attrs[:len(attrs)-1]},
	}
	if len(attrs) > 1 {
		rev := slices.Clone(attrs)
		slices.Reverse(rev)
		others = append(others, pair{"the attributes reordered", orig, rev})
	}
	for _, o := range others {
		mustPanic(t, s.Name+" Prepare with "+o.what, func() { s.Bound.Prepare(o.orig, masked, o.attrs) })
		mustPanic(t, s.Name+" full with "+o.what, func() { s.BoundFull(o.orig, masked, o.attrs) })
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

func same(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
