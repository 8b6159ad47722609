package score_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"evoprot/internal/dataset"
	"evoprot/internal/dataset/datasettest"
	"evoprot/internal/infoloss"
	"evoprot/internal/measure"
	"evoprot/internal/risk"
)

// wideSchemaFile builds n records over the protected p0 (card0
// categories, ordered), p1 (three, nominal) and p2 (five, ordered) and
// the unprotected u3 (card3 categories), and a masking that edits about
// a third of the protected cells.
func wideSchemaFile(rng *rand.Rand, n, card0, card3 int) (orig, masked *dataset.Dataset, attrs []int) {
	attr := func(name string, card int, ordered bool) *dataset.Attribute {
		cats := make([]string, card)
		for i := range cats {
			cats[i] = fmt.Sprintf("%s-%d", name, i)
		}
		return dataset.MustAttribute(name, cats, ordered)
	}
	s := dataset.MustSchema(attr("p0", card0, true), attr("p1", 3, false), attr("p2", 5, true), attr("u3", card3, false))
	orig = dataset.New(s, n)
	for r := range n {
		for c := range s.NumAttrs() {
			orig.Set(r, c, rng.IntN(s.Attr(c).Cardinality()))
		}
	}
	attrs = []int{0, 1, 2}
	masked = orig.Clone()
	for range n {
		datasettest.RandomChange(rng, masked, attrs)
	}
	return orig, masked, attrs
}

// TestWideSchemaStatesMatchFull is the oracle of the delta states that
// keep masked cells (DBRL, PRL, CTBIL, and ML utility with a protected
// target) at both cell widths. In the first file a protected attribute
// has 300 categories, so the states' projections of the masked file take
// four bytes per cell; in the second only an unprotected attribute does,
// so the file is wide and the projections narrow. Each state runs a chain
// of narrow and wide ApplyUndo/Undo pairs, commits, and clones taken
// both settled and with an edit pending (after which the original's Undo
// must leave the clone alone), and every value must equal the full
// Risk or Loss of the file the state describes, bit for bit.
func TestWideSchemaStatesMatchFull(t *testing.T) {
	dl, pl, ct, ml := &risk.DistanceLinkage{}, &risk.ProbabilisticLinkage{}, &infoloss.CTBIL{MaxDim: 2}, &infoloss.MLUtility{Target: 1}
	oracles := []struct {
		name string
		rev  measure.Reversible
		full func(orig, masked *dataset.Dataset, attrs []int) float64
	}{
		{"DBRL", dl, dl.Risk},
		{"PRL", pl, pl.Risk},
		{"CTBIL", ct, ct.Loss},
		{"MLU", ml, ml.Loss},
	}
	rng := rand.New(rand.NewPCG(31, 7))
	for _, file := range []struct {
		name         string
		card0, card3 int
	}{
		{"wide-protected", 300, 4},
		{"narrow-protected", 40, 300},
	} {
		orig, masked, attrs := wideSchemaFile(rng, 120, file.card0, file.card3)
		for _, m := range oracles {
			ctx := file.name + " " + m.name
			check := func(step int, what string, got float64, d *dataset.Dataset) {
				t.Helper()
				if want := m.full(orig, d, attrs); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s step %d: %s %v != full %v", ctx, step, what, got, want)
				}
			}
			st := m.rev.Prepare(orig, masked.Clone(), attrs)
			if st == nil {
				t.Fatalf("%s: Prepare returned nil", ctx)
			}
			work := masked.Clone()
			for step := range 40 {
				width := 1 + rng.IntN(3)
				if step%8 == 5 || step%8 == 6 {
					width = 2 * orig.Rows() // past DBRL's and PRL's break-even
				}
				spec := work.Clone()
				changes := make([]dataset.CellChange, width)
				for i := range changes {
					changes[i] = datasettest.RandomChange(rng, spec, attrs)
				}
				switch step % 4 {
				case 0:
					check(step, "Apply", m.rev.Apply(st, changes), spec)
					work = spec
				case 1:
					check(step, "ApplyUndo", m.rev.ApplyUndo(st, changes), spec)
					clone := st.CloneState()
					m.rev.Undo(st)
					check(step, "after Undo", m.rev.Apply(st, nil), work)
					check(step, "pending clone", m.rev.Apply(clone, nil), spec)
					st, work = clone, spec
				case 2:
					check(step, "ApplyUndo", m.rev.ApplyUndo(st, changes), spec)
					m.rev.Undo(st)
					check(step, "after Undo", m.rev.Apply(st, nil), work)
				case 3:
					clone := st.CloneState()
					check(step, "clone Apply", m.rev.Apply(clone, changes), spec)
					check(step, "source after clone Apply", m.rev.Apply(st, nil), work)
					st, work = clone, spec
				}
			}
		}
	}
}
