package datasettest

import (
	"math/rand/v2"
	"testing"

	"evoprot/internal/dataset"
)

func TestRandomChange(t *testing.T) {
	s := dataset.MustSchema(
		dataset.MustAttribute("const", []string{"x"}, false),
		dataset.MustAttribute("size", []string{"S", "M", "L"}, true),
	)
	d := dataset.New(s, 4)
	rng := rand.New(rand.NewPCG(1, 2))
	for range 50 {
		before := d.Clone()
		ch := RandomChange(rng, d, []int{0, 1})
		if ch.Col != 1 || ch.Old == ch.New || before.At(ch.Row, 1) != ch.Old || d.At(ch.Row, 1) != ch.New {
			t.Fatalf("change %+v does not record the one edit it made", ch)
		}
		if d.Mismatches(before, nil) != 1 {
			t.Fatalf("change %+v edited %d cells", ch, d.Mismatches(before, nil))
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("RandomChange over constant columns did not panic")
		}
	}()
	RandomChange(rng, d, []int{0})
}
