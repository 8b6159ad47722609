package infoloss

import (
	"math/rand/v2"
	"testing"

	"evoprot/internal/datagen"
	"evoprot/internal/datagen/datagentest"
	"evoprot/internal/dataset"
	"evoprot/internal/protection"
)

func testData(t *testing.T) (*dataset.Dataset, []int) {
	t.Helper()
	d := datagentest.MustByName("adult", 250, 31)
	names, _ := datagen.ProtectedAttrs("adult")
	attrs, err := d.Schema().Indices(names...)
	if err != nil {
		t.Fatal(err)
	}
	return d, attrs
}

func scramble(d *dataset.Dataset, attrs []int, seed uint64) *dataset.Dataset {
	rng := rand.New(rand.NewPCG(seed, 1))
	out := d.Clone()
	for _, c := range attrs {
		card := d.Schema().Attr(c).Cardinality()
		for r := 0; r < d.Rows(); r++ {
			out.Set(r, c, rng.IntN(card))
		}
	}
	return out
}

func TestIdentityHasZeroLoss(t *testing.T) {
	d, attrs := testData(t)
	for _, m := range Default() {
		if got := m.Loss(d, d, attrs); got != 0 {
			t.Errorf("%s(identity) = %v, want 0", m.Name(), got)
		}
	}
}

func TestScrambleHasHighLoss(t *testing.T) {
	d, attrs := testData(t)
	masked := scramble(d, attrs, 7)
	for _, m := range Default() {
		got := m.Loss(d, masked, attrs)
		if got < 10 {
			t.Errorf("%s(scramble) = %v, want >= 10", m.Name(), got)
		}
		if got > 100 {
			t.Errorf("%s(scramble) = %v, out of range", m.Name(), got)
		}
	}
}

func TestAllMeasuresWithinBounds(t *testing.T) {
	d, attrs := testData(t)
	rng := rand.New(rand.NewPCG(3, 3))
	maskings := []*dataset.Dataset{d, scramble(d, attrs, 11)}
	for _, spec := range []string{"micro:k=5", "top:q=0.2", "bottom:q=0.2", "recode:depth=3", "rankswap:p=12", "pram:theta=0.6"} {
		m, err := protection.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		masked, err := m.Protect(d, attrs, rng)
		if err != nil {
			t.Fatal(err)
		}
		maskings = append(maskings, masked)
	}
	for _, masked := range maskings {
		for _, m := range Default() {
			got := m.Loss(d, masked, attrs)
			if got < 0 || got > 100 {
				t.Errorf("%s out of [0,100]: %v", m.Name(), got)
			}
		}
	}
}

func TestDBILHandComputed(t *testing.T) {
	s := dataset.MustSchema(
		dataset.MustAttribute("o", []string{"a", "b", "c", "d", "e"}, true), // ordered, card 5
		dataset.MustAttribute("n", []string{"x", "y", "z"}, false),          // nominal
	)
	orig, _ := dataset.FromRecords(s, [][]string{
		{"a", "x"},
		{"c", "y"},
	})
	masked, _ := dataset.FromRecords(s, [][]string{
		{"e", "x"}, // ordered distance |0-4|/4 = 1; nominal 0
		{"c", "z"}, // ordered 0; nominal 1
	})
	// Mean over 4 cells = (1 + 0 + 0 + 1) / 4 = 0.5 -> 50.
	var d DBIL
	if got := d.Loss(orig, masked, []int{0, 1}); got != 50 {
		t.Fatalf("DBIL = %v, want 50", got)
	}
}

func TestCTBILHandComputed(t *testing.T) {
	s := dataset.MustSchema(dataset.MustAttribute("x", []string{"a", "b"}, true))
	orig, _ := dataset.FromRecords(s, [][]string{{"a"}, {"a"}, {"b"}, {"b"}})
	masked, _ := dataset.FromRecords(s, [][]string{{"a"}, {"a"}, {"a"}, {"b"}})
	// Single 1-way table: orig (2,2) vs masked (3,1): L1 = 2, normalized by
	// 2n=8 -> 0.25 -> 25.
	c := CTBIL{MaxDim: 2}
	if got := c.Loss(orig, masked, []int{0}); got != 25 {
		t.Fatalf("CTBIL = %v, want 25", got)
	}
}

func TestCTBILDimensionSensitivity(t *testing.T) {
	// Swapping values of two perfectly-correlated columns between records
	// preserves one-way tables but destroys the two-way table.
	s := dataset.MustSchema(
		dataset.MustAttribute("x", []string{"a", "b"}, true),
		dataset.MustAttribute("y", []string{"p", "q"}, true),
	)
	orig, _ := dataset.FromRecords(s, [][]string{{"a", "p"}, {"a", "p"}, {"b", "q"}, {"b", "q"}})
	masked, _ := dataset.FromRecords(s, [][]string{{"a", "q"}, {"a", "q"}, {"b", "p"}, {"b", "p"}})
	one := CTBIL{MaxDim: 1}
	two := CTBIL{MaxDim: 2}
	if got := one.Loss(orig, masked, []int{0, 1}); got != 0 {
		t.Fatalf("1-way CTBIL = %v, want 0 (marginals preserved)", got)
	}
	if got := two.Loss(orig, masked, []int{0, 1}); got <= 0 {
		t.Fatalf("2-way CTBIL = %v, want > 0 (joint destroyed)", got)
	}
}

func TestEBILZeroForBijectiveRecode(t *testing.T) {
	// A bijective relabelling loses no information: observing the masked
	// value pins down the original exactly, so H(orig|masked) = 0.
	d, attrs := testData(t)
	masked := d.Clone()
	for _, c := range attrs {
		card := d.Schema().Attr(c).Cardinality()
		for r := 0; r < d.Rows(); r++ {
			masked.Set(r, c, (d.At(r, c)+1)%card)
		}
	}
	var e EBIL
	if got := e.Loss(d, masked, attrs); got != 0 {
		t.Fatalf("EBIL(bijection) = %v, want 0", got)
	}
	// But DBIL sees every cell changed.
	var db DBIL
	if got := db.Loss(d, masked, attrs); got == 0 {
		t.Fatal("DBIL(bijection) = 0, want > 0")
	}
}

func TestEBILIncreasesWithNoise(t *testing.T) {
	d, attrs := testData(t)
	rng := rand.New(rand.NewPCG(5, 5))
	light, _ := protection.Must("pram:theta=0.9").Protect(d, attrs, rng)
	rng = rand.New(rand.NewPCG(5, 5))
	heavy, _ := protection.Must("pram:theta=0.2").Protect(d, attrs, rng)
	var e EBIL
	l, h := e.Loss(d, light, attrs), e.Loss(d, heavy, attrs)
	if l >= h {
		t.Fatalf("EBIL light=%v >= heavy=%v", l, h)
	}
}

func TestEmptyAttrsAndRows(t *testing.T) {
	d, _ := testData(t)
	empty := dataset.New(d.Schema(), 0)
	for _, m := range Default() {
		if got := m.Loss(d, d, nil); got != 0 {
			t.Errorf("%s with no attrs = %v", m.Name(), got)
		}
		if got := m.Loss(empty, empty, []int{0}); got != 0 {
			t.Errorf("%s with no rows = %v", m.Name(), got)
		}
	}
}

func TestMeasureNames(t *testing.T) {
	want := map[string]bool{"CTBIL": true, "DBIL": true, "EBIL": true}
	for _, m := range Default() {
		if !want[m.Name()] {
			t.Errorf("unexpected measure %q", m.Name())
		}
		delete(want, m.Name())
	}
	if len(want) != 0 {
		t.Errorf("missing measures: %v", want)
	}
}
