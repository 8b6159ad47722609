package protection

import (
	"math/rand/v2"
	"strings"
	"testing"

	"evoprot/internal/dataset"
)

// Coverage-closing tests: Params strings, grid midpoints, nominal
// (mode-based) microaggregation centroids, and degenerate inputs.

func TestParamsStrings(t *testing.T) {
	cases := map[string]string{
		"micro:k=4,config=2": "k=4 config=2",
		"top:q=0.1":          "q=0.100",
		"bottom:q=0.25":      "q=0.250",
		"recode:depth=3":     "depth=3",
		"rankswap:p=7.5":     "p=7.5",
		"pram:theta=0.625":   "theta=0.625",
	}
	for spec, want := range cases {
		m := mustParse(t, spec)
		if got := m.Params(); got != want {
			t.Errorf("%s: Params = %q, want %q", spec, got, want)
		}
	}
}

func TestSpreadSinglePoint(t *testing.T) {
	if got := spread(2, 10, 1); len(got) != 1 || got[0] != 6 {
		t.Fatalf("spread midpoint = %v", got)
	}
	if got := spread(2, 10, 0); got != nil {
		t.Fatalf("spread of 0 = %v", got)
	}
}

func TestGridsOfSizeOne(t *testing.T) {
	// Single-variant grids take the parameter-range midpoint.
	for _, grid := range [][]Method{
		TopCodingGrid(1), BottomCodingGrid(1), GlobalRecodingGrid(1),
		RankSwappingGrid(1), PRAMGrid(1), MicroaggregationGrid(1, 3),
	} {
		if len(grid) != 1 {
			t.Fatalf("grid size = %d", len(grid))
		}
	}
}

func TestNewMicroaggregationValidation(t *testing.T) {
	if _, err := NewMicroaggregation(1, 0); err == nil {
		t.Error("k=1 accepted")
	}
	if _, err := NewMicroaggregation(3, -1); err == nil {
		t.Error("negative config accepted")
	}
}

// TestMicroaggregationNominalMode: unordered attributes aggregate to the
// block mode, with ties broken toward the smallest category index.
func TestMicroaggregationNominalMode(t *testing.T) {
	s := dataset.MustSchema(
		dataset.MustAttribute("color", []string{"red", "green", "blue"}, false), // nominal
	)
	d, err := dataset.FromRecords(s, [][]string{
		{"blue"}, {"blue"}, {"red"}, {"green"}, {"green"}, {"blue"},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := NewMicroaggregation(6, 0) // one block of all six records
	masked, err := m.Protect(d, []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Mode of {blue x3, green x2, red x1} is blue.
	for r := 0; r < masked.Rows(); r++ {
		if masked.Value(r, 0) != "blue" {
			t.Fatalf("record %d = %q, want blue", r, masked.Value(r, 0))
		}
	}
}

func TestMicroaggregationNominalModeTieBreak(t *testing.T) {
	s := dataset.MustSchema(
		dataset.MustAttribute("color", []string{"red", "green"}, false),
	)
	d, err := dataset.FromRecords(s, [][]string{
		{"green"}, {"red"}, {"green"}, {"red"},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := NewMicroaggregation(4, 0)
	masked, err := m.Protect(d, []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 2-2 tie: smallest index (red) wins.
	if masked.Value(0, 0) != "red" {
		t.Fatalf("tie broke to %q, want red", masked.Value(0, 0))
	}
}

func TestMicroaggregationEmptyDataset(t *testing.T) {
	s := dataset.MustSchema(dataset.MustAttribute("x", []string{"a", "b"}, true))
	d := dataset.New(s, 0)
	m, _ := NewMicroaggregation(3, 0)
	masked, err := m.Protect(d, []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if masked.Rows() != 0 {
		t.Fatal("empty dataset grew rows")
	}
}

func TestMicroaggregationFewerRecordsThanK(t *testing.T) {
	s := dataset.MustSchema(dataset.MustAttribute("x", []string{"a", "b", "c"}, true))
	d, _ := dataset.FromRecords(s, [][]string{{"a"}, {"c"}})
	m, _ := NewMicroaggregation(10, 0)
	masked, err := m.Protect(d, []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Both records form one block; the ordered median of {a, c} (lower
	// median) is a.
	if masked.Value(0, 0) != "a" || masked.Value(1, 0) != "a" {
		t.Fatalf("values = %q, %q", masked.Value(0, 0), masked.Value(1, 0))
	}
}

func TestParseWeirdSpecs(t *testing.T) {
	// Parameters for one method are rejected by value validation, not
	// silently ignored.
	if _, err := Parse("micro:config=-1"); err == nil {
		t.Error("negative config accepted")
	}
	if _, err := Parse("top:q=abc"); err == nil {
		t.Error("non-numeric q accepted")
	}
	if _, err := Parse("recode:depth=x"); err == nil {
		t.Error("non-numeric depth accepted")
	}
	if _, err := Parse("rankswap:p=abc"); err == nil {
		t.Error("non-numeric p accepted")
	}
	if _, err := Parse("pram:theta=abc"); err == nil {
		t.Error("non-numeric theta accepted")
	}
	// Unknown parameters are tolerated (defaults apply) — documented
	// lenient behaviour.
	m, err := Parse("pram:myknob=3")
	if err != nil {
		t.Fatalf("unknown param rejected: %v", err)
	}
	if !strings.Contains(m.Params(), "0.800") {
		t.Fatalf("default theta lost: %s", m.Params())
	}
}

func TestRankSwappingWindowAtLeastOne(t *testing.T) {
	// Tiny p on a tiny file: the window clamps to one rank, the method
	// still runs and preserves marginals.
	s := dataset.MustSchema(dataset.MustAttribute("x", []string{"a", "b", "c"}, true))
	d, _ := dataset.FromRecords(s, [][]string{{"a"}, {"b"}, {"c"}, {"a"}, {"b"}})
	rs, _ := NewRankSwapping(0.1)
	masked, err := rs.Protect(d, []int{0}, rand.New(rand.NewPCG(1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := masked.Validate(); err != nil {
		t.Fatal(err)
	}
}
