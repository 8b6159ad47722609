package datagen

import (
	"math"
	"testing"

	"evoprot/internal/dataset"
	"evoprot/internal/stats"
)

// paperShape records the shapes the paper reports in §3.
var paperShape = []struct {
	name      string
	rows      int
	attrs     int
	protected map[string]int // attribute -> category count
}{
	{"housing", 1000, 11, map[string]int{"BUILT": 25, "DEGREE": 8, "GRADE1": 21}},
	{"german", 1000, 13, map[string]int{"EXISTACC": 5, "SAVINGS": 6, "PRESEMPLOY": 6}},
	{"flare", 1066, 13, map[string]int{"CLASS": 8, "LARGSPOT": 7, "SPOTDIST": 5}},
	{"adult", 1000, 8, map[string]int{"EDUCATION": 16, "MARITAL-STATUS": 7, "OCCUPATION": 14}},
}

func TestPaperShapes(t *testing.T) {
	for _, c := range paperShape {
		d, err := ByName(c.name, 0, 1)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if d.Rows() != c.rows {
			t.Errorf("%s: rows = %d, want %d", c.name, d.Rows(), c.rows)
		}
		if d.Cols() != c.attrs {
			t.Errorf("%s: attrs = %d, want %d", c.name, d.Cols(), c.attrs)
		}
		for name, card := range c.protected {
			i, ok := d.Schema().IndexOf(name)
			if !ok {
				t.Errorf("%s: missing protected attribute %s", c.name, name)
				continue
			}
			if got := d.Schema().Attr(i).Cardinality(); got != card {
				t.Errorf("%s: |%s| = %d, want %d", c.name, name, got, card)
			}
		}
	}
}

func TestProtectedAttrsResolve(t *testing.T) {
	for _, name := range Names() {
		attrs, err := ProtectedAttrs(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(attrs) != 3 {
			t.Fatalf("%s: %d protected attrs, want 3", name, len(attrs))
		}
		d := mustByName(t, name, 100, 7)
		if _, err := d.Schema().Indices(attrs...); err != nil {
			t.Errorf("%s: protected attrs do not resolve: %v", name, err)
		}
	}
}

func TestProtectedAttrsUnknown(t *testing.T) {
	if _, err := ProtectedAttrs("nope"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	if _, err := ByName("nope", 0, 1); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestDeterminism(t *testing.T) {
	for _, name := range Names() {
		a := mustByName(t, name, 200, 42)
		b := mustByName(t, name, 200, 42)
		if !a.Equal(b) {
			t.Errorf("%s: same seed produced different data", name)
		}
		c := mustByName(t, name, 200, 43)
		if a.Equal(c) {
			t.Errorf("%s: different seeds produced identical data", name)
		}
	}
}

func TestValidity(t *testing.T) {
	for _, name := range Names() {
		d := mustByName(t, name, 0, 5)
		if err := d.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestCustomRows(t *testing.T) {
	d := mustByName(t, "adult", 37, 1)
	if d.Rows() != 37 {
		t.Fatalf("rows = %d, want 37", d.Rows())
	}
}

// TestMarginalsAreSkewed: the generators must not produce uniform columns —
// linkage and contingency measures need realistic skew.
func TestMarginalsAreSkewed(t *testing.T) {
	for _, name := range Names() {
		d := mustByName(t, name, 0, 11)
		skewedCols := 0
		for c := 0; c < d.Cols(); c++ {
			card := d.Schema().Attr(c).Cardinality()
			if card < 3 {
				continue
			}
			h := entropy(stats.Freq(d.Column(c), card))
			if h < 0.97*math.Log2(float64(card)) {
				skewedCols++
			}
		}
		if skewedCols < d.Cols()/2 {
			t.Errorf("%s: only %d/%d columns are skewed", name, skewedCols, d.Cols())
		}
	}
}

// mutualInformation estimates I(X;Y) in bits from two columns.
func mutualInformation(d *dataset.Dataset, x, y int) float64 {
	cx := d.Schema().Attr(x).Cardinality()
	cy := d.Schema().Attr(y).Cardinality()
	joint := make([]int, cx*cy)
	colX, colY := d.Column(x), d.Column(y)
	for r := range colX {
		joint[colX[r]*cy+colY[r]]++
	}
	hx := entropy(stats.Freq(colX, cx))
	hy := entropy(stats.Freq(colY, cy))
	hxy := entropy(joint)
	return hx + hy - hxy
}

// TestCoupledAttributesCorrelate: coupled pairs must carry real dependency
// (mutual information well above the independence baseline).
func TestCoupledAttributesCorrelate(t *testing.T) {
	cases := []struct {
		dataset string
		a, b    string
	}{
		{"adult", "EDUCATION", "OCCUPATION"},
		{"flare", "CLASS", "LARGSPOT"},
		{"german", "EXISTACC", "SAVINGS"},
		{"housing", "DEGREE", "GRADE1"},
	}
	for _, c := range cases {
		d := mustByName(t, c.dataset, 0, 3)
		idx, err := d.Schema().Indices(c.a, c.b)
		if err != nil {
			t.Fatal(err)
		}
		mi := mutualInformation(d, idx[0], idx[1])
		if mi < 0.05 {
			t.Errorf("%s: I(%s;%s) = %.4f bits, want >= 0.05", c.dataset, c.a, c.b, mi)
		}
	}
}

// TestAllCategoriesRepresented: at paper scale, the bulk of each protected
// domain should actually occur in the data, otherwise masking grids would
// operate on phantom categories.
func TestAllCategoriesRepresented(t *testing.T) {
	for _, c := range paperShape {
		d := mustByName(t, c.name, 0, 9)
		for name := range c.protected {
			i, _ := d.Schema().IndexOf(name)
			card := d.Schema().Attr(i).Cardinality()
			freq := stats.Freq(d.Column(i), card)
			present := 0
			for _, f := range freq {
				if f > 0 {
					present++
				}
			}
			if present < card*3/4 {
				t.Errorf("%s/%s: only %d/%d categories occur", c.name, name, present, card)
			}
		}
	}
}

func TestDefaultRows(t *testing.T) {
	if DefaultRows("flare") != 1066 {
		t.Fatal("flare default rows")
	}
	if DefaultRows("adult") != 1000 {
		t.Fatal("adult default rows")
	}
}

// mustByName is ByName that fails the test on error.
func mustByName(t *testing.T, name string, rows int, seed uint64) *dataset.Dataset {
	t.Helper()
	d, err := ByName(name, rows, seed)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// entropy returns the Shannon entropy, in bits, of the distribution
// implied by the non-negative counts (0 for an empty or all-zero slice).
func entropy(counts []int) float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	h := 0.0
	for _, c := range counts {
		if c > 0 {
			p := float64(c) / float64(total)
			h -= p * math.Log2(p)
		}
	}
	return h
}
