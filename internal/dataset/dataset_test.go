package dataset

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	return MustSchema(
		MustAttribute("color", []string{"red", "green", "blue"}, false),
		MustAttribute("size", []string{"S", "M", "L", "XL"}, true),
	)
}

func TestNewAttributeErrors(t *testing.T) {
	cases := []struct {
		name string
		cats []string
	}{
		{"", []string{"a"}},
		{"x", nil},
		{"x", []string{"a", "a"}},
		{"x", []string{"a", ""}},
	}
	for _, c := range cases {
		if _, err := NewAttribute(c.name, c.cats, false); err == nil {
			t.Errorf("NewAttribute(%q, %v) succeeded, want error", c.name, c.cats)
		}
	}
}

func TestAttributeAccessors(t *testing.T) {
	a := MustAttribute("size", []string{"S", "M", "L"}, true)
	if a.Name() != "size" || a.Cardinality() != 3 || !a.Ordered() {
		t.Fatal("accessor mismatch")
	}
	if a.Category(1) != "M" {
		t.Fatalf("Category(1) = %q", a.Category(1))
	}
	if i, ok := a.Index("L"); !ok || i != 2 {
		t.Fatalf("Index(L) = %d,%v", i, ok)
	}
	if _, ok := a.Index("XXL"); ok {
		t.Fatal("Index of unknown category succeeded")
	}
	cats := a.Categories()
	cats[0] = "mutated"
	if a.Category(0) != "S" {
		t.Fatal("Categories() leaked internal slice")
	}
}

func TestNewSchemaErrors(t *testing.T) {
	a := MustAttribute("x", []string{"a"}, false)
	if _, err := NewSchema(); err == nil {
		t.Error("empty schema accepted")
	}
	if _, err := NewSchema(a, a); err == nil {
		t.Error("duplicate attribute names accepted")
	}
	if _, err := NewSchema(a, nil); err == nil {
		t.Error("nil attribute accepted")
	}
}

func TestSchemaLookups(t *testing.T) {
	s := testSchema(t)
	if s.NumAttrs() != 2 {
		t.Fatalf("NumAttrs = %d", s.NumAttrs())
	}
	if i, ok := s.IndexOf("size"); !ok || i != 1 {
		t.Fatalf("IndexOf(size) = %d,%v", i, ok)
	}
	if _, ok := s.IndexOf("nope"); ok {
		t.Fatal("IndexOf unknown succeeded")
	}
	idx, err := s.Indices("size", "color")
	if err != nil || idx[0] != 1 || idx[1] != 0 {
		t.Fatalf("Indices = %v, %v", idx, err)
	}
	if _, err := s.Indices("ghost"); err == nil {
		t.Fatal("Indices(ghost) succeeded")
	}
	names := s.AttrNames()
	if names[0] != "color" || names[1] != "size" {
		t.Fatalf("AttrNames = %v", names)
	}
	cards := s.Cardinalities(nil)
	if cards[0] != 3 || cards[1] != 4 {
		t.Fatalf("Cardinalities = %v", cards)
	}
	cards = s.Cardinalities([]int{1})
	if len(cards) != 1 || cards[0] != 4 {
		t.Fatalf("Cardinalities([1]) = %v", cards)
	}
}

func TestFromRecordsAndAccess(t *testing.T) {
	s := testSchema(t)
	d, err := FromRecords(s, [][]string{
		{"red", "S"},
		{"blue", "XL"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Rows() != 2 || d.Cols() != 2 {
		t.Fatalf("shape = %dx%d", d.Rows(), d.Cols())
	}
	if d.At(1, 0) != 2 || d.Value(1, 1) != "XL" {
		t.Fatal("cell access mismatch")
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFromRecordsErrors(t *testing.T) {
	s := testSchema(t)
	if _, err := FromRecords(s, [][]string{{"red"}}); err == nil {
		t.Error("short record accepted")
	}
	if _, err := FromRecords(s, [][]string{{"red", "XXL"}}); err == nil {
		t.Error("out-of-domain value accepted")
	}
}

func TestSetValidation(t *testing.T) {
	s := testSchema(t)
	d := New(s, 1)
	d.Set(0, 1, 3)
	if d.Value(0, 1) != "XL" {
		t.Fatal("Set failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Set out of domain did not panic")
		}
	}()
	d.Set(0, 0, 3)
}

func TestCloneIndependence(t *testing.T) {
	s := testSchema(t)
	d, _ := FromRecords(s, [][]string{{"red", "S"}, {"green", "M"}})
	c := d.Clone()
	if !d.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.Set(0, 0, 1)
	if d.At(0, 0) != 0 {
		t.Fatal("clone shares cells with original")
	}
	if d.Equal(c) {
		t.Fatal("Equal missed a difference")
	}
}

func TestCloneWithReplaysChanges(t *testing.T) {
	s := testSchema(t)
	d, _ := FromRecords(s, [][]string{{"red", "S"}, {"green", "M"}})
	// A chained list: the second edit of (1,1) starts where the first ended.
	changes := []CellChange{
		{Row: 0, Col: 0, Old: 0, New: 2},
		{Row: 1, Col: 1, Old: 1, New: 3},
		{Row: 1, Col: 1, Old: 3, New: 0},
	}
	c := d.CloneWith(changes)
	want, _ := FromRecords(s, [][]string{{"blue", "S"}, {"green", "S"}})
	if !c.Equal(want) {
		t.Fatalf("CloneWith = %v, want %v", c.Records(), want.Records())
	}
	if d.At(0, 0) != 0 || d.At(1, 1) != 1 {
		t.Fatal("CloneWith modified its receiver")
	}
	if e := d.CloneWith(nil); !e.Equal(d) || e == d {
		t.Fatal("CloneWith(nil) is not an independent copy")
	}
}

func TestEqualEdgeCases(t *testing.T) {
	s := testSchema(t)
	d := New(s, 2)
	if d.Equal(nil) {
		t.Fatal("Equal(nil) = true")
	}
	other := New(s, 3)
	if d.Equal(other) {
		t.Fatal("Equal across different row counts")
	}
	// Structurally equal schema under a different pointer: still equal.
	s2 := testSchema(t)
	if !d.Equal(New(s2, 2)) {
		t.Fatal("Equal rejected structurally equal schema")
	}
	// Structurally different schema: not equal.
	s3 := MustSchema(
		MustAttribute("color", []string{"red", "green", "blue"}, false),
		MustAttribute("size", []string{"S", "M", "L"}, true),
	)
	if d.Equal(New(s3, 2)) {
		t.Fatal("Equal across structurally different schemas")
	}
}

func TestSchemaEqualStructure(t *testing.T) {
	s := testSchema(t)
	if !s.EqualStructure(testSchema(t)) {
		t.Fatal("EqualStructure rejected identical schema")
	}
	if s.EqualStructure(nil) {
		t.Fatal("EqualStructure accepted nil")
	}
	renamed := MustSchema(
		MustAttribute("colour", []string{"red", "green", "blue"}, false),
		MustAttribute("size", []string{"S", "M", "L", "XL"}, true),
	)
	if s.EqualStructure(renamed) {
		t.Fatal("EqualStructure accepted renamed attribute")
	}
	unordered := MustSchema(
		MustAttribute("color", []string{"red", "green", "blue"}, false),
		MustAttribute("size", []string{"S", "M", "L", "XL"}, false),
	)
	if s.EqualStructure(unordered) {
		t.Fatal("EqualStructure accepted different orderedness")
	}
}

func TestColumnAndColumnInto(t *testing.T) {
	s := testSchema(t)
	d, _ := FromRecords(s, [][]string{{"red", "S"}, {"blue", "L"}, {"green", "M"}})
	col := d.Column(1)
	want := []int{0, 2, 1}
	for i := range want {
		if col[i] != want[i] {
			t.Fatalf("Column(1) = %v, want %v", col, want)
		}
	}
	dst := make([]int, 3)
	d.ColumnInto(dst, 0)
	if dst[0] != 0 || dst[1] != 2 || dst[2] != 1 {
		t.Fatalf("ColumnInto = %v", dst)
	}
	col[0] = 99
	if d.At(0, 1) != 0 {
		t.Fatal("Column leaked internal storage")
	}
}

func TestRecordsRoundTrip(t *testing.T) {
	s := testSchema(t)
	recs := [][]string{{"red", "S"}, {"blue", "XL"}, {"green", "M"}}
	d, _ := FromRecords(s, recs)
	got := d.Records()
	for r := range recs {
		for c := range recs[r] {
			if got[r][c] != recs[r][c] {
				t.Fatalf("Records = %v, want %v", got, recs)
			}
		}
	}
}

func TestMismatches(t *testing.T) {
	s := testSchema(t)
	a, _ := FromRecords(s, [][]string{{"red", "S"}, {"green", "M"}})
	b := a.Clone()
	if a.Mismatches(b, nil) != 0 {
		t.Fatal("identical datasets have mismatches")
	}
	b.Set(0, 0, 1)
	b.Set(1, 1, 3)
	if got := a.Mismatches(b, nil); got != 2 {
		t.Fatalf("Mismatches = %d, want 2", got)
	}
	if got := a.Mismatches(b, []int{1}); got != 1 {
		t.Fatalf("Mismatches(col 1) = %d, want 1", got)
	}
}

func TestMismatchesSymmetric(t *testing.T) {
	s := testSchema(t)
	f := func(cellsA, cellsB []uint8) bool {
		n := len(cellsA)
		if len(cellsB) < n {
			n = len(cellsB)
		}
		n = n / 2 * 2
		if n == 0 {
			return true
		}
		rows := n / 2
		a, b := New(s, rows), New(s, rows)
		for r := 0; r < rows; r++ {
			a.Set(r, 0, int(cellsA[2*r])%3)
			a.Set(r, 1, int(cellsA[2*r+1])%4)
			b.Set(r, 0, int(cellsB[2*r])%3)
			b.Set(r, 1, int(cellsB[2*r+1])%4)
		}
		return a.Mismatches(b, nil) == b.Mismatches(a, nil)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	s := testSchema(t)
	d, _ := FromRecords(s, [][]string{{"red", "S"}, {"blue", "XL"}})
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSVWithSchema(bytes.NewReader(buf.Bytes()), s)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Equal(back) {
		t.Fatal("CSV round trip changed data")
	}
}

func TestReadCSVInfersSchema(t *testing.T) {
	in := "city,size\nparis,M\nlyon,S\nparis,L\n"
	d, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if d.Rows() != 3 || d.Cols() != 2 {
		t.Fatalf("shape = %dx%d", d.Rows(), d.Cols())
	}
	// Domains are sorted lexicographically.
	city := d.Schema().Attr(0)
	if city.Category(0) != "lyon" || city.Category(1) != "paris" {
		t.Fatalf("inferred domain = %v", city.Categories())
	}
	if d.Value(0, 0) != "paris" {
		t.Fatalf("Value(0,0) = %q", d.Value(0, 0))
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Error("empty CSV accepted")
	}
	if _, err := ReadCSV(strings.NewReader("a,b\nx\n")); err == nil {
		t.Error("ragged CSV accepted")
	}
}

func TestReadCSVWithSchemaErrors(t *testing.T) {
	s := testSchema(t)
	if _, err := ReadCSVWithSchema(strings.NewReader("color\nred\n"), s); err == nil {
		t.Error("missing column accepted")
	}
	if _, err := ReadCSVWithSchema(strings.NewReader("size,color\nS,red\n"), s); err == nil {
		t.Error("reordered header accepted")
	}
	if _, err := ReadCSVWithSchema(strings.NewReader("color,size\nmauve,S\n"), s); err == nil {
		t.Error("out-of-domain value accepted")
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	s := testSchema(t)
	d := New(s, 2)
	// Corrupt cell (1, 1) through the backdoor.
	d.narrow[3] = 99
	if err := d.Validate(); err == nil {
		t.Fatal("Validate missed corruption")
	}
}
