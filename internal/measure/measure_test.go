package measure

import (
	"slices"
	"testing"

	"evoprot/internal/dataset"
)

// TestJournalRewind: Rewind hands the armed changes back newest first and
// inverted, disarms the journal, and does nothing — reporting false —
// when nothing is armed: before any Arm, after a Disarm and after a
// Rewind.
func TestJournalRewind(t *testing.T) {
	var j Journal
	var got []dataset.CellChange
	record := func(ch dataset.CellChange) { got = append(got, ch) }
	if j.Rewind(record) || len(got) != 0 {
		t.Fatal("Rewind on a fresh journal replayed")
	}
	changes := []dataset.CellChange{
		{Row: 0, Col: 1, Old: 2, New: 3},
		{Row: 4, Col: 1, Old: 0, New: 1},
		{Row: 0, Col: 1, Old: 3, New: 5},
	}
	j.Arm(changes)
	changes[0].New = 9 // the journal keeps its own copy
	if !j.Rewind(record) {
		t.Fatal("Rewind of an armed journal reported false")
	}
	want := []dataset.CellChange{
		{Row: 0, Col: 1, Old: 5, New: 3},
		{Row: 4, Col: 1, Old: 1, New: 0},
		{Row: 0, Col: 1, Old: 3, New: 2},
	}
	if !slices.Equal(got, want) {
		t.Fatalf("Rewind replayed %v, want %v", got, want)
	}
	got = nil
	if j.Rewind(record) || len(got) != 0 {
		t.Fatal("a second Rewind replayed; Rewind must disarm")
	}
	j.Arm(changes[:1])
	j.Disarm()
	if j.Rewind(record) || len(got) != 0 {
		t.Fatal("Rewind after Disarm replayed")
	}
}

// TestBindingCheck: a binding accepts its own pair, with the attributes
// passed as any equal list, and panics on another original file, even an
// equal copy, and on another attribute list: reordered, shorter or
// changed. It keeps its own copy of the attributes.
func TestBindingCheck(t *testing.T) {
	s := dataset.MustSchema(
		dataset.MustAttribute("a", []string{"x", "y"}, false),
		dataset.MustAttribute("b", []string{"x", "y"}, false),
	)
	orig := dataset.New(s, 3)
	attrs := []int{0, 1}
	b := NewBinding(orig, attrs)
	attrs[0] = 1 // the binding keeps its own copy
	b.Check(orig, []int{0, 1})
	if !slices.Equal(b.Attrs(), []int{0, 1}) {
		t.Fatalf("Attrs = %v, want [0 1]", b.Attrs())
	}
	for _, tc := range []struct {
		what  string
		orig  *dataset.Dataset
		attrs []int
	}{
		{"an equal copy of the file", orig.Clone(), []int{0, 1}},
		{"reordered attributes", orig, []int{1, 0}},
		{"fewer attributes", orig, []int{0}},
		{"changed attributes", orig, attrs},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Check with %s did not panic", tc.what)
				}
			}()
			b.Check(tc.orig, tc.attrs)
		}()
	}
}
