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
