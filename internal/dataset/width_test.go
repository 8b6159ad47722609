package dataset

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// wideSchema pairs a three-category attribute with one of card
// categories, so the widest domain sets the cell width of both columns.
func wideSchema(card int) *Schema {
	cats := make([]string, card)
	for i := range cats {
		cats[i] = fmt.Sprintf("v%d", i)
	}
	return MustSchema(
		MustAttribute("small", []string{"a", "b", "c"}, false),
		MustAttribute("wide", cats, true),
	)
}

// poke writes v into cell i of d's backing, bypassing Set's domain check.
func poke(d *Dataset, i int, v uint8) {
	if d.schema.wide {
		d.wide[i] = uint32(v)
	} else {
		d.narrow[i] = v
	}
}

// TestCellWidth checks the width rule at every boundary and, at each
// width, that the Dataset API behaves exactly as an []int store would.
func TestCellWidth(t *testing.T) {
	for _, tc := range []struct{ card, width int }{
		{1, 1}, {256, 1}, {257, 4}, {65536, 4}, {65537, 4},
	} {
		t.Run(fmt.Sprint(tc.card), func(t *testing.T) {
			s := wideSchema(tc.card)
			if got := BytesPerCell(New(s, 0)); got != tc.width {
				t.Fatalf("width %d, want %d", got, tc.width)
			}
			const rows = 5
			top := tc.card - 1
			// The model: what an []int store holds after the same Sets.
			model := [rows][2]int{{0, top}, {1, 0}, {2, top / 2}, {0, top}, {2, 1 % tc.card}}
			d := New(s, rows)
			for r, rec := range model {
				d.Set(r, 0, rec[0])
				d.Set(r, 1, rec[1])
			}
			if got, want := len(d.narrow)+4*len(d.wide), rows*2*tc.width; got != want {
				t.Fatalf("cells take %d bytes, want rows·cols·width = %d", got, want)
			}
			for r, rec := range model {
				if d.At(r, 0) != rec[0] || d.At(r, 1) != rec[1] {
					t.Fatalf("row %d reads (%d,%d), want %v", r, d.At(r, 0), d.At(r, 1), rec)
				}
			}
			if err := d.Validate(); err != nil {
				t.Fatal(err)
			}
			for _, bad := range []int{tc.card, -1} {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("Set(%d) on a %d-category attribute did not panic", bad, tc.card)
						}
					}()
					d.Set(0, 1, bad)
				}()
			}
			if d.At(0, 1) != top {
				t.Fatal("a panicking Set changed the cell")
			}

			col := make([]int, rows+2)
			d.ColumnInto(col, 1)
			for r, rec := range model {
				if col[r] != rec[1] {
					t.Fatalf("ColumnInto = %v, want column 1 of %v", col[:rows], model)
				}
			}
			if col[rows] != 0 || col[rows+1] != 0 {
				t.Fatal("ColumnInto wrote past Rows")
			}

			c := d.Clone()
			if !c.Equal(d) {
				t.Fatal("clone not equal")
			}
			c.Set(1, 1, top)
			c.Set(1, 0, 0)
			if d.At(1, 1) != 0 || d.At(1, 0) != 1 {
				t.Fatal("clone shares cells with its source")
			}
			if d.Equal(c) {
				t.Fatal("Equal missed a difference")
			}
			if got, want := d.Mismatches(c, nil), 1+min(1, top); got != want {
				t.Fatalf("Mismatches = %d, want %d", got, want)
			}
			if got := d.Mismatches(c, []int{0}); got != 1 {
				t.Fatalf("Mismatches(col 0) = %d, want 1", got)
			}

			w := d.CloneWith([]CellChange{{Row: 4, Col: 1, New: top}, {Row: 4, Col: 0, New: 1}, {Row: 4, Col: 0, New: 0}})
			if w.At(4, 1) != top || w.At(4, 0) != 0 || d.At(4, 0) != 2 {
				t.Fatal("CloneWith did not replay its changes onto a copy")
			}
			if got := w.Mismatches(d, nil); got != 1+min(1, top-model[4][1]) {
				t.Fatalf("CloneWith changed %d cells", got)
			}

			var buf bytes.Buffer
			if err := d.WriteCSV(&buf); err != nil {
				t.Fatal(err)
			}
			back, err := ReadCSVWithSchema(bytes.NewReader(buf.Bytes()), s)
			if err != nil {
				t.Fatal(err)
			}
			if !back.Equal(d) {
				t.Fatal("CSV round trip changed data")
			}
			// A structurally equal schema under a different pointer gets the
			// same width, so the byte compare still holds.
			twin, err := FromRecords(wideSchema(tc.card), d.Records())
			if err != nil {
				t.Fatal(err)
			}
			if twin.schema == d.schema || !twin.Equal(d) || !d.Equal(twin) {
				t.Fatal("Equal rejected a structurally equal schema")
			}

			poke(c, 1*2+0, 3) // cell (1, small) := 3, outside {a, b, c}
			if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "cell (1,0) value 3") {
				t.Fatalf("Validate = %v, want the out-of-domain cell (1,0)", err)
			}
		})
	}
}

// TestMismatchesAcrossWidthsPanics: files of different cell widths have
// different schemas, so comparing them is a shape mismatch.
func TestMismatchesAcrossWidthsPanics(t *testing.T) {
	narrow, wide := New(wideSchema(256), 2), New(wideSchema(257), 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Mismatches across cell widths did not panic")
		}
	}()
	narrow.Mismatches(wide, nil)
}
