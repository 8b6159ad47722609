package stats

import "evoprot/internal/dataset"

// ContingencyKey encodes a tuple of category indices over a fixed attribute
// subset into a single comparable value using mixed-radix positional
// encoding. Keys are only comparable between tables built with the same
// cardinalities.
type ContingencyKey uint64

// ContingencyTable is a sparse joint frequency table over a subset of
// categorical attributes.
type ContingencyTable struct {
	// Attrs holds the attribute (column) indices the table ranges over.
	Attrs []int
	// Cards holds the domain cardinality of each attribute in Attrs.
	Cards []int
	// Cells maps an encoded category tuple to its count.
	Cells map[ContingencyKey]int
	// Total is the number of records tabulated.
	Total int
}

// NewContingencyTable tabulates the joint distribution of the columns
// attrs of d, reading its cells in place. Cell values outside their
// attribute's domain panic, as they indicate a corrupted dataset.
func NewContingencyTable(d *dataset.Dataset, attrs []int) *ContingencyTable {
	cards := d.Schema().Cardinalities(attrs)
	t := &ContingencyTable{
		Attrs: attrs,
		Cards: cards,
		Cells: make(map[ContingencyKey]int),
	}
	if len(attrs) == 0 || d.Rows() == 0 {
		return t
	}
	for r := range d.Rows() {
		var key ContingencyKey
		for i, c := range attrs {
			v := d.At(r, c)
			if v < 0 || v >= cards[i] {
				panic("stats: category index out of domain in contingency table")
			}
			key = key*ContingencyKey(cards[i]) + ContingencyKey(v)
		}
		t.Cells[key]++
	}
	t.Total = d.Rows()
	return t
}

// L1Distance returns the sum of absolute cell-count differences between two
// tables over the same attribute subset. The maximum possible value is
// a.Total + b.Total (disjoint supports).
func (t *ContingencyTable) L1Distance(other *ContingencyTable) int {
	d := 0
	for key, c := range t.Cells {
		d += AbsInt(c - other.Cells[key])
	}
	for key, c := range other.Cells {
		if _, seen := t.Cells[key]; !seen {
			d += c
		}
	}
	return d
}
