package stats

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

// NewContingencyTable tabulates the joint distribution of the given columns.
// columns[i] must all have the same length; cards[i] is the domain
// cardinality of columns[i]. Cell values outside [0, card) panic, as they
// indicate a corrupted dataset.
func NewContingencyTable(attrs []int, columns [][]int, cards []int) *ContingencyTable {
	if len(columns) != len(cards) || len(attrs) != len(columns) {
		panic("stats: mismatched contingency table inputs")
	}
	t := &ContingencyTable{
		Attrs: attrs,
		Cards: cards,
		Cells: make(map[ContingencyKey]int),
	}
	if len(columns) == 0 || len(columns[0]) == 0 {
		return t
	}
	n := len(columns[0])
	for r := 0; r < n; r++ {
		var key ContingencyKey
		for c, col := range columns {
			v := col[r]
			if v < 0 || v >= cards[c] {
				panic("stats: category index out of domain in contingency table")
			}
			key = key*ContingencyKey(cards[c]) + ContingencyKey(v)
		}
		t.Cells[key]++
	}
	t.Total = n
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
