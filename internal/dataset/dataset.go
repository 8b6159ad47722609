// Package dataset implements the categorical microdata model the rest of
// the module is built on: attributes with finite (optionally ordered)
// category domains, schemas, and datasets stored as category indices.
//
// A protected ("masked") file is simply another Dataset over the same
// Schema; the evolutionary engine treats such datasets as chromosomes whose
// genes are whole categories. Values are stored as indices into the
// attribute domain rather than raw strings — semantically identical (genes
// are still entire categories, never partial strings, cf. paper §2.1) but
// far cheaper to copy and compare.
//
// Each index is stored in one of two widths, fixed once by NewSchema from
// the schema's largest domain: one byte per cell up to 256 categories, four
// bytes beyond. Every synthetic file therefore costs one byte per cell.
// The width is invisible outside the package: At and Set take and return
// int, and everything written from a Dataset — CSV files and engine
// checkpoints, which read cells through At — is byte for byte what it
// would be at the other width.
package dataset

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
)

// Attribute describes one categorical variable: its name, its finite domain
// of categories, and whether the domain carries a meaningful total order
// (e.g. income brackets, construction decades). Order matters for the
// rank-based masking methods and measures; purely nominal attributes fall
// back to equality-based distances.
type Attribute struct {
	name       string
	categories []string
	ordered    bool
	index      map[string]int
}

// NewAttribute builds an attribute. The category list must be non-empty and
// free of duplicates; its order defines the domain order when ordered is
// true.
func NewAttribute(name string, categories []string, ordered bool) (*Attribute, error) {
	if name == "" {
		return nil, fmt.Errorf("dataset: attribute with empty name")
	}
	if len(categories) == 0 {
		return nil, fmt.Errorf("dataset: attribute %q has no categories", name)
	}
	idx := make(map[string]int, len(categories))
	for i, c := range categories {
		if c == "" {
			return nil, fmt.Errorf("dataset: attribute %q has an empty category at position %d", name, i)
		}
		if _, dup := idx[c]; dup {
			return nil, fmt.Errorf("dataset: attribute %q has duplicate category %q", name, c)
		}
		idx[c] = i
	}
	cats := make([]string, len(categories))
	copy(cats, categories)
	return &Attribute{name: name, categories: cats, ordered: ordered, index: idx}, nil
}

// MustAttribute is NewAttribute that panics on error; for tests and
// statically-known schemas.
func MustAttribute(name string, categories []string, ordered bool) *Attribute {
	a, err := NewAttribute(name, categories, ordered)
	if err != nil {
		panic(err)
	}
	return a
}

// Name returns the attribute name.
func (a *Attribute) Name() string { return a.name }

// Cardinality returns the number of categories in the domain.
func (a *Attribute) Cardinality() int { return len(a.categories) }

// Ordered reports whether the domain carries a total order.
func (a *Attribute) Ordered() bool { return a.ordered }

// Category returns the label of category i. It panics if i is out of range,
// which indicates a corrupted dataset.
func (a *Attribute) Category(i int) string { return a.categories[i] }

// Index returns the domain index of the given category label.
func (a *Attribute) Index(category string) (int, bool) {
	i, ok := a.index[category]
	return i, ok
}

// Categories returns a copy of the domain in order.
func (a *Attribute) Categories() []string {
	out := make([]string, len(a.categories))
	copy(out, a.categories)
	return out
}

// Schema is an ordered collection of attributes with unique names.
type Schema struct {
	attrs  []*Attribute
	byName map[string]int
	wide   bool // some domain exceeds 256 categories: cells take four bytes, not one
}

// NewSchema builds a schema from the given attributes; names must be unique.
func NewSchema(attrs ...*Attribute) (*Schema, error) {
	if len(attrs) == 0 {
		return nil, fmt.Errorf("dataset: schema with no attributes")
	}
	byName := make(map[string]int, len(attrs))
	maxCard := 0
	for i, a := range attrs {
		if a == nil {
			return nil, fmt.Errorf("dataset: nil attribute at position %d", i)
		}
		if _, dup := byName[a.name]; dup {
			return nil, fmt.Errorf("dataset: duplicate attribute name %q", a.name)
		}
		byName[a.name] = i
		maxCard = max(maxCard, a.Cardinality())
	}
	own := make([]*Attribute, len(attrs))
	copy(own, attrs)
	return &Schema{attrs: own, byName: byName, wide: maxCard > 1<<8}, nil
}

// MustSchema is NewSchema that panics on error.
func MustSchema(attrs ...*Attribute) *Schema {
	s, err := NewSchema(attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// NumAttrs returns the number of attributes.
func (s *Schema) NumAttrs() int { return len(s.attrs) }

// Attr returns attribute i.
func (s *Schema) Attr(i int) *Attribute { return s.attrs[i] }

// IndexOf returns the position of the named attribute.
func (s *Schema) IndexOf(name string) (int, bool) {
	i, ok := s.byName[name]
	return i, ok
}

// Indices resolves a list of attribute names to column indices, failing on
// the first unknown name.
func (s *Schema) Indices(names ...string) ([]int, error) {
	out := make([]int, 0, len(names))
	for _, n := range names {
		i, ok := s.byName[n]
		if !ok {
			return nil, fmt.Errorf("dataset: unknown attribute %q (have %s)", n, strings.Join(s.AttrNames(), ", "))
		}
		out = append(out, i)
	}
	return out, nil
}

// AttrNames returns the attribute names in schema order.
func (s *Schema) AttrNames() []string {
	out := make([]string, len(s.attrs))
	for i, a := range s.attrs {
		out[i] = a.name
	}
	return out
}

// EqualStructure reports whether two schemas describe the same attributes:
// same names, same domains in the same order, same orderedness.
func (s *Schema) EqualStructure(o *Schema) bool {
	if o == nil || len(s.attrs) != len(o.attrs) {
		return false
	}
	for i, a := range s.attrs {
		b := o.attrs[i]
		if a.name != b.name || a.ordered != b.ordered || len(a.categories) != len(b.categories) {
			return false
		}
		for j, c := range a.categories {
			if b.categories[j] != c {
				return false
			}
		}
	}
	return true
}

// Cardinalities returns the domain sizes of the given columns (all columns
// when attrs is nil).
func (s *Schema) Cardinalities(attrs []int) []int {
	if attrs == nil {
		attrs = make([]int, len(s.attrs))
		for i := range attrs {
			attrs[i] = i
		}
	}
	out := make([]int, len(attrs))
	for i, c := range attrs {
		out[i] = s.attrs[c].Cardinality()
	}
	return out
}

// Dataset is a table of categorical microdata: Rows() records over the
// schema's attributes, each cell a category index into the attribute's
// domain. Cells are stored row-major at the schema's width (see the
// package doc), so copying or comparing two files is a copy or compare of
// one flat slice.
type Dataset struct {
	schema *Schema
	rows   int
	// Cell (r, c) is element r*NumAttrs()+c of narrow, or of wide when the
	// schema is wide; the other slice is nil.
	narrow []uint8
	wide   []uint32
}

// word is the element type of one storage width.
type word interface{ uint8 | uint32 }

// New returns a dataset of the given number of rows with every cell set to
// category 0.
func New(schema *Schema, rows int) *Dataset {
	if schema == nil {
		panic("dataset: nil schema")
	}
	if rows < 0 {
		panic("dataset: negative row count")
	}
	d := &Dataset{schema: schema, rows: rows}
	if n := rows * schema.NumAttrs(); schema.wide {
		d.wide = make([]uint32, n)
	} else {
		d.narrow = make([]uint8, n)
	}
	return d
}

// FromRecords builds a dataset from string records; every value must belong
// to the corresponding attribute's domain.
func FromRecords(schema *Schema, records [][]string) (*Dataset, error) {
	d := New(schema, len(records))
	var err error
	if schema.wide {
		err = fromRecords(d.wide, schema, records)
	} else {
		err = fromRecords(d.narrow, schema, records)
	}
	if err != nil {
		return nil, err
	}
	return d, nil
}

func fromRecords[T word](cells []T, schema *Schema, records [][]string) error {
	a := schema.NumAttrs()
	for r, rec := range records {
		if len(rec) != a {
			return fmt.Errorf("dataset: record %d has %d fields, schema has %d", r, len(rec), a)
		}
		for c, v := range rec {
			idx, ok := schema.Attr(c).Index(v)
			if !ok {
				return fmt.Errorf("dataset: record %d: value %q not in domain of %s", r, v, schema.Attr(c).Name())
			}
			cells[r*a+c] = T(idx)
		}
	}
	return nil
}

// Schema returns the dataset's schema.
func (d *Dataset) Schema() *Schema { return d.schema }

// Rows returns the number of records.
func (d *Dataset) Rows() int { return d.rows }

// Cols returns the number of attributes.
func (d *Dataset) Cols() int { return d.schema.NumAttrs() }

// At returns the category index at (row, col).
func (d *Dataset) At(row, col int) int {
	i := row*d.schema.NumAttrs() + col
	if d.schema.wide {
		return int(d.wide[i])
	}
	return int(d.narrow[i])
}

// Set assigns the category index v at (row, col). It panics if v is outside
// the attribute's domain: a cell outside the domain can only be a bug, and
// every downstream measure would silently miscount.
func (d *Dataset) Set(row, col, v int) {
	if v < 0 || v >= d.schema.Attr(col).Cardinality() {
		panic(fmt.Sprintf("dataset: value %d out of domain of %s (cardinality %d)",
			v, d.schema.Attr(col).Name(), d.schema.Attr(col).Cardinality()))
	}
	i := row*d.schema.NumAttrs() + col
	if d.schema.wide {
		d.wide[i] = uint32(v)
	} else {
		d.narrow[i] = uint8(v)
	}
}

// Value returns the category label at (row, col).
func (d *Dataset) Value(row, col int) string {
	return d.schema.Attr(col).Category(d.At(row, col))
}

// Clone returns a deep copy sharing the (immutable) schema.
func (d *Dataset) Clone() *Dataset {
	return &Dataset{schema: d.schema, rows: d.rows, narrow: slices.Clone(d.narrow), wide: slices.Clone(d.wide)}
}

// Equal reports whether both datasets have structurally equal schemas, the
// same shape and the same cell values. Structurally equal schemas have the
// same width, so this compares the cell slices.
func (d *Dataset) Equal(o *Dataset) bool {
	if o == nil || d.rows != o.rows {
		return false
	}
	if d.schema != o.schema && !d.schema.EqualStructure(o.schema) {
		return false
	}
	return bytes.Equal(d.narrow, o.narrow) && slices.Equal(d.wide, o.wide)
}

// Column returns a copy of column c.
func (d *Dataset) Column(c int) []int {
	out := make([]int, d.rows)
	d.ColumnInto(out, c)
	return out
}

// ColumnInto fills dst (len >= Rows) with column c, avoiding allocation in
// hot paths.
func (d *Dataset) ColumnInto(dst []int, c int) {
	dst = dst[:d.rows]
	a := d.schema.NumAttrs()
	if d.schema.wide {
		columnInto(dst, d.wide, a, c)
	} else {
		columnInto(dst, d.narrow, a, c)
	}
}

func columnInto[T word](dst []int, cells []T, a, c int) {
	for r := range dst {
		dst[r] = int(cells[r*a+c])
	}
}

// Records materializes the dataset back to string records.
func (d *Dataset) Records() [][]string {
	a := d.schema.NumAttrs()
	out := make([][]string, d.rows)
	for r := 0; r < d.rows; r++ {
		rec := make([]string, a)
		for c := 0; c < a; c++ {
			rec[c] = d.Value(r, c)
		}
		out[r] = rec
	}
	return out
}

// Mismatches counts cells that differ between d and o over the given
// columns (all columns when attrs is nil). Both datasets must have the same
// shape and cell width, as any two files over one schema do.
func (d *Dataset) Mismatches(o *Dataset, attrs []int) int {
	if d.rows != o.rows || d.schema.NumAttrs() != o.schema.NumAttrs() || d.schema.wide != o.schema.wide {
		panic("dataset: Mismatches on datasets of different shape")
	}
	if attrs == nil {
		attrs = make([]int, d.schema.NumAttrs())
		for i := range attrs {
			attrs[i] = i
		}
	}
	a := d.schema.NumAttrs()
	if d.schema.wide {
		return mismatches(d.wide, o.wide, d.rows, a, attrs)
	}
	return mismatches(d.narrow, o.narrow, d.rows, a, attrs)
}

func mismatches[T word](x, y []T, rows, a int, attrs []int) int {
	n := 0
	for r := 0; r < rows; r++ {
		base := r * a
		for _, c := range attrs {
			if x[base+c] != y[base+c] {
				n++
			}
		}
	}
	return n
}

// Validate checks that every cell lies within its attribute's domain.
func (d *Dataset) Validate() error {
	if d.schema.wide {
		return validate(d.wide, d.schema, d.rows)
	}
	return validate(d.narrow, d.schema, d.rows)
}

func validate[T word](cells []T, s *Schema, rows int) error {
	a := s.NumAttrs()
	for r := 0; r < rows; r++ {
		for c := 0; c < a; c++ {
			if v := int(cells[r*a+c]); v >= s.attrs[c].Cardinality() {
				return fmt.Errorf("dataset: cell (%d,%d) value %d outside domain of %s", r, c, v, s.Attr(c).Name())
			}
		}
	}
	return nil
}
