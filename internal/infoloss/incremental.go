package infoloss

// Delta states of the information-loss battery. The contract (State,
// Prepare, Apply, ApplyUndo, Undo) is declared once in internal/measure.
// Every state stores exact integer summaries and funnels them through the
// value helpers of the full Loss methods (ctbilValue, dbilValue,
// ebilTerm), so a delta value is bit-for-bit identical to a full
// recompute. All three states are pure functions of the masked columns
// (given the shared original), so Undo rewinds a measure.Journal through
// the same exact integer patches.
//
// Shared and owned. Each measure binds (Bind, see the measure package)
// to one original file and attribute list: its origData (ctbilOrig,
// dbilOrig, ebilOrig, mlOrig) holds what depends on that pair alone and
// is built once per bound value, or once per call of an unbound
// Prepare, or of CTBIL's unbound Loss, all of which bind first. DBIL's
// and EBIL's unbound Loss read both files directly (they have no
// original-only summary to build), and ML utility's unbound Loss stays
// the independent accuracy oracle its delta tests compare against. Every
// state points at its origData and shares it read-only with every other
// state of the bound value and every clone.
//
//   - Shared: CTBIL's original contingency tables and their attribute
//     positions (a patch visits the tables holding the changed
//     attribute), DBIL's and EBIL's original file, attributes and
//     positions, and ML utility's mlOrig: the layout, the
//     original-trained accuracy and the held-out rows (mlutility.go).
//   - Owned: CTBIL's masked cell counts with their L1 distances and its
//     masked projection, DBIL's distance sums, EBIL's joint matrices and
//     cached terms, ML utility's masked-trained classifier and hit flags,
//     and every state's scratch and undo journal.

import (
	"maps"
	"slices"

	"evoprot/internal/dataset"
	"evoprot/internal/measure"
	"evoprot/internal/stats"
)

// State is measure.State. The alias and Incremental remain only for
// the benchmark's trace shims (perfbench/trace.go), which name them.
type State = measure.State

// Incremental is the Prepare/Apply half of measure.Reversible.
// Evaluators build states only for Reversible measures.
type Incremental interface {
	Measure
	Prepare(orig, masked *dataset.Dataset, attrs []int) State
	Apply(state State, changes []dataset.CellChange) float64
}

// Reversible is an information-loss Measure with the delta-state
// contract of measure.Reversible.
type Reversible interface {
	Measure
	measure.Reversible
}

// Binder is an information-loss measure that binds to one original file
// and attribute list (see the measure package's Binding): Bind computes
// the measure's original-only summaries once and returns the measure
// bound to the pair, whose states and full Loss share them.
type Binder interface {
	Bind(orig *dataset.Dataset, attrs []int) Reversible
}

// Compile-time capability checks: the whole default battery, and ML
// utility, is reversible and binds.
var (
	_ Reversible = (*CTBIL)(nil)
	_ Reversible = (*DBIL)(nil)
	_ Reversible = (*EBIL)(nil)
	_ Reversible = (*MLUtility)(nil)
	_ Binder     = (*CTBIL)(nil)
	_ Binder     = (*DBIL)(nil)
	_ Binder     = (*EBIL)(nil)
	_ Binder     = (*MLUtility)(nil)
)

// origData is one measure's original-only summaries for one bound pair,
// read-only once built: ctbilOrig, dbilOrig, ebilOrig or mlOrig.
type origData interface {
	// prepare builds the state of masked, pointing at the summaries; nil
	// when the measure keeps no state for the pair.
	prepare(masked *dataset.Dataset) State
	// loss is the measure's full Loss of masked.
	loss(masked *dataset.Dataset) float64
}

// bound is a measure bound to one pair: Prepare and Loss check the pair
// and read o; Name, Apply, ApplyUndo and Undo are the measure's own,
// since each state points at the summaries it was prepared from.
type bound struct {
	Reversible
	measure.Binding
	o origData
}

// Prepare implements measure.Reversible for the bound pair.
func (b *bound) Prepare(orig, masked *dataset.Dataset, attrs []int) State {
	b.Check(orig, attrs)
	return b.o.prepare(masked)
}

// Loss implements Measure for the bound pair.
func (b *bound) Loss(orig, masked *dataset.Dataset, attrs []int) float64 {
	b.Check(orig, attrs)
	return b.o.loss(masked)
}

// --- CTBIL ---

// ctbilOrig is CTBIL bound to one original file and attribute list: the
// original file's contingency table of every attribute subset, shared
// read-only by every state and read by full Loss.
type ctbilOrig struct {
	n     int
	attrs []int
	// tables[i] is the original's table of subset i; its Attrs are
	// dataset columns, rel[i] their positions in attrs.
	tables []*stats.ContingencyTable
	rel    [][]int
}

// ctbilState keeps, per table, the masked file's cell counts and their
// running L1 distance to the original's.
type ctbilState struct {
	*ctbilOrig                                // shared
	cells      []map[stats.ContingencyKey]int // owned
	l1         []int
	mc         *dataset.Dataset // masked file projected onto attrs (Dataset.Project); owned
	tuple      []int            // patchOne scratch: the edited record's tuple; never shared by clones
	undo       measure.Journal  // pending ApplyUndo; never shared by clones
}

// CloneState implements State.
func (s *ctbilState) CloneState() State {
	out := &ctbilState{ctbilOrig: s.ctbilOrig, cells: make([]map[stats.ContingencyKey]int, len(s.cells)),
		l1: slices.Clone(s.l1), mc: s.mc.Clone(), tuple: make([]int, len(s.tuple))}
	for i, cells := range s.cells {
		out.cells[i] = maps.Clone(cells)
	}
	return out
}

// Bind implements Binder.
func (c *CTBIL) Bind(orig *dataset.Dataset, attrs []int) Reversible {
	b := measure.NewBinding(orig, attrs)
	return &bound{Reversible: c, Binding: b, o: c.bind(orig, b.Attrs())}
}

// bind tabulates the original's table of every attribute subset up to
// MaxDim attributes. The tables' columns share one array, so a full
// Loss, which binds first, allocates no more than tabulating each subset
// directly would.
func (c *CTBIL) bind(orig *dataset.Dataset, attrs []int) *ctbilOrig {
	o := &ctbilOrig{n: orig.Rows(), attrs: attrs}
	if o.n == 0 || len(attrs) == 0 {
		return o
	}
	maxDim := min(c.maxDimOrDefault(), len(attrs))
	o.rel = stats.SubsetsUpTo(len(attrs), maxDim)
	o.tables = make([]*stats.ContingencyTable, len(o.rel))
	cols := make([]int, 0, len(o.rel)*maxDim)
	for i, subset := range o.rel {
		start := len(cols)
		for _, a := range subset {
			cols = append(cols, attrs[a])
		}
		o.tables[i] = stats.NewContingencyTable(orig, cols[start:len(cols):len(cols)])
	}
	return o
}

func (o *ctbilOrig) loss(masked *dataset.Dataset) float64 {
	if o.tables == nil {
		return 0
	}
	l1 := make([]int, len(o.tables))
	for i, to := range o.tables {
		l1[i] = to.L1Distance(stats.NewContingencyTable(masked, to.Attrs))
	}
	return ctbilValue(l1, o.n)
}

// prepare tabulates masked's table of every subset and its L1 distance
// to the original's.
func (o *ctbilOrig) prepare(masked *dataset.Dataset) State {
	if o.tables == nil {
		return nil
	}
	st := &ctbilState{
		ctbilOrig: o, mc: masked.Project(o.attrs), tuple: make([]int, len(o.attrs)),
		cells: make([]map[stats.ContingencyKey]int, len(o.tables)), l1: make([]int, len(o.tables)),
	}
	for i, to := range o.tables {
		tm := stats.NewContingencyTable(masked, to.Attrs)
		st.cells[i], st.l1[i] = tm.Cells, to.L1Distance(tm)
	}
	return st
}

// Prepare implements Incremental: it binds, then prepares.
func (c *CTBIL) Prepare(orig, masked *dataset.Dataset, attrs []int) State {
	return c.bind(orig, attrs).prepare(masked)
}

// patchOne advances the tables holding the changed attribute, and the
// masked cells, by one cell change. The patch is its own inverse under
// CellChange.Inverted: replaying inversions in reverse restores the
// exact integer summaries.
func (st *ctbilState) patchOne(ch dataset.CellChange) {
	a0 := slices.Index(st.attrs, ch.Col)
	for a := range st.tuple {
		st.tuple[a] = st.mc.At(ch.Row, a)
	}
	for ti, rel := range st.rel {
		if !slices.Contains(rel, a0) {
			continue
		}
		cards := st.tables[ti].Cards
		var oldKey, newKey stats.ContingencyKey
		for i, a := range rel {
			v := st.tuple[a]
			if a == a0 {
				v = ch.Old
			}
			oldKey = oldKey*stats.ContingencyKey(cards[i]) + stats.ContingencyKey(v)
			if a == a0 {
				v = ch.New
			}
			newKey = newKey*stats.ContingencyKey(cards[i]) + stats.ContingencyKey(v)
		}
		st.bump(ti, oldKey, -1)
		st.bump(ti, newKey, +1)
	}
	st.mc.Set(ch.Row, a0, ch.New)
}

// Apply implements Incremental. A plain Apply commits any pending
// ApplyUndo: the journaled changes become permanent.
func (c *CTBIL) Apply(state State, changes []dataset.CellChange) float64 {
	st := state.(*ctbilState)
	st.undo.Disarm()
	for _, ch := range changes {
		st.patchOne(ch)
	}
	return ctbilValue(st.l1, st.n)
}

// ApplyUndo implements Reversible.
func (c *CTBIL) ApplyUndo(state State, changes []dataset.CellChange) float64 {
	v := c.Apply(state, changes)
	state.(*ctbilState).undo.Arm(changes)
	return v
}

// Undo implements Reversible.
func (c *CTBIL) Undo(state State) {
	st := state.(*ctbilState)
	st.undo.Rewind(st.patchOne)
}

// bump adjusts one masked cell count of table ti by ±1, keeping the L1
// distance to the original table in sync.
func (st *ctbilState) bump(ti int, key stats.ContingencyKey, delta int) {
	cells := st.cells[ti]
	o := st.tables[ti].Cells[key]
	m := cells[key]
	st.l1[ti] += stats.AbsInt(m+delta-o) - stats.AbsInt(m-o)
	if m+delta == 0 {
		delete(cells, key)
	} else {
		cells[key] = m + delta
	}
}

// --- DBIL ---

// fileOrig is DBIL or EBIL bound to one original file and attribute
// list, shared read-only by every state: the file, the attributes and
// their positions. dbilOrig and ebilOrig give it each measure's
// prepare and loss.
type fileOrig struct {
	n     int
	orig  *dataset.Dataset
	attrs []int
	pos   map[int]int
}

// bindFile records the pair and the attributes' positions.
func bindFile(orig *dataset.Dataset, attrs []int) *fileOrig {
	return &fileOrig{n: orig.Rows(), orig: orig, attrs: attrs, pos: measure.Positions(attrs)}
}

type dbilState struct {
	*fileOrig                 // shared
	sums      []int64         // per attr position: rank-displacement sum or mismatch count
	undo      measure.Journal // pending ApplyUndo; never shared by clones
}

// CloneState implements State.
func (s *dbilState) CloneState() State {
	return &dbilState{fileOrig: s.fileOrig, sums: slices.Clone(s.sums)}
}

// Bind implements Binder.
func (d *DBIL) Bind(orig *dataset.Dataset, attrs []int) Reversible {
	b := measure.NewBinding(orig, attrs)
	return &bound{Reversible: d, Binding: b, o: dbilOrig{bindFile(orig, b.Attrs())}}
}

// dbilOrig is DBIL's origData.
type dbilOrig struct{ *fileOrig }

func (o dbilOrig) loss(masked *dataset.Dataset) float64 {
	return (&DBIL{}).Loss(o.orig, masked, o.attrs)
}

func (o dbilOrig) prepare(masked *dataset.Dataset) State {
	if o.n == 0 || len(o.attrs) == 0 {
		return nil
	}
	return &dbilState{fileOrig: o.fileOrig, sums: dbilSums(o.orig, masked, o.attrs)}
}

// Prepare implements Incremental: it binds, then prepares.
func (d *DBIL) Prepare(orig, masked *dataset.Dataset, attrs []int) State {
	return dbilOrig{bindFile(orig, attrs)}.prepare(masked)
}

// patchOne adjusts one attribute sum by one cell change; exactly
// self-inverse under CellChange.Inverted (integer arithmetic only).
func (st *dbilState) patchOne(ch dataset.CellChange) {
	a := st.pos[ch.Col]
	attr := st.orig.Schema().Attr(ch.Col)
	o := st.orig.At(ch.Row, ch.Col)
	if attr.Ordered() && attr.Cardinality() > 1 {
		st.sums[a] += int64(stats.AbsInt(o-ch.New) - stats.AbsInt(o-ch.Old))
	} else {
		if o != ch.Old {
			st.sums[a]--
		}
		if o != ch.New {
			st.sums[a]++
		}
	}
}

// Apply implements Incremental. A plain Apply commits any pending
// ApplyUndo.
func (d *DBIL) Apply(state State, changes []dataset.CellChange) float64 {
	st := state.(*dbilState)
	st.undo.Disarm()
	for _, ch := range changes {
		st.patchOne(ch)
	}
	return dbilValue(st.orig.Schema(), st.attrs, st.sums, st.n)
}

// ApplyUndo implements Reversible.
func (d *DBIL) ApplyUndo(state State, changes []dataset.CellChange) float64 {
	v := d.Apply(state, changes)
	state.(*dbilState).undo.Arm(changes)
	return v
}

// Undo implements Reversible.
func (d *DBIL) Undo(state State) {
	st := state.(*dbilState)
	st.undo.Rewind(st.patchOne)
}

// --- EBIL ---

type ebilState struct {
	*fileOrig                 // shared
	joint     [][][]int       // per attr position (nil when card < 2): card x card
	terms     []float64       // cached ebilTerm per attr position
	dirty     []bool          // Apply scratch, lazily built, never shared by clones
	undo      measure.Journal // pending ApplyUndo; never shared by clones
}

// CloneState implements State.
func (s *ebilState) CloneState() State {
	out := &ebilState{fileOrig: s.fileOrig}
	out.joint = make([][][]int, len(s.joint))
	for a, j := range s.joint {
		if j == nil {
			continue
		}
		card := len(j)
		backing := make([]int, card*card)
		m := make([][]int, card)
		for u := 0; u < card; u++ {
			m[u] = backing[u*card : (u+1)*card]
			copy(m[u], j[u])
		}
		out.joint[a] = m
	}
	out.terms = make([]float64, len(s.terms))
	copy(out.terms, s.terms)
	return out
}

// Bind implements Binder.
func (e *EBIL) Bind(orig *dataset.Dataset, attrs []int) Reversible {
	b := measure.NewBinding(orig, attrs)
	return &bound{Reversible: e, Binding: b, o: ebilOrig{bindFile(orig, b.Attrs())}}
}

// ebilOrig is EBIL's origData.
type ebilOrig struct{ *fileOrig }

func (o ebilOrig) loss(masked *dataset.Dataset) float64 {
	return (&EBIL{}).Loss(o.orig, masked, o.attrs)
}

func (o ebilOrig) prepare(masked *dataset.Dataset) State {
	if o.n == 0 || len(o.attrs) == 0 {
		return nil
	}
	st := &ebilState{
		fileOrig: o.fileOrig,
		joint:    make([][][]int, len(o.attrs)),
		terms:    make([]float64, len(o.attrs)),
	}
	for a, c := range o.attrs {
		card := o.orig.Schema().Attr(c).Cardinality()
		if card < 2 {
			continue // mirrors Loss: constant attributes are skipped
		}
		st.joint[a] = jointCounts(o.orig, masked, c, card)
		st.terms[a] = ebilTerm(st.joint[a], card, o.n)
	}
	return st
}

// Prepare implements Incremental: it binds, then prepares.
func (e *EBIL) Prepare(orig, masked *dataset.Dataset, attrs []int) State {
	return ebilOrig{bindFile(orig, attrs)}.prepare(masked)
}

// patchOne adjusts one joint transition matrix by one cell change and
// marks the attribute's cached term dirty; self-inverse under
// CellChange.Inverted.
func (st *ebilState) patchOne(ch dataset.CellChange) {
	a := st.pos[ch.Col]
	if st.joint[a] == nil {
		return // constant attribute; cannot actually change value
	}
	o := st.orig.At(ch.Row, ch.Col)
	st.joint[a][o][ch.Old]--
	st.joint[a][o][ch.New]++
	st.dirty[a] = true
}

// refreshTerms recomputes the cached ebilTerm of every dirty attribute.
// ebilTerm is a pure function of the (exact, integer) joint matrix, so
// a refresh after undoing the matrix patches restores the pre-apply
// term bit for bit.
func (st *ebilState) refreshTerms() {
	for a := range st.dirty {
		if !st.dirty[a] {
			continue
		}
		st.dirty[a] = false
		st.terms[a] = ebilTerm(st.joint[a], len(st.joint[a]), st.n)
	}
}

// Apply implements Incremental. A plain Apply commits any pending
// ApplyUndo.
func (e *EBIL) Apply(state State, changes []dataset.CellChange) float64 {
	st := state.(*ebilState)
	st.undo.Disarm()
	if st.dirty == nil {
		st.dirty = make([]bool, len(st.attrs))
	}
	for _, ch := range changes {
		st.patchOne(ch)
	}
	st.refreshTerms()
	sum := 0.0
	counted := 0
	for a := range st.attrs {
		if st.joint[a] == nil {
			continue
		}
		sum += st.terms[a]
		counted++
	}
	if counted == 0 {
		return 0
	}
	return 100 * sum / float64(counted)
}

// ApplyUndo implements Reversible.
func (e *EBIL) ApplyUndo(state State, changes []dataset.CellChange) float64 {
	v := e.Apply(state, changes)
	state.(*ebilState).undo.Arm(changes)
	return v
}

// Undo implements Reversible.
func (e *EBIL) Undo(state State) {
	st := state.(*ebilState)
	if st.undo.Rewind(st.patchOne) {
		st.refreshTerms()
	}
}
