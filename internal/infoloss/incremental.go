package infoloss

// Delta states of the information-loss battery. The contract (State,
// Prepare, Apply, ApplyUndo, Undo) is declared once in internal/measure.
// Every state stores exact integer summaries and funnels them through the
// value helpers of the full Loss methods (ctbilValue, dbilValue,
// ebilTerm), so a delta value is bit-for-bit identical to a full
// recompute. All three states are pure functions of the masked columns
// (given the shared original), so Undo rewinds a measure.Journal through
// the same exact integer patches.

import (
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

// Compile-time capability checks: the whole default battery is
// reversible.
var (
	_ Reversible = (*CTBIL)(nil)
	_ Reversible = (*DBIL)(nil)
	_ Reversible = (*EBIL)(nil)
)

// --- CTBIL ---

// ctbilTable is one contingency table of the CTBIL state: the masked
// file's cell counts plus the running L1 distance to the original file's
// (immutable, shared) table.
type ctbilTable struct {
	rel   []int // positions into attrs of the table's columns
	cards []int
	orig  map[stats.ContingencyKey]int // shared, never written
	cells map[stats.ContingencyKey]int // owned
	l1    int
}

type ctbilState struct {
	n      int
	attrs  []int
	pos    map[int]int // column index -> position in attrs
	tables []*ctbilTable
	byPos  [][]int         // attr position -> indices of tables containing it
	mc     [][]int         // masked protected columns, by attr position; owned
	l1     []int           // Apply scratch, lazily built, never shared by clones
	undo   measure.Journal // pending ApplyUndo; never shared by clones
}

// CloneState implements State.
func (s *ctbilState) CloneState() State {
	out := &ctbilState{n: s.n, attrs: s.attrs, pos: s.pos, byPos: s.byPos}
	out.tables = make([]*ctbilTable, len(s.tables))
	for i, t := range s.tables {
		cells := make(map[stats.ContingencyKey]int, len(t.cells))
		for k, v := range t.cells {
			cells[k] = v
		}
		out.tables[i] = &ctbilTable{rel: t.rel, cards: t.cards, orig: t.orig, cells: cells, l1: t.l1}
	}
	out.mc = make([][]int, len(s.mc))
	for i, col := range s.mc {
		own := make([]int, len(col))
		copy(own, col)
		out.mc[i] = own
	}
	return out
}

// Prepare implements Incremental.
func (c *CTBIL) Prepare(orig, masked *dataset.Dataset, attrs []int) State {
	n := orig.Rows()
	if n == 0 || len(attrs) == 0 {
		return nil
	}
	st := &ctbilState{n: n, attrs: attrs, pos: make(map[int]int, len(attrs))}
	for a, col := range attrs {
		st.pos[col] = a
	}
	st.mc = columns(masked, attrs)
	oc := columns(orig, attrs)
	subsets := stats.SubsetsUpTo(len(attrs), c.maxDimOrDefault())
	st.byPos = make([][]int, len(attrs))
	for _, subset := range subsets {
		to, tm := subsetTables(orig.Schema(), attrs, subset, oc, st.mc)
		rel := make([]int, len(subset))
		copy(rel, subset)
		t := &ctbilTable{rel: rel, cards: to.Cards, orig: to.Cells, cells: tm.Cells, l1: to.L1Distance(tm)}
		for _, a := range rel {
			st.byPos[a] = append(st.byPos[a], len(st.tables))
		}
		st.tables = append(st.tables, t)
	}
	return st
}

// patchOne advances the tables and masked columns by one cell change.
// The patch is its own inverse under CellChange.Inverted: replaying
// inversions in reverse restores the exact integer summaries.
func (st *ctbilState) patchOne(ch dataset.CellChange) {
	a0 := st.pos[ch.Col]
	for _, ti := range st.byPos[a0] {
		t := st.tables[ti]
		var oldKey, newKey stats.ContingencyKey
		for i, a := range t.rel {
			v := st.mc[a][ch.Row]
			if a == a0 {
				v = ch.Old
			}
			oldKey = oldKey*stats.ContingencyKey(t.cards[i]) + stats.ContingencyKey(v)
			if a == a0 {
				v = ch.New
			}
			newKey = newKey*stats.ContingencyKey(t.cards[i]) + stats.ContingencyKey(v)
		}
		t.bump(oldKey, -1)
		t.bump(newKey, +1)
	}
	st.mc[a0][ch.Row] = ch.New
}

// Apply implements Incremental. A plain Apply commits any pending
// ApplyUndo: the journaled changes become permanent.
func (c *CTBIL) Apply(state State, changes []dataset.CellChange) float64 {
	st := state.(*ctbilState)
	st.undo.Disarm()
	for _, ch := range changes {
		st.patchOne(ch)
	}
	if st.l1 == nil {
		st.l1 = make([]int, len(st.tables))
	}
	for i, t := range st.tables {
		st.l1[i] = t.l1
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

// bump adjusts one masked cell count by ±1, keeping the L1 distance to the
// original table in sync.
func (t *ctbilTable) bump(key stats.ContingencyKey, delta int) {
	o := t.orig[key]
	m := t.cells[key]
	t.l1 += stats.AbsInt(m+delta-o) - stats.AbsInt(m-o)
	if m+delta == 0 {
		delete(t.cells, key)
	} else {
		t.cells[key] = m + delta
	}
}

// --- DBIL ---

type dbilState struct {
	n     int
	orig  *dataset.Dataset // read-only
	attrs []int
	pos   map[int]int
	sums  []int64         // per attr position: rank-displacement sum or mismatch count
	undo  measure.Journal // pending ApplyUndo; never shared by clones
}

// CloneState implements State.
func (s *dbilState) CloneState() State {
	sums := make([]int64, len(s.sums))
	copy(sums, s.sums)
	return &dbilState{n: s.n, orig: s.orig, attrs: s.attrs, pos: s.pos, sums: sums}
}

// Prepare implements Incremental.
func (d *DBIL) Prepare(orig, masked *dataset.Dataset, attrs []int) State {
	n := orig.Rows()
	if n == 0 || len(attrs) == 0 {
		return nil
	}
	st := &dbilState{n: n, orig: orig, attrs: attrs, pos: make(map[int]int, len(attrs)), sums: make([]int64, len(attrs))}
	for a, c := range attrs {
		st.pos[c] = a
		attr := orig.Schema().Attr(c)
		if attr.Ordered() && attr.Cardinality() > 1 {
			for r := 0; r < n; r++ {
				st.sums[a] += int64(stats.AbsInt(orig.At(r, c) - masked.At(r, c)))
			}
		} else {
			for r := 0; r < n; r++ {
				if orig.At(r, c) != masked.At(r, c) {
					st.sums[a]++
				}
			}
		}
	}
	return st
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
	n     int
	orig  *dataset.Dataset // read-only
	attrs []int
	pos   map[int]int
	joint [][][]int       // per attr position (nil when card < 2): card x card
	terms []float64       // cached ebilTerm per attr position
	dirty []bool          // Apply scratch, lazily built, never shared by clones
	undo  measure.Journal // pending ApplyUndo; never shared by clones
}

// CloneState implements State.
func (s *ebilState) CloneState() State {
	out := &ebilState{n: s.n, orig: s.orig, attrs: s.attrs, pos: s.pos}
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

// Prepare implements Incremental.
func (e *EBIL) Prepare(orig, masked *dataset.Dataset, attrs []int) State {
	n := orig.Rows()
	if n == 0 || len(attrs) == 0 {
		return nil
	}
	st := &ebilState{
		n: n, orig: orig, attrs: attrs,
		pos:   make(map[int]int, len(attrs)),
		joint: make([][][]int, len(attrs)),
		terms: make([]float64, len(attrs)),
	}
	for a, c := range attrs {
		st.pos[c] = a
		card := orig.Schema().Attr(c).Cardinality()
		if card < 2 {
			continue // mirrors Loss: constant attributes are skipped
		}
		st.joint[a] = jointCounts(orig, masked, c, card)
		st.terms[a] = ebilTerm(st.joint[a], card, n)
	}
	return st
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
