package risk

// Delta states of the disclosure-risk battery. The contract (State,
// Prepare, Apply, ApplyUndo, Undo) is declared once in internal/measure;
// every state keeps exact integer summaries, so delta values are
// bit-for-bit identical to a full recompute.
//
// Shared and owned. Each measure binds (Bind, see the measure package)
// to one original file and attribute list: its origData (idOrig,
// dbrlOrig, prlOrig, rsrlOrig) holds what depends on that pair alone and
// is built once per bound value, or once per call of an unbound Prepare,
// or of an unbound ID or RSRL Risk, all of which bind first. Only DBRL's
// and PRL's unbound Risk compute what they need as they go, grouping the
// original in pooled scratch (grouped.go), so that they allocate next to
// nothing. Every state embeds a pointer to its origData and shares it
// read-only with every other state of the bound value and every clone;
// a state owns only what describes its masked file, its scratch and its
// undo journal.
//
//   - Shared: ID's positions and contribution tables (one flat card×card
//     table per attribute); the linkage core of DBRL, PRL and RSRL
//     (linkOrig, built by bindLink in grouped.go: the compact original
//     grouping, the positions, and, for the measures that read them, the
//     projection columns and the original tuples per category); DBRL's
//     distance tables; and RSRL's original mid-ranks and group members.
//     Each bound measure holds its own copy of the core.
//   - Owned: ID's disclosed-window count; the masked side DBRL and PRL
//     keep alike (linkState: the masked projection, the patch scratch,
//     the re-link cost, the stale flags and the undo journal); and the
//     DBRL, PRL and RSRL rows, histograms, bitsets and counts below.
//
// Coverage:
//
//   - ID keeps one integer (the disclosed-window count).
//   - DBRL and PRL read the shared grouping of the original records by
//     protected tuple. Their rows are per distinct original
//     tuple, since records sharing a tuple link alike; only the
//     true-match summary is per record. Each embeds a linkState, which
//     owns the masked file's projection onto the protected attributes
//     (Dataset.Project), stored at the width those attributes' domains
//     allow: a byte per cell for every synthetic dataset, which is all a
//     clone copies of the masked file. A patch reads the edited record's
//     tuple from it once, into the state's scratch, before its per-tuple
//     loop.
//   - DBRL caches each original tuple's nearest-masked-record distance
//     and tie count, and each record's true-match distance. A cell
//     change moves one masked record, so exactly one distance per tuple
//     is replaced; only when the unique minimum is displaced upward does
//     that tuple rescan (O(n·attrs)), which is rare, so a change costs
//     ~O(D·attrs) for D distinct original tuples.
//   - PRL caches each original tuple's histogram of agreement patterns
//     against all masked records and the pattern tally, in which each
//     tuple counts once per record holding it. A cell change flips one
//     pattern bit for the tuples whose value matches the old or new
//     category; EM then reruns over the (tiny) pattern tally and records
//     are re-linked from their tuples' histograms in O(D·2^attrs + n) at
//     worst: with the patterns ordered by weight, each tuple's scan stops
//     at its strongest non-empty pattern. The value is kept until the
//     masked cells change, so an empty Apply that commits a pending
//     ApplyUndo returns it without rerunning EM.
//   - RSRL keeps the masked file's per-attribute category frequencies,
//     mid-ranks, window intervals and candidate bitsets, plus per-profile
//     candidate counts. A cell change shifts only the mid-ranks between the
//     old and new category, so the contiguous windows are re-derived by an
//     O(card) two-pointer sweep and candidate unions are patched at the
//     moved interval boundaries. Only profiles holding an affected
//     category change: past a slid window, or for a list of several
//     cells, they re-intersect; when a one-cell list only flips the moved
//     record's bit in a union, each profile's count moves by one after
//     attrs−1 bit tests (see rsrl_incremental.go).
//
// DBRL and PRL route each change list themselves. Patching costs grow
// with the list, about D_orig·attrs per cell, while a full re-link with
// the grouped kernel of their Risk costs about
// D_orig·D_masked·attrs + n·attrs, whatever the list. Each state counts
// both in per-attribute comparisons, from the list and from the tuple
// counts of its last full link, and re-links in full once patching would
// cost more. The wide route is one skeleton, linkState's, for both: a
// wide ApplyUndo writes the list into the state's masked cells only
// (editWide), scores them with the grouped kernel of full Risk (the
// bound value's link), which reads the projection's cells in place as it
// reads full Risk's files, against the shared original grouping, and
// leaves the rows or histograms stale for Undo, which then restores just
// those cells (undoWide). Every state reads its projection through the
// column positions 0 … attrs-1 (readTuple), full Risk the files through
// the protected attributes themselves. The next Apply or narrow
// ApplyUndo of a stale state (one committing a pending wide ApplyUndo,
// or a clone of one) re-links and rebuilds the rows or histograms in
// place, as Prepare does, before it patches (regroup starts each
// re-link). Apply itself picks no route: it commits an empty list or one
// its ApplyUndo has already judged narrow.
// The original file never changes, so neither route re-groups it.
// The estimate reads counts only, never a clock, so the route of every
// call is deterministic, and both routes give bit-identical values.
//
// Undo: ID and PRL rewind a measure.Journal, replaying the inverted
// change list in reverse through the same exact integer patches (their
// summaries are pure functions of the masked cells). DBRL rewinds only
// its masked cells that way and then restores, newest first, the
// before-images of the rows and true-match distances its patches
// overwrote, rescans included, so it never patches back. After a wide
// DBRL or PRL ApplyUndo only the masked cells are rewound, and the
// stale flag returns to its value before that ApplyUndo. RSRL keeps its
// own journal of word-level bitset diffs, scalar row snapshots, and the
// before-values of the counts and hit flags it re-intersected or shifted
// (see rsrl_incremental.go), so Undo runs no candidate re-intersection.
//
// Measured at bench_test.go scale (500 records, on a 2-vCPU Xeon, one
// CPU), a single-cell RSRL Apply costs ~2µs against ~55µs for a full RSRL
// Risk, which prepares a fresh state; BenchmarkRankIntervalLinkageDeltaSpeedup,
// which clocks each call, reports ~20x. It runs allocation-free. On
// 1000-record flare, german and adult files (same machine, medians of
// five runs) a single-cell DBRL ApplyUndo+Undo costs ~6–13µs, a PRL one
// ~13–18µs and an RSRL one ~3–7µs, and ApplyUndo plus the committing
// empty Apply ~8–16µs, ~12–17µs and ~5–10µs
// (BenchmarkLinkageDeltaPaperScale), against ~0.2–2.2ms and ~0.5–5.4ms
// for full DBRL and PRL Risk. The states keep reusable scratch buffers,
// so cloning the state of a survivor whose parent lives on is the only
// steady-state allocation of the delta chain: 14–21 KB for DBRL, 13–26 KB
// for PRL (~3–5µs), of which the masked cells, at a byte each, are 3 KB,
// and 10–18 KB for RSRL's bitsets and rows (~3–5µs), which it copies
// in 11 allocations whatever the domains: one backing array per family
// (stats.CloneBitsets for the bitsets).

import (
	"cmp"
	"math"
	"slices"

	"evoprot/internal/dataset"
	"evoprot/internal/measure"
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

// Reversible is a disclosure-risk Measure with the delta-state contract
// of measure.Reversible.
type Reversible interface {
	Measure
	measure.Reversible
}

// Binder is a disclosure-risk measure that binds to one original file
// and attribute list (see the measure package's Binding): Bind computes
// the measure's original-only summaries once and returns the measure
// bound to the pair, whose states and full Risk share them.
type Binder interface {
	Bind(orig *dataset.Dataset, attrs []int) Reversible
}

// Compile-time capability checks: the whole default battery is
// reversible and binds.
var (
	_ Reversible = (*IntervalDisclosure)(nil)
	_ Reversible = (*DistanceLinkage)(nil)
	_ Reversible = (*ProbabilisticLinkage)(nil)
	_ Reversible = (*RankIntervalLinkage)(nil)
	_ Binder     = (*IntervalDisclosure)(nil)
	_ Binder     = (*DistanceLinkage)(nil)
	_ Binder     = (*ProbabilisticLinkage)(nil)
	_ Binder     = (*RankIntervalLinkage)(nil)
)

// origData is one measure's original-only summaries for one bound pair,
// read-only once built: idOrig, dbrlOrig, prlOrig or rsrlOrig.
type origData interface {
	// prepare builds the state of masked, pointing at the summaries; nil
	// when the measure keeps no state for the pair.
	prepare(masked *dataset.Dataset) State
	// risk is the measure's full Risk of masked.
	risk(masked *dataset.Dataset) float64
}

// bound is a measure bound to one pair: Prepare and Risk check the pair
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

// Risk implements Measure for the bound pair.
func (b *bound) Risk(orig, masked *dataset.Dataset, attrs []int) float64 {
	b.Check(orig, attrs)
	return b.o.risk(masked)
}

// --- ID (interval disclosure) ---

// idOrig is ID bound to one original file and attribute list: the
// per-attribute contribution tables and positions, shared read-only by
// every state and read by full Risk.
type idOrig struct {
	n, maxP int
	orig    *dataset.Dataset
	attrs   []int
	pos     map[int]int
	contrib []pairTable // per attr position (idContrib)
}

type idState struct {
	*idOrig   // shared
	disclosed int64
	undo      measure.Journal // pending ApplyUndo; never shared by clones
}

// CloneState implements State.
func (s *idState) CloneState() State {
	return &idState{idOrig: s.idOrig, disclosed: s.disclosed}
}

// Bind implements Binder.
func (id *IntervalDisclosure) Bind(orig *dataset.Dataset, attrs []int) Reversible {
	b := measure.NewBinding(orig, attrs)
	return &bound{Reversible: id, Binding: b, o: id.bind(orig, b.Attrs())}
}

// bind builds the contribution tables of every attribute.
func (id *IntervalDisclosure) bind(orig *dataset.Dataset, attrs []int) *idOrig {
	o := &idOrig{n: orig.Rows(), maxP: id.maxPOrDefault(), orig: orig, attrs: attrs}
	if o.n == 0 || len(attrs) == 0 {
		return o
	}
	o.pos = measure.Positions(attrs)
	o.contrib = make([]pairTable, len(attrs))
	for a, c := range attrs {
		o.contrib[a] = idContrib(orig, c, o.maxP)
	}
	return o
}

// count counts masked's disclosing windows over every attribute and
// record, reading the cells of both files in place.
func (o *idOrig) count(masked *dataset.Dataset) int64 {
	var disclosed int64
	orig := o.orig
	for a, c := range o.attrs {
		t := o.contrib[a]
		for r := range o.n {
			disclosed += t.at(orig.At(r, c), masked.At(r, c))
		}
	}
	return disclosed
}

func (o *idOrig) risk(masked *dataset.Dataset) float64 {
	if o.contrib == nil {
		return 0
	}
	return idValue(o.count(masked), o.n, len(o.attrs), o.maxP)
}

func (o *idOrig) prepare(masked *dataset.Dataset) State {
	if o.contrib == nil {
		return nil
	}
	return &idState{idOrig: o, disclosed: o.count(masked)}
}

// Prepare implements Incremental: it binds, then prepares.
func (id *IntervalDisclosure) Prepare(orig, masked *dataset.Dataset, attrs []int) State {
	return id.bind(orig, attrs).prepare(masked)
}

// patchOne adjusts the disclosed count by one cell change; self-inverse
// under CellChange.Inverted (integer arithmetic only).
func (s *idState) patchOne(ch dataset.CellChange) {
	t := s.contrib[s.pos[ch.Col]]
	u := s.orig.At(ch.Row, ch.Col)
	s.disclosed += t.at(u, ch.New) - t.at(u, ch.Old)
}

// Apply implements Incremental. A plain Apply commits any pending
// ApplyUndo.
func (id *IntervalDisclosure) Apply(state State, changes []dataset.CellChange) float64 {
	st := state.(*idState)
	st.undo.Disarm()
	for _, ch := range changes {
		st.patchOne(ch)
	}
	return idValue(st.disclosed, st.n, len(st.attrs), st.maxP)
}

// ApplyUndo implements Reversible.
func (id *IntervalDisclosure) ApplyUndo(state State, changes []dataset.CellChange) float64 {
	v := id.Apply(state, changes)
	state.(*idState).undo.Arm(changes)
	return v
}

// Undo implements Reversible.
func (id *IntervalDisclosure) Undo(state State) {
	st := state.(*idState)
	st.undo.Rewind(st.patchOne)
}

// --- DBRL and PRL: the masked side ---

// linkState is the masked side a DBRL and a PRL state keep alike: the
// masked file's projection, the patch scratch, the wide-route
// bookkeeping and the undo journal. dbrlState and prlState embed it.
type linkState struct {
	// mc is the masked file projected onto the protected attributes
	// (Dataset.Project), owned.
	mc *dataset.Dataset
	// tuple is the patches' scratch: the edited masked record's tuple,
	// never shared by clones.
	tuple []int
	// relinkCost is the estimated cost of a full grouped re-link, from
	// the tuple counts of the last one (regroup).
	relinkCost int
	// stale marks rows that lag mc: a wide ApplyUndo wrote its edits into
	// mc only (editWide). The next Apply or narrow ApplyUndo re-links
	// first; Undo puts back wasStale, the flag's value before the wide
	// ApplyUndo (a clone of a pending wide edit starts stale).
	stale, wasStale bool
	// undo holds the pending ApplyUndo's change list; never shared by
	// clones.
	undo measure.Journal
}

// newLinkState projects masked onto the protected columns attrs.
func newLinkState(masked *dataset.Dataset, attrs []int) linkState {
	return linkState{mc: masked.Project(attrs), tuple: make([]int, len(attrs))}
}

// clone copies the masked cells and the route bookkeeping, with fresh
// scratch and an empty journal.
func (ls *linkState) clone() linkState {
	return linkState{mc: ls.mc.Clone(), tuple: make([]int, len(ls.tuple)), relinkCost: ls.relinkCost, stale: ls.stale}
}

// regroup starts a full re-link against the core o: it groups the masked
// cells into pooled scratch, which the caller puts back once it has
// rebuilt its rows from it, marks the rows fresh, and records the cost
// of the pass: D_orig·D_masked·attrs to compare the distinct tuple pairs
// plus n·attrs to group the masked records and read back each record's
// summary.
func (ls *linkState) regroup(o *linkOrig) *linkGroups {
	lg := linkGroupsPool.Get().(*linkGroups)
	lg.masked.group(ls.mc, o.cols)
	ls.relinkCost = (len(o.orig.mult)*len(lg.masked.mult) + o.n) * len(o.cols)
	ls.stale = false
	return lg
}

// editWide is the wide route of ApplyUndo up to its scoring: it writes
// changes, in order, into the masked cells alone, where pos maps a
// dataset column to its column in mc, and arms the journal, leaving the
// rows stale, still describing the unedited file.
func (ls *linkState) editWide(pos map[int]int, changes []dataset.CellChange) {
	for _, ch := range changes {
		ls.mc.Set(ch.Row, pos[ch.Col], ch.New)
	}
	ls.undo.Arm(changes)
	ls.wasStale, ls.stale = ls.stale, true
}

// rewindCells rewinds the pending ApplyUndo's change list through the
// masked cells alone, newest first, and reports whether one was pending.
func (ls *linkState) rewindCells(pos map[int]int) bool {
	return ls.undo.Rewind(func(ch dataset.CellChange) { ls.mc.Set(ch.Row, pos[ch.Col], ch.New) })
}

// undoWide is Undo of a stale state, whose pending ApplyUndo, if any, was
// wide and moved the masked cells alone: it rewinds them and puts back
// the stale flag. It reports whether the state was stale; a fresh state
// rewinds its narrow ApplyUndo itself.
func (ls *linkState) undoWide(pos map[int]int) bool {
	if !ls.stale {
		return false
	}
	if ls.rewindCells(pos) {
		ls.stale = ls.wasStale
	}
	return true
}

// --- DBRL (distance-based record linkage) ---

// dbrlOrig is DBRL bound to one original file and attribute list: the
// linkage core and the distance tables, shared read-only by every state.
type dbrlOrig struct {
	linkOrig
	tables []pairTable
}

type dbrlState struct {
	*dbrlOrig // shared
	linkState // owned
	// Per original tuple: distance to its nearest masked record and how
	// many masked records tie at that distance.
	best  []int64
	count []int64
	// Per original record: the distance to its true masked counterpart.
	trueDist []int64
	// rowLog and distLog hold the before-images of the rows and
	// true-match distances the pending ApplyUndo's patches overwrote,
	// oldest first; never shared by clones.
	rowLog  []dbrlRow
	distLog []dbrlDist
}

// dbrlRow is the before-image of original tuple g's row.
type dbrlRow struct {
	g           int32
	best, count int64
}

// dbrlDist is the before-image of original record j's true-match
// distance.
type dbrlDist struct {
	j int32
	d int64
}

// CloneState implements State.
func (s *dbrlState) CloneState() State {
	return &dbrlState{
		dbrlOrig:  s.dbrlOrig,
		linkState: s.clone(),
		best:      slices.Clone(s.best),
		count:     slices.Clone(s.count),
		trueDist:  slices.Clone(s.trueDist),
	}
}

// Bind implements Binder.
func (dl *DistanceLinkage) Bind(orig *dataset.Dataset, attrs []int) Reversible {
	b := measure.NewBinding(orig, attrs)
	return &bound{Reversible: dl, Binding: b, o: dl.bind(orig, b.Attrs())}
}

// bind builds the linkage core, with the projection columns, and the
// distance tables.
func (dl *DistanceLinkage) bind(orig *dataset.Dataset, attrs []int) *dbrlOrig {
	o := &dbrlOrig{linkOrig: bindLink(orig, attrs, true, false)}
	if o.orig != nil {
		o.tables = distanceTables(orig, attrs)
	}
	return o
}

// link is DBRL of masked, read at its columns cols, against the bound
// grouping and tables: full Risk passes the file at the protected
// attributes, a wide ApplyUndo the state's projection.
func (o *dbrlOrig) link(masked *dataset.Dataset, cols []int) float64 {
	lg := linkGroupsPool.Get().(*linkGroups)
	defer linkGroupsPool.Put(lg)
	return dbrlGrouped(lg, o.orig, masked, cols, o.tables)
}

func (o *dbrlOrig) risk(masked *dataset.Dataset) float64 {
	if o.orig == nil {
		return 0
	}
	return o.link(masked, o.attrs)
}

// prepare builds the rows from one grouped pass (grouped.go).
func (o *dbrlOrig) prepare(masked *dataset.Dataset) State {
	if o.orig == nil {
		return nil
	}
	st := &dbrlState{
		dbrlOrig:  o,
		linkState: newLinkState(masked, o.attrs),
		best:      make([]int64, len(o.orig.mult)),
		count:     make([]int64, len(o.orig.mult)),
		trueDist:  make([]int64, o.n),
	}
	st.relink()
	return st
}

// Prepare implements Incremental: it binds, then prepares.
func (dl *DistanceLinkage) Prepare(orig, masked *dataset.Dataset, attrs []int) State {
	return dl.bind(orig, attrs).prepare(masked)
}

// relink rebuilds every tuple's row and every record's true-match
// distance from the masked cells in one grouped pass.
func (st *dbrlState) relink() {
	lg := st.regroup(&st.linkOrig)
	defer linkGroupsPool.Put(lg)
	lg.nearest(st.orig, st.tables)
	copy(st.best, lg.best)
	copy(st.count, lg.count)
	for i, g := range st.orig.of {
		readTuple(st.tuple, st.mc, st.cols, i)
		st.trueDist[i] = st.orig.distance(int(g), st.tuple, st.tables)
	}
}

// wide reports whether patching changes would cost more than a full
// grouped re-link. Both are counted in per-attribute table reads: a
// change re-sums the distance of every original tuple to the edited
// masked record. The factor 2 is an uncalibrated margin towards the
// re-link.
func (st *dbrlState) wide(changes []dataset.CellChange) bool {
	return 2*len(changes)*len(st.orig.mult)*len(st.cols) > st.relinkCost
}

// rescan returns tuple g's nearest distance and tie count, recomputed
// from scratch against the current masked cells.
func (s *dbrlState) rescan(g int) (best, count int64) {
	best = int64(1) << 62
	tables, cols := s.tables, s.orig.cols
	for j := 0; j < s.n; j++ {
		var d int64
		for a, t := range tables {
			d += t.at(cols[a][g], s.mc.At(j, a))
		}
		switch {
		case d < best:
			best, count = d, 1
		case d == best:
			count++
		}
	}
	return best, count
}

// patchOne advances the per-tuple rows and the true-match distances by
// one cell change. The rows are pure functions of the masked cells
// (minimum and multiplicity of each tuple's distance multiset, and each
// record's true-match distance). Every row and distance the patch
// overwrites is logged first, so Undo can restore it without patching
// back.
func (st *dbrlState) patchOne(ch dataset.CellChange) {
	a0 := st.pos[ch.Col]
	j0 := ch.Row
	tables, o := st.tables, st.orig
	t := tables[a0]
	st.mc.Set(j0, a0, ch.New)
	tuple := st.tuple
	readTuple(tuple, st.mc, st.cols, j0)
	for g, u := range o.cols[a0] {
		dOldA, dNewA := t.at(u, ch.Old), t.at(u, ch.New)
		if dOldA == dNewA {
			continue // the replaced distance is unchanged
		}
		var base int64
		for a, ta := range tables {
			if a != a0 {
				base += ta.at(o.cols[a][g], tuple[a])
			}
		}
		dOld, dNew := base+dOldA, base+dNewA
		// Replace one element of tuple g's distance multiset.
		best, count := st.best[g], st.count[g]
		switch {
		case dOld > best:
			if dNew < best {
				best, count = dNew, 1
			} else if dNew == best {
				count++
			}
		default: // dOld == best; dOld < best is impossible
			if count > 1 {
				count--
				if dNew < best {
					best, count = dNew, 1
				} else if dNew == best {
					count++
				}
			} else if dNew <= dOld {
				best = dNew // still the unique minimum
			} else {
				best, count = st.rescan(g) // the unique minimum moved away
			}
		}
		if best == st.best[g] && count == st.count[g] {
			continue
		}
		st.rowLog = append(st.rowLog, dbrlRow{int32(g), st.best[g], st.count[g]})
		st.best[g], st.count[g] = best, count
	}
	if d := o.distance(int(o.of[j0]), tuple, st.tables); d != st.trueDist[j0] {
		st.distLog = append(st.distLog, dbrlDist{int32(j0), st.trueDist[j0]})
		st.trueDist[j0] = d
	}
}

// value assembles the linkage percentage from the maintained rows with
// the same arithmetic and record order as the full Risk.
func (st *dbrlState) value() float64 {
	credit := 0.0
	for i, g := range st.orig.of {
		if st.trueDist[i] == st.best[g] {
			credit += 1 / float64(st.count[g])
		}
	}
	return 100 * credit / float64(st.n)
}

// Apply implements Incremental. A plain Apply commits any pending
// ApplyUndo and patches the rows by every change. Stale rows re-link
// before any patch, so an empty Apply on a pending wide ApplyUndo
// re-links once and the logs hold exactly the before-images of these
// changes' patches.
func (dl *DistanceLinkage) Apply(state State, changes []dataset.CellChange) float64 {
	st := state.(*dbrlState)
	st.undo.Disarm()
	st.rowLog, st.distLog = st.rowLog[:0], st.distLog[:0]
	if st.stale {
		st.relink()
	}
	for _, ch := range changes {
		st.patchOne(ch)
	}
	return st.value()
}

// ApplyUndo implements Reversible. A narrow change list is patched with
// its before-images journalled. A wide one is written into the masked
// cells alone (editWide) and scored by the grouped kernel of full Risk
// against the shared original grouping, leaving the rows to describe the
// unedited file.
func (dl *DistanceLinkage) ApplyUndo(state State, changes []dataset.CellChange) float64 {
	st := state.(*dbrlState)
	if !st.wide(changes) {
		v := dl.Apply(state, changes)
		st.undo.Arm(changes)
		return v
	}
	st.editWide(st.pos, changes)
	return st.link(st.mc, st.cols)
}

// Undo implements Reversible: the masked cells are rewound, then the
// journalled rows and distances restored, newest first. After a wide
// ApplyUndo (the only route that leaves the rows stale) only the masked
// cells moved.
func (dl *DistanceLinkage) Undo(state State) {
	st := state.(*dbrlState)
	if st.undoWide(st.pos) || !st.rewindCells(st.pos) {
		return
	}
	for k := len(st.rowLog) - 1; k >= 0; k-- {
		r := st.rowLog[k]
		st.best[r.g], st.count[r.g] = r.best, r.count
	}
	for k := len(st.distLog) - 1; k >= 0; k-- {
		d := st.distLog[k]
		st.trueDist[d.j] = d.d
	}
}

// --- PRL (probabilistic record linkage) ---

// prlOrig is PRL bound to one original file and attribute list: the
// linkage core, with the projection columns and, when the pair gets a
// state, the tuples per category, shared read-only by every state.
type prlOrig struct {
	linkOrig
	iters int
}

type prlState struct {
	*prlOrig  // shared
	linkState // owned
	// cnt[g*numPat+pat] counts masked records j with pattern(g,j) == pat
	// for original tuple g; patCount aggregates cnt over all records,
	// weighting each tuple by its multiplicity (exact integers in
	// float64).
	cnt      []int32
	patCount []float64
	truePat  []int32 // per original record i: pattern(i, i)
	// val is the linkage value of mc while valOK: the last Apply or
	// ApplyUndo computed it, and no edit of mc has happened since. A
	// re-link leaves it valid, as it rebuilds the tallies of the same
	// columns, so an empty Apply committing a pending ApplyUndo returns
	// it without rerunning EM.
	val   float64
	valOK bool
	// Reusable EM, weight and per-tuple link scratch of value and of
	// wide ApplyUndo, lazily sized and never shared: CloneState leaves it
	// empty, so steady-state Apply calls allocate nothing.
	em    emScratch
	order []int32   // patterns by descending weight (strongestLinks)
	bestW []float64 // per original tuple: highest weight of a masked record
	ties  []int32   // per original tuple: masked records attaining bestW
}

// CloneState implements State.
func (s *prlState) CloneState() State {
	return &prlState{
		prlOrig:   s.prlOrig,
		linkState: s.clone(),
		cnt:       slices.Clone(s.cnt),
		patCount:  slices.Clone(s.patCount),
		truePat:   slices.Clone(s.truePat),
		val:       s.val, valOK: s.valOK,
	}
}

// Bind implements Binder.
func (pl *ProbabilisticLinkage) Bind(orig *dataset.Dataset, attrs []int) Reversible {
	b := measure.NewBinding(orig, attrs)
	return &bound{Reversible: pl, Binding: b, o: pl.bind(orig, b.Attrs())}
}

// bind builds the linkage core with the projection columns and, when the
// pair gets a state, each category's tuples.
func (pl *ProbabilisticLinkage) bind(orig *dataset.Dataset, attrs []int) *prlOrig {
	o := &prlOrig{iters: pl.EMIters}
	if o.iters <= 0 {
		o.iters = 30
	}
	// Every value call runs EM over the 2^attrs patterns and scans the
	// D×2^attrs tuple histograms, which also set the cost of a clone and
	// a re-link, while a full recompute costs O(n·attrs) grouping plus
	// O(D_orig·D_masked·attrs) for D distinct tuples. Once the pattern
	// space outgrows the record count the full recompute is the cheaper
	// path, and the pair gets no state. The guard counts records, not
	// tuples, so whether an evaluator holds a PRL state depends on the
	// file's size and attributes only.
	state := len(attrs) <= MaxPRLAttrs && 1<<len(attrs) <= orig.Rows()
	o.linkOrig = bindLink(orig, attrs, true, state)
	return o
}

// link is PRL of masked, read at its columns cols, against the bound
// grouping, with the EM scratch em, or the pooled one when em is nil:
// full Risk passes the file at the protected attributes, a wide
// ApplyUndo the state's projection and its own scratch, which the
// state's value calls keep sized, so the wide route allocates nothing.
func (o *prlOrig) link(masked *dataset.Dataset, cols []int, em *emScratch) float64 {
	lg := linkGroupsPool.Get().(*linkGroups)
	defer linkGroupsPool.Put(lg)
	if em == nil {
		em = &lg.em
	}
	return prlGrouped(lg, em, o.orig, masked, cols, o.iters)
}

func (o *prlOrig) risk(masked *dataset.Dataset) float64 {
	if o.orig == nil {
		return 0
	}
	if len(o.attrs) > MaxPRLAttrs {
		panic(errPRLAttrs)
	}
	return o.link(masked, o.attrs, nil)
}

// prepare builds the histograms from one grouped pass (grouped.go).
func (o *prlOrig) prepare(masked *dataset.Dataset) State {
	if o.catTuples == nil {
		return nil
	}
	numPat := 1 << len(o.attrs)
	st := &prlState{
		prlOrig:   o,
		linkState: newLinkState(masked, o.attrs),
		cnt:       make([]int32, len(o.orig.mult)*numPat),
		patCount:  make([]float64, numPat),
		truePat:   make([]int32, o.n),
	}
	st.relink()
	return st
}

// Prepare implements Incremental: it binds, then prepares.
func (pl *ProbabilisticLinkage) Prepare(orig, masked *dataset.Dataset, attrs []int) State {
	return pl.bind(orig, attrs).prepare(masked)
}

// relink rebuilds every tuple's pattern histogram, the true-match
// patterns and the pattern tally from the masked cells in one grouped
// pass.
func (st *prlState) relink() {
	numPat := 1 << len(st.cols)
	o := st.orig
	lg := st.regroup(&st.linkOrig)
	defer linkGroupsPool.Put(lg)
	clear(st.cnt)
	clear(st.patCount)
	for g, mult := range o.mult {
		row := st.cnt[g*numPat : (g+1)*numPat]
		lg.histogram(o, g, row)
		for pat, c := range row {
			st.patCount[pat] += float64(int64(c) * mult)
		}
	}
	for i, g := range o.of {
		readTuple(st.tuple, st.mc, st.cols, i)
		st.truePat[i] = int32(o.pattern(int(g), st.tuple))
	}
}

// wide reports whether patching changes in and out again would cost more
// than a full grouped re-link, counted in per-attribute comparisons as
// for DBRL: a change re-derives the pattern of every original tuple
// holding its old or new category, twice.
func (st *prlState) wide(changes []dataset.CellChange) bool {
	cost := 0
	for _, ch := range changes {
		byCat := st.catTuples[st.pos[ch.Col]]
		cost += 2 * (len(byCat[ch.Old]) + len(byCat[ch.New])) * len(st.cols)
		if cost > st.relinkCost {
			return true
		}
	}
	return false
}

// patchOne advances the pattern histograms by one cell change. All
// tallies are exact integers and pure functions of the masked cells,
// so replaying inverted changes in reverse restores them exactly.
func (st *prlState) patchOne(ch dataset.CellChange) {
	numPat := 1 << len(st.cols)
	a0 := st.pos[ch.Col]
	j0 := ch.Row
	o := st.orig
	tuple := st.tuple
	readTuple(tuple, st.mc, st.cols, j0)
	tuple[a0] = ch.Old
	// Only original tuples agreeing with the old or new category see
	// their pattern against masked record j0 flip bit a0.
	for _, cat := range [2]int{ch.Old, ch.New} {
		for _, g := range st.catTuples[a0][cat] {
			patOld := o.pattern(int(g), tuple)
			patNew := patOld &^ (1 << a0)
			if o.cols[a0][g] == ch.New {
				patNew |= 1 << a0
			}
			row := st.cnt[int(g)*numPat : (int(g)+1)*numPat]
			row[patOld]--
			row[patNew]++
			mult := float64(o.mult[g])
			st.patCount[patOld] -= mult
			st.patCount[patNew] += mult
		}
	}
	st.mc.Set(j0, a0, ch.New)
	tuple[a0] = ch.New
	st.valOK = false
	// The true-match pattern of record j0 itself.
	st.truePat[j0] = int32(o.pattern(int(o.of[j0]), tuple))
}

// value returns the linkage value of mc: the cached one while valid,
// otherwise a re-estimate and re-link from the pattern tallies —
// identical inputs and arithmetic to the full Risk, so identical m/u
// estimates, weights and credit. Each tuple's strongest weight and tie
// count are found once; credit is then summed in record order.
func (st *prlState) value() float64 {
	if st.valOK {
		return st.val
	}
	numPat := 1 << len(st.cols)
	st.em.size(len(st.cols))
	weights := st.em.matchWeights(st.patCount, float64(st.n)*float64(st.n), float64(st.n), st.iters)
	numOrig := len(st.orig.mult)
	st.bestW = resize(st.bestW, numOrig)
	st.ties = resize(st.ties, numOrig)
	st.order = strongestLinks(weights, st.cnt, st.order, st.bestW, st.ties)
	credit := 0.0
	for i, g := range st.orig.of {
		tp := st.truePat[i]
		if weights[tp] == st.bestW[g] && st.cnt[int(g)*numPat+int(tp)] > 0 {
			credit += 1 / float64(st.ties[g])
		}
	}
	st.val, st.valOK = 100*credit/float64(st.n), true
	return st.val
}

// strongestLinks sets bestW[g] to the highest weight among the patterns
// that tuple g's histogram row of cnt counts, and ties[g] to how many
// masked records attain it: -Inf and 0 when the row counts only NaN
// patterns, which never win, as in the full scan of every pattern.
// Patterns are ordered by descending weight once, stably and without NaN
// weights, so each row's scan stops at its first non-zero count and takes
// the equal weights that follow it along; a maximum and a tie count do
// not depend on scan order. order is reusable scratch, returned grown.
func strongestLinks(weights []float64, cnt []int32, order []int32, bestW []float64, ties []int32) []int32 {
	order = order[:0]
	for pat, w := range weights {
		if !math.IsNaN(w) {
			order = append(order, int32(pat))
		}
	}
	slices.SortStableFunc(order, func(p, q int32) int { return cmp.Compare(weights[q], weights[p]) })
	numPat := len(weights)
	for g := range bestW {
		row := cnt[g*numPat : (g+1)*numPat]
		best, count := math.Inf(-1), int32(0)
		for k, pat := range order {
			if row[pat] == 0 {
				continue
			}
			best, count = weights[pat], row[pat]
			for _, tie := range order[k+1:] {
				if weights[tie] != best {
					break
				}
				count += row[tie]
			}
			break
		}
		bestW[g], ties[g] = best, count
	}
	return order
}

// Apply implements Incremental. A plain Apply commits any pending
// ApplyUndo and patches the histograms by every change. Stale histograms
// (a pending wide ApplyUndo, or a clone of one) re-link first, so an
// empty Apply committing a pending ApplyUndo re-links once and returns
// its cached value.
func (pl *ProbabilisticLinkage) Apply(state State, changes []dataset.CellChange) float64 {
	st := state.(*prlState)
	st.undo.Disarm()
	if st.stale {
		st.relink()
	}
	for _, ch := range changes {
		st.patchOne(ch)
	}
	return st.value()
}

// ApplyUndo implements Reversible. A wide change list is written into the
// masked cells alone (editWide) and scored by the grouped kernel of full
// Risk against the shared original grouping, leaving the histograms to
// describe the unedited file.
func (pl *ProbabilisticLinkage) ApplyUndo(state State, changes []dataset.CellChange) float64 {
	st := state.(*prlState)
	if !st.wide(changes) {
		v := pl.Apply(state, changes)
		st.undo.Arm(changes)
		return v
	}
	st.editWide(st.pos, changes)
	st.val, st.valOK = st.link(st.mc, st.cols, &st.em), true
	return st.val
}

// Undo implements Reversible. The EM re-estimation and re-link are pure
// reads of the tallies, so undo only reverses the integer patches — or,
// on a stale state, only the masked cells, after which the cached value
// is dropped.
func (pl *ProbabilisticLinkage) Undo(state State) {
	st := state.(*prlState)
	if st.undoWide(st.pos) {
		st.valOK = false
		return
	}
	st.undo.Rewind(st.patchOne)
}
