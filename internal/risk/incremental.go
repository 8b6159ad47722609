package risk

// Incremental (delta) evaluation for the disclosure-risk battery. See the
// twin file internal/infoloss/incremental.go for the overall contract:
// Prepare builds a per-masked-file State, Apply advances it by a cell
// change list and returns the measure's value, ApplyUndo/Undo do the same
// with rollback, and every state keeps
// exact integer summaries so delta values are bit-for-bit identical to a
// full recompute.
//
// Coverage:
//
//   - ID keeps one integer (the disclosed-window count) and per-attribute
//     contribution tables that depend only on the original file.
//   - DBRL caches each original record's nearest-masked-record distance,
//     tie count and true-match distance, computed at Prepare once per
//     distinct tuple (grouped.go). A cell change moves one masked
//     record, so exactly one distance per original record is replaced;
//     only when the unique minimum is displaced upward does one row
//     rescan (O(n)) occur — rare in practice, so a change costs
//     ~O(n·attrs).
//   - PRL caches each original record's histogram of agreement patterns
//     against all masked records, built at Prepare once per distinct
//     tuple and copied to the records sharing it. A cell change flips one
//     pattern bit for the original records whose value matches the old or
//     new category; EM then reruns over the (tiny) pattern tally and
//     records are re-linked from their histograms in O(n·2^attrs).
//   - RSRL keeps the masked file's per-attribute category frequencies,
//     mid-ranks, window intervals and candidate bitsets, plus per-profile
//     candidate counts. A cell change shifts only the mid-ranks between the
//     old and new category, so the contiguous windows are re-derived by an
//     O(card) two-pointer sweep, candidate unions are patched at the moved
//     interval boundaries, and only profiles holding an affected category
//     re-intersect (see rsrl_incremental.go).
//
// DBRL and PRL route each change list themselves. Patching costs grow
// with the list, while a full re-link with the grouped kernel of their
// Risk costs about D_orig·D_masked·attrs + n·attrs for D distinct
// tuples, whatever the list. Each state counts both in per-attribute
// comparisons, from the list and from the tuple counts of its last full
// link, and re-links in full once patching would cost more: a wide
// ApplyUndo writes the list into the state's masked columns only, scores
// them with the kernel and leaves the rows or histograms untouched for
// Undo, which then restores just those columns; a wide Apply (a commit)
// re-links and rebuilds the rows or histograms in place, as Prepare does.
// The estimate reads counts only, never a clock, so the route of every
// call is deterministic, and both routes give bit-identical values.
//
// All four measures are also Reversible: ApplyUndo journals enough to
// roll a change list back exactly, so generation-batch evaluation
// (score.Evaluator.EvaluateBatch) can score every offspring of a
// generation against one shared parent state instead of cloning it per
// offspring. ID, DBRL and PRL undo by replaying the inverted change list
// in reverse through the same exact integer patches (their summaries are
// pure functions of the masked columns), or after a wide DBRL or PRL
// ApplyUndo by restoring the masked columns alone; RSRL undoes through
// word-level bitset-diff journaling plus scalar row snapshots (see
// rsrl_incremental.go), skipping the candidate re-intersections entirely.
//
// Measured at bench_test.go scale (500 records, on a 2-vCPU Xeon), a
// single-cell RSRL Apply costs ~4.5µs against ~61µs for a full RSRL Risk,
// which prepares a fresh state (~9x, BenchmarkRankIntervalLinkageDeltaSpeedup),
// and runs allocation-free — the states keep reusable scratch buffers, so
// cloning the state of a survivor whose parent lives on is the only
// steady-state allocation of the delta chain.

import (
	"math"

	"evoprot/internal/dataset"
)

// State is an opaque per-masked-dataset summary maintained by a
// Reversible measure. States are single-goroutine values; use CloneState
// to branch one.
type State interface {
	// CloneState returns an independent deep copy.
	CloneState() State
}

// Incremental is the Prepare/Apply half of Reversible: rescoring a masked
// dataset in time roughly proportional to the number of changed cells
// rather than quadratic in the dataset size. Evaluators build states only
// for Reversible measures; a measure implementing Incremental alone is
// recomputed in full.
type Incremental interface {
	Measure
	// Prepare builds the incremental state for masked against orig over
	// the protected attrs. A nil state means the measure cannot run
	// incrementally under its current configuration; callers must fall
	// back to Risk.
	Prepare(orig, masked *dataset.Dataset, attrs []int) State
	// Apply advances state by the given cell changes — which must describe
	// edits to the state's masked file, applied in order — and returns the
	// measure's value for the edited file. An empty change list returns
	// the current value. Apply must not retain changes: callers reuse the
	// backing array across calls.
	Apply(state State, changes []dataset.CellChange) float64
}

// Reversible is the measure-state contract of delta evaluation: states
// that advance by a change list and then roll back exactly — the
// primitive behind generation-batch evaluation. See the twin interface
// in internal/infoloss for the full contract.
type Reversible interface {
	Incremental
	// ApplyUndo is Apply with rollback armed: it advances state by
	// changes, returns the measure's value for the edited file, and
	// journals enough to restore the state exactly. At most one
	// ApplyUndo may be pending per state; Undo (or a plain Apply,
	// which commits the pending changes) must intervene before the next.
	ApplyUndo(state State, changes []dataset.CellChange) float64
	// Undo rolls back the pending ApplyUndo, restoring the state bit
	// for bit. With no pending ApplyUndo it is a no-op.
	Undo(state State)
}

// Compile-time capability checks: the whole default battery is
// incremental and reversible.
var (
	_ Reversible = (*IntervalDisclosure)(nil)
	_ Reversible = (*DistanceLinkage)(nil)
	_ Reversible = (*ProbabilisticLinkage)(nil)
	_ Reversible = (*RankIntervalLinkage)(nil)
)

// undoLog is the inverse-replay journal of the ID/DBRL/PRL states: a
// copy of the pending change list, replayed inverted and in reverse by
// Undo. The buffer is owned by the state and reused across generations.
type undoLog struct {
	changes []dataset.CellChange
	active  bool
}

// arm records the pending change list. Apply without undo disarms.
func (u *undoLog) arm(changes []dataset.CellChange) {
	u.changes = append(u.changes[:0], changes...)
	u.active = true
}

// setCells writes changes, in order, into the protected columns mc, where
// pos maps a dataset column to its position in mc.
func setCells(mc [][]int, pos map[int]int, changes []dataset.CellChange) {
	for _, ch := range changes {
		mc[pos[ch.Col]][ch.Row] = ch.New
	}
}

// restoreCells writes the pending changes' old values back into mc, last
// change first: the whole rollback of a wide ApplyUndo, which touches
// nothing else.
func (u *undoLog) restoreCells(mc [][]int, pos map[int]int) {
	for k := len(u.changes) - 1; k >= 0; k-- {
		ch := u.changes[k]
		mc[pos[ch.Col]][ch.Row] = ch.Old
	}
}

// --- ID (interval disclosure) ---

type idState struct {
	n         int
	orig      *dataset.Dataset // read-only
	numAttrs  int
	maxP      int
	pos       map[int]int
	contrib   [][][]int // per attr position: card x card, shared (orig-only)
	disclosed int
	undo      undoLog // pending ApplyUndo journal; never shared by clones
}

// CloneState implements State.
func (s *idState) CloneState() State {
	out := *s
	out.undo = undoLog{}
	return &out
}

// Prepare implements Incremental.
func (id *IntervalDisclosure) Prepare(orig, masked *dataset.Dataset, attrs []int) State {
	n := orig.Rows()
	if n == 0 || len(attrs) == 0 {
		return nil
	}
	maxP := id.maxPOrDefault()
	st := &idState{
		n: n, orig: orig, numAttrs: len(attrs), maxP: maxP,
		pos:     make(map[int]int, len(attrs)),
		contrib: make([][][]int, len(attrs)),
	}
	for a, c := range attrs {
		st.pos[c] = a
		st.contrib[a] = idContrib(orig, c, maxP)
		oc := orig.Column(c)
		mc := masked.Column(c)
		for r := 0; r < n; r++ {
			st.disclosed += st.contrib[a][oc[r]][mc[r]]
		}
	}
	return st
}

// patchOne adjusts the disclosed count by one cell change; self-inverse
// under CellChange.Inverted (integer arithmetic only).
func (s *idState) patchOne(ch dataset.CellChange) {
	a := s.pos[ch.Col]
	u := s.orig.At(ch.Row, ch.Col)
	s.disclosed += s.contrib[a][u][ch.New] - s.contrib[a][u][ch.Old]
}

// Apply implements Incremental. A plain Apply commits any pending
// ApplyUndo.
func (id *IntervalDisclosure) Apply(state State, changes []dataset.CellChange) float64 {
	st := state.(*idState)
	st.undo.active = false
	for _, ch := range changes {
		st.patchOne(ch)
	}
	return idValue(st.disclosed, st.n, st.numAttrs, st.maxP)
}

// ApplyUndo implements Reversible.
func (id *IntervalDisclosure) ApplyUndo(state State, changes []dataset.CellChange) float64 {
	v := id.Apply(state, changes)
	state.(*idState).undo.arm(changes)
	return v
}

// Undo implements Reversible.
func (id *IntervalDisclosure) Undo(state State) {
	st := state.(*idState)
	if !st.undo.active {
		return
	}
	st.undo.active = false
	for k := len(st.undo.changes) - 1; k >= 0; k-- {
		st.patchOne(st.undo.changes[k].Inverted())
	}
}

// --- DBRL (distance-based record linkage) ---

type dbrlState struct {
	n      int
	attrs  []int
	pos    map[int]int
	oc     [][]int     // original protected columns, shared read-only
	mc     [][]int     // masked protected columns, owned
	tables []distTable // shared (schema-only)
	// Per original record: distance to its nearest masked record, how
	// many masked records tie at that distance, and the distance to its
	// true masked counterpart.
	best     []int64
	count    []int32
	trueDist []int64
	// relinkCost is the estimated cost of a full grouped re-link, from
	// the tuple counts of the last one (linkGroups.relinkCost).
	relinkCost int
	// stale marks rows that lag mc: a wide ApplyUndo wrote its edits into
	// mc only. Undo clears it; in a clone, the next Apply re-links.
	stale bool
	undo  undoLog // pending ApplyUndo journal; never shared by clones
}

// CloneState implements State.
func (s *dbrlState) CloneState() State {
	out := &dbrlState{
		n: s.n, attrs: s.attrs, pos: s.pos, oc: s.oc, tables: s.tables,
		relinkCost: s.relinkCost, stale: s.stale,
	}
	out.mc = make([][]int, len(s.mc))
	for a, col := range s.mc {
		own := make([]int, len(col))
		copy(own, col)
		out.mc[a] = own
	}
	out.best = append([]int64(nil), s.best...)
	out.count = append([]int32(nil), s.count...)
	out.trueDist = append([]int64(nil), s.trueDist...)
	return out
}

// Prepare implements Incremental. The rows come from one grouped pass
// (grouped.go).
func (dl *DistanceLinkage) Prepare(orig, masked *dataset.Dataset, attrs []int) State {
	n := orig.Rows()
	if n == 0 || len(attrs) == 0 {
		return nil
	}
	st := &dbrlState{
		n: n, attrs: attrs, pos: make(map[int]int, len(attrs)),
		oc: columnsInto(nil, orig, attrs), mc: columnsInto(nil, masked, attrs),
		tables:   distanceTables(orig, attrs),
		best:     make([]int64, n),
		count:    make([]int32, n),
		trueDist: make([]int64, n),
	}
	for a, c := range attrs {
		st.pos[c] = a
	}
	st.relink()
	return st
}

// relink rebuilds every record's row from the masked columns in one
// grouped pass.
func (st *dbrlState) relink() {
	lg := groupLinkage(st.oc, st.mc, st.n)
	defer linkGroupsPool.Put(lg)
	lg.nearest(st.tables)
	for i := 0; i < st.n; i++ {
		g := lg.orig.of[i]
		st.best[i], st.count[i] = lg.best[g], int32(lg.count[g])
		st.trueDist[i] = st.dist(i, i)
	}
	st.relinkCost = lg.relinkCost(st.n, len(st.attrs))
	st.stale = false
}

// wide reports whether patching changes in and out again would cost more
// than a full grouped re-link. Both are counted in per-attribute table
// reads: a change re-sums the distance of every original record to the
// edited masked record, twice.
func (st *dbrlState) wide(changes []dataset.CellChange) bool {
	return 2*len(changes)*st.n*len(st.attrs) > st.relinkCost
}

// dist returns the mixed categorical distance between original record i
// and masked record j under the state's current masked columns.
func (s *dbrlState) dist(i, j int) int64 {
	var d int64
	for a := range s.tables {
		d += s.tables[a].at(s.oc[a][i], s.mc[a][j])
	}
	return d
}

// rescan recomputes record i's nearest-distance and tie count from
// scratch against the current masked columns.
func (s *dbrlState) rescan(i int) {
	best := int64(1) << 62
	count := int32(0)
	for j := 0; j < s.n; j++ {
		d := s.dist(i, j)
		switch {
		case d < best:
			best, count = d, 1
		case d == best:
			count++
		}
	}
	s.best[i], s.count[i] = best, count
}

// patchOne advances the per-record linkage rows by one cell change. The
// rows are pure functions of the masked columns (minimum, multiplicity
// and true-match distance of each record's distance multiset),
// so replaying inverted changes in reverse restores them exactly.
func (st *dbrlState) patchOne(ch dataset.CellChange) {
	a0 := st.pos[ch.Col]
	j0 := ch.Row
	t := st.tables[a0]
	st.mc[a0][j0] = ch.New
	for i := 0; i < st.n; i++ {
		dOldA, dNewA := t.at(st.oc[a0][i], ch.Old), t.at(st.oc[a0][i], ch.New)
		if dOldA == dNewA && i != j0 {
			continue // the replaced distance is unchanged
		}
		var base int64
		for a := range st.tables {
			if a != a0 {
				base += st.tables[a].at(st.oc[a][i], st.mc[a][j0])
			}
		}
		dOld, dNew := base+dOldA, base+dNewA
		if i == j0 {
			st.trueDist[i] = dNew
		}
		if dOld == dNew {
			continue
		}
		// Replace one element of record i's distance multiset.
		switch {
		case dOld > st.best[i]:
			if dNew < st.best[i] {
				st.best[i], st.count[i] = dNew, 1
			} else if dNew == st.best[i] {
				st.count[i]++
			}
		default: // dOld == st.best[i]; dOld < best is impossible
			if st.count[i] > 1 {
				st.count[i]--
				if dNew < st.best[i] {
					st.best[i], st.count[i] = dNew, 1
				} else if dNew == st.best[i] {
					st.count[i]++
				}
			} else if dNew <= dOld {
				st.best[i] = dNew // still the unique minimum
			} else {
				st.rescan(i) // the unique minimum moved away
			}
		}
	}
}

// value assembles the linkage percentage from the maintained rows with
// the same arithmetic and record order as the full Risk.
func (st *dbrlState) value() float64 {
	credit := 0.0
	for i := 0; i < st.n; i++ {
		if st.trueDist[i] == st.best[i] {
			credit += 1 / float64(st.count[i])
		}
	}
	return 100 * credit / float64(st.n)
}

// Apply implements Incremental. A plain Apply commits any pending
// ApplyUndo. A wide change list, or a pending wide ApplyUndo, re-links
// the rows in full instead of patching them.
func (dl *DistanceLinkage) Apply(state State, changes []dataset.CellChange) float64 {
	st := state.(*dbrlState)
	st.undo.active = false
	if st.stale || st.wide(changes) {
		setCells(st.mc, st.pos, changes)
		st.relink()
	} else {
		for _, ch := range changes {
			st.patchOne(ch)
		}
	}
	return st.value()
}

// ApplyUndo implements Reversible. A wide change list is written into the
// masked columns alone and scored by the grouped kernel of full Risk,
// leaving the rows to describe the unedited file.
func (dl *DistanceLinkage) ApplyUndo(state State, changes []dataset.CellChange) float64 {
	st := state.(*dbrlState)
	if !st.wide(changes) {
		v := dl.Apply(state, changes)
		st.undo.arm(changes)
		return v
	}
	setCells(st.mc, st.pos, changes)
	st.undo.arm(changes)
	st.stale = true
	lg := linkGroupsPool.Get().(*linkGroups)
	defer linkGroupsPool.Put(lg)
	return dbrlGrouped(lg, st.oc, st.mc, st.tables, st.n)
}

// Undo implements Reversible.
func (dl *DistanceLinkage) Undo(state State) {
	st := state.(*dbrlState)
	if !st.undo.active {
		return
	}
	st.undo.active = false
	if st.stale {
		st.undo.restoreCells(st.mc, st.pos)
		st.stale = false
		return
	}
	for k := len(st.undo.changes) - 1; k >= 0; k-- {
		st.patchOne(st.undo.changes[k].Inverted())
	}
}

// --- PRL (probabilistic record linkage) ---

type prlState struct {
	n        int
	numAttrs int
	iters    int
	pos      map[int]int
	oc       [][]int   // shared read-only
	mc       [][]int   // owned
	ocByCat  [][][]int // shared: per attr, per category, original record indices
	// cnt[i*numPat+pat] counts masked records j with pattern(i,j) == pat
	// for original record i; patCount aggregates cnt over all i (exact
	// integers in float64).
	cnt      []int32
	patCount []float64
	truePat  []int32 // pattern(i, i) per record
	// relinkCost is the estimated cost of a full grouped re-link, from
	// the tuple counts of the last one (linkGroups.relinkCost).
	relinkCost int
	// stale marks histograms that lag mc: a wide ApplyUndo wrote its
	// edits into mc only. Undo clears it; in a clone, the next Apply
	// re-links.
	stale bool
	// Reusable EM and weight scratch of value and of wide ApplyUndo,
	// lazily sized and never shared: CloneState leaves it empty, so
	// steady-state Apply calls allocate nothing.
	em   emScratch
	undo undoLog // pending ApplyUndo journal; never shared by clones
}

// CloneState implements State.
func (s *prlState) CloneState() State {
	out := &prlState{
		n: s.n, numAttrs: s.numAttrs, iters: s.iters, pos: s.pos, oc: s.oc, ocByCat: s.ocByCat,
		relinkCost: s.relinkCost, stale: s.stale,
	}
	out.mc = make([][]int, len(s.mc))
	for a, col := range s.mc {
		own := make([]int, len(col))
		copy(own, col)
		out.mc[a] = own
	}
	out.cnt = append([]int32(nil), s.cnt...)
	out.patCount = append([]float64(nil), s.patCount...)
	out.truePat = append([]int32(nil), s.truePat...)
	return out
}

// Prepare implements Incremental. The histograms come from one grouped
// pass (grouped.go).
func (pl *ProbabilisticLinkage) Prepare(orig, masked *dataset.Dataset, attrs []int) State {
	n := orig.Rows()
	if n == 0 || len(attrs) == 0 || len(attrs) > MaxPRLAttrs {
		return nil
	}
	if 1<<len(attrs) > n {
		// The per-record pattern histograms cost O(n·2^attrs) to store,
		// clone and re-link; once the pattern space outgrows the record
		// count the full recompute, O(n·attrs) grouping plus
		// O(D_orig·D_masked·attrs) for D distinct tuples, is the cheaper
		// path.
		return nil
	}
	iters := pl.EMIters
	if iters <= 0 {
		iters = 30
	}
	numPat := 1 << len(attrs)
	st := &prlState{
		n: n, numAttrs: len(attrs), iters: iters,
		pos: make(map[int]int, len(attrs)),
		oc:  columnsInto(nil, orig, attrs), mc: columnsInto(nil, masked, attrs),
		cnt:      make([]int32, n*numPat),
		patCount: make([]float64, numPat),
		truePat:  make([]int32, n),
	}
	st.ocByCat = make([][][]int, len(attrs))
	for a, c := range attrs {
		st.pos[c] = a
		card := orig.Schema().Attr(c).Cardinality()
		st.ocByCat[a] = make([][]int, card)
		for i, v := range st.oc[a] {
			st.ocByCat[a][v] = append(st.ocByCat[a][v], i)
		}
	}
	st.relink()
	return st
}

// relink rebuilds every record's pattern histogram, the true-match
// patterns and the pattern tally from the masked columns in one grouped
// pass. Records sharing a tuple share a histogram row: each group's row
// is built once, at its first record, and copied to the others.
func (st *prlState) relink() {
	numPat := 1 << st.numAttrs
	lg := groupLinkage(st.oc, st.mc, st.n)
	defer linkGroupsPool.Put(lg)
	clear(st.cnt)
	clear(st.patCount)
	for i := 0; i < st.n; i++ {
		row := st.cnt[i*numPat : (i+1)*numPat]
		g := lg.orig.of[i]
		if f := int(lg.orig.first[g]); f == i {
			lg.histogram(int(g), row)
		} else {
			copy(row, st.cnt[f*numPat:])
		}
		st.truePat[i] = int32(pattern(i, i, st.oc, st.mc))
		for pat, c := range row {
			st.patCount[pat] += float64(c)
		}
	}
	st.relinkCost = lg.relinkCost(st.n, st.numAttrs)
	st.stale = false
}

// wide reports whether patching changes in and out again would cost more
// than a full grouped re-link, counted in per-attribute comparisons as
// for DBRL: a change re-derives the pattern of every original record
// holding its old or new category, twice.
func (st *prlState) wide(changes []dataset.CellChange) bool {
	cost := 0
	for _, ch := range changes {
		byCat := st.ocByCat[st.pos[ch.Col]]
		cost += 2 * (len(byCat[ch.Old]) + len(byCat[ch.New])) * st.numAttrs
		if cost > st.relinkCost {
			return true
		}
	}
	return false
}

// patchOne advances the pattern histograms by one cell change. All
// tallies are exact integers and pure functions of the masked columns,
// so replaying inverted changes in reverse restores them exactly.
func (st *prlState) patchOne(ch dataset.CellChange) {
	numPat := 1 << st.numAttrs
	a0 := st.pos[ch.Col]
	j0 := ch.Row
	// Only original records agreeing with the old or new category see
	// their pattern against masked record j0 flip bit a0.
	for _, cat := range [2]int{ch.Old, ch.New} {
		for _, i := range st.ocByCat[a0][cat] {
			patOld := 0
			for a := range st.oc {
				v := st.mc[a][j0]
				if a == a0 {
					v = ch.Old
				}
				if st.oc[a][i] == v {
					patOld |= 1 << a
				}
			}
			patNew := patOld &^ (1 << a0)
			if st.oc[a0][i] == ch.New {
				patNew |= 1 << a0
			}
			st.cnt[i*numPat+patOld]--
			st.cnt[i*numPat+patNew]++
			st.patCount[patOld]--
			st.patCount[patNew]++
		}
	}
	st.mc[a0][j0] = ch.New
	// The true-match pattern of record j0 itself.
	st.truePat[j0] = int32(pattern(j0, j0, st.oc, st.mc))
}

// value re-estimates and re-links from the pattern tallies — identical
// inputs and arithmetic to the full Risk, so identical m/u estimates,
// weights and credit.
func (st *prlState) value() float64 {
	numPat := 1 << st.numAttrs
	st.em.size(st.numAttrs)
	weights := st.em.matchWeights(st.patCount, float64(st.n)*float64(st.n), float64(st.n), st.iters)
	credit := 0.0
	for i := 0; i < st.n; i++ {
		row := st.cnt[i*numPat : (i+1)*numPat]
		best := math.Inf(-1)
		count := int32(0)
		for pat, c := range row {
			if c == 0 {
				continue
			}
			w := weights[pat]
			switch {
			case w > best:
				best, count = w, c
			case w == best:
				count += c
			}
		}
		if weights[st.truePat[i]] == best && row[st.truePat[i]] > 0 {
			credit += 1 / float64(count)
		}
	}
	return 100 * credit / float64(st.n)
}

// Apply implements Incremental. A plain Apply commits any pending
// ApplyUndo. A wide change list, or a pending wide ApplyUndo, re-links
// the histograms in full instead of patching them.
func (pl *ProbabilisticLinkage) Apply(state State, changes []dataset.CellChange) float64 {
	st := state.(*prlState)
	st.undo.active = false
	if st.stale || st.wide(changes) {
		setCells(st.mc, st.pos, changes)
		st.relink()
	} else {
		for _, ch := range changes {
			st.patchOne(ch)
		}
	}
	return st.value()
}

// ApplyUndo implements Reversible. A wide change list is written into the
// masked columns alone and scored by the grouped kernel of full Risk,
// leaving the histograms to describe the unedited file.
func (pl *ProbabilisticLinkage) ApplyUndo(state State, changes []dataset.CellChange) float64 {
	st := state.(*prlState)
	if !st.wide(changes) {
		v := pl.Apply(state, changes)
		st.undo.arm(changes)
		return v
	}
	setCells(st.mc, st.pos, changes)
	st.undo.arm(changes)
	st.stale = true
	lg := linkGroupsPool.Get().(*linkGroups)
	defer linkGroupsPool.Put(lg)
	return prlGrouped(lg, &st.em, st.oc, st.mc, st.n, st.iters)
}

// Undo implements Reversible. The EM re-estimation and re-link are pure
// reads of the tallies, so undo only reverses the integer patches — or,
// after a wide ApplyUndo, only the masked columns.
func (pl *ProbabilisticLinkage) Undo(state State) {
	st := state.(*prlState)
	if !st.undo.active {
		return
	}
	st.undo.active = false
	if st.stale {
		st.undo.restoreCells(st.mc, st.pos)
		st.stale = false
		return
	}
	for k := len(st.undo.changes) - 1; k >= 0; k-- {
		st.patchOne(st.undo.changes[k].Inverted())
	}
}
