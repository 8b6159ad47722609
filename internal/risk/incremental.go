package risk

// Delta states of the disclosure-risk battery. The contract (State,
// Prepare, Apply, ApplyUndo, Undo) is declared once in internal/measure;
// every state keeps exact integer summaries, so delta values are
// bit-for-bit identical to a full recompute.
//
// Coverage:
//
//   - ID keeps one integer (the disclosed-window count) and per-attribute
//     contribution tables that depend only on the original file.
//   - DBRL and PRL group the original records by protected tuple once,
//     at Prepare, and keep that compact grouping (grouped.go), which
//     every clone shares read-only. Their rows are per distinct original
//     tuple, since records sharing a tuple link alike; only the
//     true-match summary is per record. Each owns the masked file's
//     projection onto the protected attributes (Dataset.Project), stored
//     at the width those attributes' domains allow: a byte per cell for
//     every synthetic dataset, which is all a clone copies of the masked
//     file. A patch reads the edited record's tuple from it once, into
//     the state's scratch, before its per-tuple loop.
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
// cost more: a wide ApplyUndo writes the list into the state's masked
// cells only, scores them with the grouped kernel of full Risk, which
// reads the projection's cells in place as it reads full Risk's files,
// against the state's own original grouping, and leaves the rows or
// histograms stale for Undo, which then restores just those cells. Every
// state reads its projection through the column positions 0 … attrs-1
// (readTuple), full Risk the files through the protected attributes
// themselves. The next Apply or narrow ApplyUndo of a stale state (one
// committing a pending wide ApplyUndo, or a clone of one) re-links and
// rebuilds the rows or histograms in place, as Prepare does, before it
// patches. Apply itself picks no route: it commits an empty list or one
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
// and 14–34 KB for RSRL's bitsets and rows (~7–15µs).

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

// Compile-time capability checks: the whole default battery is
// reversible.
var (
	_ Reversible = (*IntervalDisclosure)(nil)
	_ Reversible = (*DistanceLinkage)(nil)
	_ Reversible = (*ProbabilisticLinkage)(nil)
	_ Reversible = (*RankIntervalLinkage)(nil)
)

// setCells writes changes, in order, into the masked projection mc, where
// pos maps a dataset column to its column in mc.
func setCells(mc *dataset.Dataset, pos map[int]int, changes []dataset.CellChange) {
	for _, ch := range changes {
		mc.Set(ch.Row, pos[ch.Col], ch.New)
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
	undo      measure.Journal // pending ApplyUndo; never shared by clones
}

// CloneState implements State.
func (s *idState) CloneState() State {
	out := *s
	out.undo = measure.Journal{}
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
		st.disclosed += idDisclosed(st.contrib[a], orig, masked, c)
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
	st.undo.Disarm()
	for _, ch := range changes {
		st.patchOne(ch)
	}
	return idValue(st.disclosed, st.n, st.numAttrs, st.maxP)
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

// --- DBRL (distance-based record linkage) ---

type dbrlState struct {
	n      int
	pos    map[int]int
	orig   *tupleGroups     // original records grouped by tuple, shared read-only
	mc     *dataset.Dataset // masked file projected onto attrs (Dataset.Project), owned
	cols   []int            // mc's columns, 0 … attrs-1, shared
	tables []distTable      // shared (schema-only)
	// Per original tuple: distance to its nearest masked record and how
	// many masked records tie at that distance.
	best  []int64
	count []int64
	// Per original record: the distance to its true masked counterpart.
	trueDist []int64
	// relinkCost is the estimated cost of a full grouped re-link, from
	// the tuple counts of the last one (linkGroups.relinkCost).
	relinkCost int
	// stale marks rows that lag mc: a wide ApplyUndo wrote its edits into
	// mc only. The next Apply or narrow ApplyUndo re-links first; Undo
	// puts back wasStale, the flag's value before the wide ApplyUndo (a
	// clone of a pending wide edit starts stale).
	stale, wasStale bool
	// tuple is patchOne's scratch: the edited masked record's tuple,
	// never shared by clones.
	tuple []int
	// undo holds the pending ApplyUndo's change list, which Undo rewinds
	// through the masked cells; rowLog and distLog hold the
	// before-images of the rows and true-match distances its patches
	// overwrote, oldest first. None of them is shared by clones.
	undo    measure.Journal
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
		n: s.n, pos: s.pos, orig: s.orig, cols: s.cols, tables: s.tables,
		mc:         s.mc.Clone(),
		tuple:      make([]int, len(s.tuple)),
		best:       slices.Clone(s.best),
		count:      slices.Clone(s.count),
		trueDist:   slices.Clone(s.trueDist),
		relinkCost: s.relinkCost, stale: s.stale,
	}
}

// Prepare implements Incremental. The rows come from one grouped pass
// (grouped.go).
func (dl *DistanceLinkage) Prepare(orig, masked *dataset.Dataset, attrs []int) State {
	n := orig.Rows()
	if n == 0 || len(attrs) == 0 {
		return nil
	}
	st := &dbrlState{
		n: n, pos: make(map[int]int, len(attrs)),
		orig: groupOriginal(orig, attrs), mc: masked.Project(attrs), cols: positions(len(attrs)),
		tuple:    make([]int, len(attrs)),
		tables:   distanceTables(orig, attrs),
		trueDist: make([]int64, n),
	}
	st.best = make([]int64, len(st.orig.mult))
	st.count = make([]int64, len(st.orig.mult))
	for a, c := range attrs {
		st.pos[c] = a
	}
	st.relink()
	return st
}

// relink rebuilds every tuple's row and every record's true-match
// distance from the masked cells in one grouped pass.
func (st *dbrlState) relink() {
	lg := linkGroupsPool.Get().(*linkGroups)
	defer linkGroupsPool.Put(lg)
	lg.masked.group(st.mc, st.cols)
	lg.nearest(st.orig, st.tables)
	copy(st.best, lg.best)
	copy(st.count, lg.count)
	for i, g := range st.orig.of {
		readTuple(st.tuple, st.mc, st.cols, i)
		st.trueDist[i] = st.orig.distance(int(g), st.tuple, st.tables)
	}
	st.relinkCost = lg.relinkCost(st.orig, st.n, len(st.cols))
	st.stale = false
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
	for j := 0; j < s.n; j++ {
		var d int64
		for a, t := range s.tables {
			d += t.at(s.orig.cols[a][g], s.mc.At(j, a))
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
	t := st.tables[a0]
	o := st.orig
	st.mc.Set(j0, a0, ch.New)
	tuple := st.tuple
	readTuple(tuple, st.mc, st.cols, j0)
	for g, u := range o.cols[a0] {
		dOldA, dNewA := t.at(u, ch.Old), t.at(u, ch.New)
		if dOldA == dNewA {
			continue // the replaced distance is unchanged
		}
		var base int64
		for a := range st.tables {
			if a != a0 {
				base += st.tables[a].at(o.cols[a][g], tuple[a])
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
// columns alone and scored by the grouped kernel of full Risk against the
// state's own original grouping, leaving the rows to describe the
// unedited file.
func (dl *DistanceLinkage) ApplyUndo(state State, changes []dataset.CellChange) float64 {
	st := state.(*dbrlState)
	if !st.wide(changes) {
		v := dl.Apply(state, changes)
		st.undo.Arm(changes)
		return v
	}
	setCells(st.mc, st.pos, changes)
	st.undo.Arm(changes)
	st.wasStale, st.stale = st.stale, true
	lg := linkGroupsPool.Get().(*linkGroups)
	defer linkGroupsPool.Put(lg)
	return dbrlGrouped(lg, st.orig, st.mc, st.cols, st.tables)
}

// Undo implements Reversible: the masked cells are rewound, then the
// journalled rows and distances restored, newest first. After a wide
// ApplyUndo (the only route that leaves the rows stale) only the masked
// cells moved.
func (dl *DistanceLinkage) Undo(state State) {
	st := state.(*dbrlState)
	if !st.undo.Rewind(func(ch dataset.CellChange) { st.mc.Set(ch.Row, st.pos[ch.Col], ch.New) }) {
		return
	}
	if st.stale {
		st.stale = st.wasStale
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

type prlState struct {
	n        int
	numAttrs int
	iters    int
	pos      map[int]int
	orig     *tupleGroups     // original records grouped by tuple, shared read-only
	mc       *dataset.Dataset // masked file projected onto the protected attributes, owned
	cols     []int            // mc's columns, 0 … attrs-1, shared
	ocByCat  [][][]int32      // shared: per attr, per category, original tuple ids
	// cnt[g*numPat+pat] counts masked records j with pattern(g,j) == pat
	// for original tuple g; patCount aggregates cnt over all records,
	// weighting each tuple by its multiplicity (exact integers in
	// float64).
	cnt      []int32
	patCount []float64
	truePat  []int32 // per original record i: pattern(i, i)
	// relinkCost is the estimated cost of a full grouped re-link, from
	// the tuple counts of the last one (linkGroups.relinkCost).
	relinkCost int
	// stale marks histograms that lag mc: a wide ApplyUndo wrote its
	// edits into mc only. The next Apply re-links; Undo puts back
	// wasStale, the flag's value before the wide ApplyUndo (a clone of a
	// pending wide edit starts stale).
	stale, wasStale bool
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
	order []int32         // patterns by descending weight (strongestLinks)
	bestW []float64       // per original tuple: highest weight of a masked record
	ties  []int32         // per original tuple: masked records attaining bestW
	tuple []int           // patchOne scratch: the edited masked record's tuple; never shared
	undo  measure.Journal // pending ApplyUndo; never shared by clones
}

// CloneState implements State.
func (s *prlState) CloneState() State {
	return &prlState{
		n: s.n, numAttrs: s.numAttrs, iters: s.iters, pos: s.pos, orig: s.orig, cols: s.cols, ocByCat: s.ocByCat,
		mc:         s.mc.Clone(),
		tuple:      make([]int, len(s.tuple)),
		cnt:        slices.Clone(s.cnt),
		patCount:   slices.Clone(s.patCount),
		truePat:    slices.Clone(s.truePat),
		relinkCost: s.relinkCost, stale: s.stale,
		val: s.val, valOK: s.valOK,
	}
}

// Prepare implements Incremental. The histograms come from one grouped
// pass (grouped.go).
func (pl *ProbabilisticLinkage) Prepare(orig, masked *dataset.Dataset, attrs []int) State {
	n := orig.Rows()
	if n == 0 || len(attrs) == 0 || len(attrs) > MaxPRLAttrs {
		return nil
	}
	if 1<<len(attrs) > n {
		// Every value call runs EM over the 2^attrs patterns and scans
		// the D×2^attrs tuple histograms, which also set the cost of a
		// clone and a re-link, while a full recompute costs O(n·attrs)
		// grouping plus O(D_orig·D_masked·attrs) for D distinct tuples.
		// Once the pattern space outgrows the record count the full
		// recompute is the cheaper path. The guard counts records, not
		// tuples, so whether an evaluator holds a PRL state depends on
		// the file's size and attributes only.
		return nil
	}
	iters := pl.EMIters
	if iters <= 0 {
		iters = 30
	}
	numPat := 1 << len(attrs)
	st := &prlState{
		n: n, numAttrs: len(attrs), iters: iters,
		pos:  make(map[int]int, len(attrs)),
		orig: groupOriginal(orig, attrs), mc: masked.Project(attrs), cols: positions(len(attrs)),
		tuple:    make([]int, len(attrs)),
		patCount: make([]float64, numPat),
		truePat:  make([]int32, n),
	}
	st.cnt = make([]int32, len(st.orig.mult)*numPat)
	st.ocByCat = make([][][]int32, len(attrs))
	for a, c := range attrs {
		st.pos[c] = a
		st.ocByCat[a] = buckets(st.orig.cols[a], orig.Schema().Attr(c).Cardinality())
	}
	st.relink()
	return st
}

// relink rebuilds every tuple's pattern histogram, the true-match
// patterns and the pattern tally from the masked cells in one grouped
// pass.
func (st *prlState) relink() {
	numPat := 1 << st.numAttrs
	o := st.orig
	lg := linkGroupsPool.Get().(*linkGroups)
	defer linkGroupsPool.Put(lg)
	lg.masked.group(st.mc, st.cols)
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
	st.relinkCost = lg.relinkCost(o, st.n, st.numAttrs)
	st.stale = false
}

// wide reports whether patching changes in and out again would cost more
// than a full grouped re-link, counted in per-attribute comparisons as
// for DBRL: a change re-derives the pattern of every original tuple
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
// tallies are exact integers and pure functions of the masked cells,
// so replaying inverted changes in reverse restores them exactly.
func (st *prlState) patchOne(ch dataset.CellChange) {
	numPat := 1 << st.numAttrs
	a0 := st.pos[ch.Col]
	j0 := ch.Row
	o := st.orig
	tuple := st.tuple
	readTuple(tuple, st.mc, st.cols, j0)
	tuple[a0] = ch.Old
	// Only original tuples agreeing with the old or new category see
	// their pattern against masked record j0 flip bit a0.
	for _, cat := range [2]int{ch.Old, ch.New} {
		for _, g := range st.ocByCat[a0][cat] {
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

// edit writes changes into the masked cells alone.
func (st *prlState) edit(changes []dataset.CellChange) {
	if len(changes) > 0 {
		setCells(st.mc, st.pos, changes)
		st.valOK = false
	}
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
	numPat := 1 << st.numAttrs
	st.em.size(st.numAttrs)
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
// ApplyUndo and patches the histograms by every change; a stale state (a
// pending wide ApplyUndo, or a clone of one) re-links them in full
// instead. An empty Apply committing a pending ApplyUndo returns its
// cached value.
func (pl *ProbabilisticLinkage) Apply(state State, changes []dataset.CellChange) float64 {
	st := state.(*prlState)
	st.undo.Disarm()
	if st.stale {
		st.edit(changes)
		st.relink()
	} else {
		for _, ch := range changes {
			st.patchOne(ch)
		}
	}
	return st.value()
}

// ApplyUndo implements Reversible. A wide change list is written into the
// masked cells alone and scored by the grouped kernel of full Risk
// against the state's own original grouping, leaving the histograms to
// describe the unedited file.
func (pl *ProbabilisticLinkage) ApplyUndo(state State, changes []dataset.CellChange) float64 {
	st := state.(*prlState)
	if !st.wide(changes) {
		v := pl.Apply(state, changes)
		st.undo.Arm(changes)
		return v
	}
	st.edit(changes)
	st.undo.Arm(changes)
	st.wasStale, st.stale = st.stale, true
	lg := linkGroupsPool.Get().(*linkGroups)
	defer linkGroupsPool.Put(lg)
	st.val, st.valOK = prlGrouped(lg, &st.em, st.orig, st.mc, st.cols, st.iters), true
	return st.val
}

// Undo implements Reversible. The EM re-estimation and re-link are pure
// reads of the tallies, so undo only reverses the integer patches — or,
// after a wide ApplyUndo, only the masked cells.
func (pl *ProbabilisticLinkage) Undo(state State) {
	st := state.(*prlState)
	if st.stale {
		if st.undo.Rewind(func(ch dataset.CellChange) { st.mc.Set(ch.Row, st.pos[ch.Col], ch.New) }) {
			st.stale, st.valOK = st.wasStale, false
		}
		return
	}
	st.undo.Rewind(st.patchOne)
}
