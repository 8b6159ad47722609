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
//     true-match summary is per record.
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
//     are re-linked from their tuples' histograms in O(D·2^attrs + n).
//   - RSRL keeps the masked file's per-attribute category frequencies,
//     mid-ranks, window intervals and candidate bitsets, plus per-profile
//     candidate counts. A cell change shifts only the mid-ranks between the
//     old and new category, so the contiguous windows are re-derived by an
//     O(card) two-pointer sweep, candidate unions are patched at the moved
//     interval boundaries, and only profiles holding an affected category
//     re-intersect (see rsrl_incremental.go).
//
// DBRL and PRL route each change list themselves. Patching costs grow
// with the list, about D_orig·attrs per cell, while a full re-link with
// the grouped kernel of their Risk costs about
// D_orig·D_masked·attrs + n·attrs, whatever the list. Each state counts
// both in per-attribute comparisons, from the list and from the tuple
// counts of its last full link, and re-links in full once patching would
// cost more: a wide ApplyUndo writes the list into the state's masked
// columns only, scores them with the kernel against the state's own
// original grouping and leaves the rows or histograms untouched for
// Undo, which then restores just those columns; a wide Apply (a commit)
// re-links and rebuilds the rows or histograms in place, as Prepare
// does. The original file never changes, so neither route re-groups it.
// The estimate reads counts only, never a clock, so the route of every
// call is deterministic, and both routes give bit-identical values.
//
// Undo: ID, DBRL and PRL rewind a measure.Journal, replaying the
// inverted change list in reverse through the same exact integer patches
// (their summaries are pure functions of the masked columns), or after a
// wide DBRL or PRL ApplyUndo through the masked columns alone. RSRL keeps
// its own journal of word-level bitset diffs plus scalar row snapshots
// (see rsrl_incremental.go), skipping the candidate re-intersections.
//
// Measured at bench_test.go scale (500 records, on a 2-vCPU Xeon), a
// single-cell RSRL Apply costs ~4.5µs against ~61µs for a full RSRL Risk,
// which prepares a fresh state (~9x, BenchmarkRankIntervalLinkageDeltaSpeedup),
// and runs allocation-free. On 1000-record flare, german and adult files
// a single-cell DBRL ApplyUndo+Undo costs ~9–23µs and a PRL one ~17–29µs
// (BenchmarkLinkageDeltaPaperScale), against ~0.25–2.5ms and ~0.5–6ms
// for their full Risk. The states keep reusable scratch buffers, so
// cloning the state of a survivor whose parent lives on is the only
// steady-state allocation of the delta chain.

import (
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

// setCells writes changes, in order, into the protected columns mc, where
// pos maps a dataset column to its position in mc.
func setCells(mc [][]int, pos map[int]int, changes []dataset.CellChange) {
	for _, ch := range changes {
		mc[pos[ch.Col]][ch.Row] = ch.New
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
	attrs  []int
	pos    map[int]int
	orig   *tupleGroups // original records grouped by tuple, shared read-only
	mc     [][]int      // masked protected columns, owned
	tables []distTable  // shared (schema-only)
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
	// mc only. Undo clears it; in a clone, the next Apply re-links.
	stale bool
	undo  measure.Journal // pending ApplyUndo; never shared by clones
}

// CloneState implements State.
func (s *dbrlState) CloneState() State {
	return &dbrlState{
		n: s.n, attrs: s.attrs, pos: s.pos, orig: s.orig, tables: s.tables,
		mc:         cloneColumns(s.mc),
		best:       slices.Clone(s.best),
		count:      slices.Clone(s.count),
		trueDist:   slices.Clone(s.trueDist),
		relinkCost: s.relinkCost, stale: s.stale,
	}
}

// cloneColumns returns an owned copy of the columns cols.
func cloneColumns(cols [][]int) [][]int {
	out := make([][]int, len(cols))
	for a, col := range cols {
		out[a] = slices.Clone(col)
	}
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
		orig: groupOriginal(orig, attrs), mc: columnsInto(nil, masked, attrs),
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
// distance from the masked columns in one grouped pass.
func (st *dbrlState) relink() {
	lg := linkGroupsPool.Get().(*linkGroups)
	defer linkGroupsPool.Put(lg)
	lg.masked.group(st.mc, st.n)
	lg.nearest(st.orig, st.tables)
	copy(st.best, lg.best)
	copy(st.count, lg.count)
	for i := 0; i < st.n; i++ {
		st.trueDist[i] = st.orig.distance(int(st.orig.of[i]), st.mc, i, st.tables)
	}
	st.relinkCost = lg.relinkCost(st.orig, st.n, len(st.attrs))
	st.stale = false
}

// wide reports whether patching changes in and out again would cost more
// than a full grouped re-link. Both are counted in per-attribute table
// reads: a change re-sums the distance of every original tuple to the
// edited masked record, twice.
func (st *dbrlState) wide(changes []dataset.CellChange) bool {
	return 2*len(changes)*len(st.orig.mult)*len(st.attrs) > st.relinkCost
}

// rescan recomputes tuple g's nearest distance and tie count from scratch
// against the current masked columns.
func (s *dbrlState) rescan(g int) {
	best, count := int64(1)<<62, int64(0)
	for j := 0; j < s.n; j++ {
		d := s.orig.distance(g, s.mc, j, s.tables)
		switch {
		case d < best:
			best, count = d, 1
		case d == best:
			count++
		}
	}
	s.best[g], s.count[g] = best, count
}

// patchOne advances the per-tuple rows and the true-match distances by
// one cell change. The rows are pure functions of the masked columns
// (minimum and multiplicity of each tuple's distance multiset, and each
// record's true-match distance), so replaying inverted changes in
// reverse restores them exactly.
func (st *dbrlState) patchOne(ch dataset.CellChange) {
	a0 := st.pos[ch.Col]
	j0 := ch.Row
	t := st.tables[a0]
	o := st.orig
	st.mc[a0][j0] = ch.New
	for g, u := range o.cols[a0] {
		dOldA, dNewA := t.at(u, ch.Old), t.at(u, ch.New)
		if dOldA == dNewA {
			continue // the replaced distance is unchanged
		}
		var base int64
		for a := range st.tables {
			if a != a0 {
				base += st.tables[a].at(o.cols[a][g], st.mc[a][j0])
			}
		}
		dOld, dNew := base+dOldA, base+dNewA
		// Replace one element of tuple g's distance multiset.
		switch {
		case dOld > st.best[g]:
			if dNew < st.best[g] {
				st.best[g], st.count[g] = dNew, 1
			} else if dNew == st.best[g] {
				st.count[g]++
			}
		default: // dOld == st.best[g]; dOld < best is impossible
			if st.count[g] > 1 {
				st.count[g]--
				if dNew < st.best[g] {
					st.best[g], st.count[g] = dNew, 1
				} else if dNew == st.best[g] {
					st.count[g]++
				}
			} else if dNew <= dOld {
				st.best[g] = dNew // still the unique minimum
			} else {
				st.rescan(g) // the unique minimum moved away
			}
		}
	}
	st.trueDist[j0] = o.distance(int(o.of[j0]), st.mc, j0, st.tables)
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
// ApplyUndo. A wide change list, or a pending wide ApplyUndo, re-links
// the rows in full instead of patching them.
func (dl *DistanceLinkage) Apply(state State, changes []dataset.CellChange) float64 {
	st := state.(*dbrlState)
	st.undo.Disarm()
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
// masked columns alone and scored by the grouped kernel of full Risk
// against the state's own original grouping, leaving the rows to
// describe the unedited file.
func (dl *DistanceLinkage) ApplyUndo(state State, changes []dataset.CellChange) float64 {
	st := state.(*dbrlState)
	if !st.wide(changes) {
		v := dl.Apply(state, changes)
		st.undo.Arm(changes)
		return v
	}
	setCells(st.mc, st.pos, changes)
	st.undo.Arm(changes)
	st.stale = true
	lg := linkGroupsPool.Get().(*linkGroups)
	defer linkGroupsPool.Put(lg)
	return dbrlGrouped(lg, st.orig, st.mc, st.tables, st.n)
}

// Undo implements Reversible.
func (dl *DistanceLinkage) Undo(state State) {
	st := state.(*dbrlState)
	if st.stale {
		if st.undo.Rewind(func(ch dataset.CellChange) { st.mc[st.pos[ch.Col]][ch.Row] = ch.New }) {
			st.stale = false
		}
		return
	}
	st.undo.Rewind(st.patchOne)
}

// --- PRL (probabilistic record linkage) ---

type prlState struct {
	n        int
	numAttrs int
	iters    int
	pos      map[int]int
	orig     *tupleGroups // original records grouped by tuple, shared read-only
	mc       [][]int      // owned
	ocByCat  [][][]int32  // shared: per attr, per category, original tuple ids
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
	// edits into mc only. Undo clears it; in a clone, the next Apply
	// re-links.
	stale bool
	// Reusable EM, weight and per-tuple link scratch of value and of
	// wide ApplyUndo, lazily sized and never shared: CloneState leaves it
	// empty, so steady-state Apply calls allocate nothing.
	em    emScratch
	bestW []float64       // per original tuple: highest weight of a masked record
	ties  []int32         // per original tuple: masked records attaining bestW
	undo  measure.Journal // pending ApplyUndo; never shared by clones
}

// CloneState implements State.
func (s *prlState) CloneState() State {
	return &prlState{
		n: s.n, numAttrs: s.numAttrs, iters: s.iters, pos: s.pos, orig: s.orig, ocByCat: s.ocByCat,
		mc:         cloneColumns(s.mc),
		cnt:        slices.Clone(s.cnt),
		patCount:   slices.Clone(s.patCount),
		truePat:    slices.Clone(s.truePat),
		relinkCost: s.relinkCost, stale: s.stale,
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
		orig: groupOriginal(orig, attrs), mc: columnsInto(nil, masked, attrs),
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
// patterns and the pattern tally from the masked columns in one grouped
// pass.
func (st *prlState) relink() {
	numPat := 1 << st.numAttrs
	o := st.orig
	lg := linkGroupsPool.Get().(*linkGroups)
	defer linkGroupsPool.Put(lg)
	lg.masked.group(st.mc, st.n)
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
		st.truePat[i] = int32(o.pattern(int(g), st.mc, i))
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
// tallies are exact integers and pure functions of the masked columns,
// so replaying inverted changes in reverse restores them exactly.
func (st *prlState) patchOne(ch dataset.CellChange) {
	numPat := 1 << st.numAttrs
	a0 := st.pos[ch.Col]
	j0 := ch.Row
	o := st.orig
	// Only original tuples agreeing with the old or new category see
	// their pattern against masked record j0 flip bit a0.
	for _, cat := range [2]int{ch.Old, ch.New} {
		for _, g := range st.ocByCat[a0][cat] {
			patOld := 0
			for a, col := range o.cols {
				v := st.mc[a][j0]
				if a == a0 {
					v = ch.Old
				}
				if col[g] == v {
					patOld |= 1 << a
				}
			}
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
	st.mc[a0][j0] = ch.New
	// The true-match pattern of record j0 itself.
	st.truePat[j0] = int32(o.pattern(int(o.of[j0]), st.mc, j0))
}

// value re-estimates and re-links from the pattern tallies — identical
// inputs and arithmetic to the full Risk, so identical m/u estimates,
// weights and credit. Each tuple's strongest weight and tie count are
// found once; credit is then summed in record order.
func (st *prlState) value() float64 {
	numPat := 1 << st.numAttrs
	st.em.size(st.numAttrs)
	weights := st.em.matchWeights(st.patCount, float64(st.n)*float64(st.n), float64(st.n), st.iters)
	numOrig := len(st.orig.mult)
	st.bestW = resize(st.bestW, numOrig)
	st.ties = resize(st.ties, numOrig)
	for g := range numOrig {
		best, count := math.Inf(-1), int32(0)
		for pat, c := range st.cnt[g*numPat : (g+1)*numPat] {
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
		st.bestW[g], st.ties[g] = best, count
	}
	credit := 0.0
	for i, g := range st.orig.of {
		tp := st.truePat[i]
		if weights[tp] == st.bestW[g] && st.cnt[int(g)*numPat+int(tp)] > 0 {
			credit += 1 / float64(st.ties[g])
		}
	}
	return 100 * credit / float64(st.n)
}

// Apply implements Incremental. A plain Apply commits any pending
// ApplyUndo. A wide change list, or a pending wide ApplyUndo, re-links
// the histograms in full instead of patching them.
func (pl *ProbabilisticLinkage) Apply(state State, changes []dataset.CellChange) float64 {
	st := state.(*prlState)
	st.undo.Disarm()
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
// masked columns alone and scored by the grouped kernel of full Risk
// against the state's own original grouping, leaving the histograms to
// describe the unedited file.
func (pl *ProbabilisticLinkage) ApplyUndo(state State, changes []dataset.CellChange) float64 {
	st := state.(*prlState)
	if !st.wide(changes) {
		v := pl.Apply(state, changes)
		st.undo.Arm(changes)
		return v
	}
	setCells(st.mc, st.pos, changes)
	st.undo.Arm(changes)
	st.stale = true
	lg := linkGroupsPool.Get().(*linkGroups)
	defer linkGroupsPool.Put(lg)
	return prlGrouped(lg, &st.em, st.orig, st.mc, st.n, st.iters)
}

// Undo implements Reversible. The EM re-estimation and re-link are pure
// reads of the tallies, so undo only reverses the integer patches — or,
// after a wide ApplyUndo, only the masked columns.
func (pl *ProbabilisticLinkage) Undo(state State) {
	st := state.(*prlState)
	if st.stale {
		if st.undo.Rewind(func(ch dataset.CellChange) { st.mc[st.pos[ch.Col]][ch.Row] = ch.New }) {
			st.stale = false
		}
		return
	}
	st.undo.Rewind(st.patchOne)
}
