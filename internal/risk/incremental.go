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
//     rescan (O(n)) occur — rare in practice, so updates are ~O(n·attrs)
//     per changed cell.
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
// All four states support intruder-side stride sampling (MaxRecords)
// directly: the sampled record set is deterministic, so the sampled
// summaries (DBRL's per-record rows and PRL's pattern histograms exist
// only for sampled records) are patched exactly like the full ones and
// there is no full-recompute fallback left in the default battery.
//
// All four measures are also Reversible: ApplyUndo journals enough to
// roll a change list back exactly, so generation-batch evaluation
// (score.Evaluator.EvaluateBatch) can score every offspring of a
// generation against one shared parent state instead of cloning it per
// offspring. ID, DBRL and PRL undo by replaying the inverted change list
// in reverse through the same exact integer patches (their summaries are
// pure functions of the masked columns); RSRL undoes through word-level
// bitset-diff journaling plus scalar row snapshots (see
// rsrl_incremental.go), skipping the candidate re-intersections entirely.
//
// Measured at bench_test.go scale (500 records), a single-cell Apply costs
// ~3.3µs against ~56µs for the bitset-accelerated full RSRL recompute
// (~17x) and runs allocation-free — the states keep reusable scratch
// buffers, so cloning the state of a survivor whose parent lives on is
// the only steady-state allocation of the delta chain.

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
	stride int // intruder-side sampling stride; rows i = 0, stride, 2·stride...
	attrs  []int
	pos    map[int]int
	oc     [][]int     // original protected columns, shared read-only
	mc     [][]int     // masked protected columns, owned
	tables []distTable // shared (schema-only)
	// Per sampled original record (full n-sized arrays; only sampled
	// indices are maintained and read): distance to its nearest masked
	// record, how many masked records tie at that distance, and the
	// distance to its true masked counterpart.
	best     []int64
	count    []int32
	trueDist []int64
	undo     undoLog // pending ApplyUndo journal; never shared by clones
}

// CloneState implements State.
func (s *dbrlState) CloneState() State {
	out := &dbrlState{n: s.n, stride: s.stride, attrs: s.attrs, pos: s.pos, oc: s.oc, tables: s.tables}
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

// Prepare implements Incremental. Intruder-side sampling (MaxRecords) is
// handled by maintaining rows for the deterministic stride-sampled
// record set only — the same set the sampled full recompute links.
func (dl *DistanceLinkage) Prepare(orig, masked *dataset.Dataset, attrs []int) State {
	n := orig.Rows()
	if n == 0 || len(attrs) == 0 {
		return nil
	}
	st := &dbrlState{
		n: n, stride: sampleStride(n, dl.MaxRecords),
		attrs: attrs, pos: make(map[int]int, len(attrs)),
		oc: columns(orig, attrs), mc: columns(masked, attrs),
		tables:   distanceTables(orig, attrs),
		best:     make([]int64, n),
		count:    make([]int32, n),
		trueDist: make([]int64, n),
	}
	for a, c := range attrs {
		st.pos[c] = a
	}
	lg := groupLinkage(st.oc, st.mc, n, st.stride)
	defer linkGroupsPool.Put(lg)
	lg.nearest(st.tables)
	for i, k := 0, 0; i < n; i, k = i+st.stride, k+1 {
		g := lg.orig.of[k]
		st.best[i], st.count[i] = lg.best[g], int32(lg.count[g])
		st.trueDist[i] = st.dist(i, i)
	}
	return st
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
// and true-match distance of each sampled record's distance multiset),
// so replaying inverted changes in reverse restores them exactly.
func (st *dbrlState) patchOne(ch dataset.CellChange) {
	a0 := st.pos[ch.Col]
	j0 := ch.Row
	t := st.tables[a0]
	st.mc[a0][j0] = ch.New
	for i := 0; i < st.n; i += st.stride {
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
// the same arithmetic and record order as the (sampled) full Risk.
func (st *dbrlState) value() float64 {
	credit := 0.0
	for i := 0; i < st.n; i += st.stride {
		if st.trueDist[i] == st.best[i] {
			credit += 1 / float64(st.count[i])
		}
	}
	return 100 * credit / float64(sampledCount(st.n, st.stride))
}

// Apply implements Incremental. A plain Apply commits any pending
// ApplyUndo.
func (dl *DistanceLinkage) Apply(state State, changes []dataset.CellChange) float64 {
	st := state.(*dbrlState)
	st.undo.active = false
	for _, ch := range changes {
		st.patchOne(ch)
	}
	return st.value()
}

// ApplyUndo implements Reversible.
func (dl *DistanceLinkage) ApplyUndo(state State, changes []dataset.CellChange) float64 {
	v := dl.Apply(state, changes)
	state.(*dbrlState).undo.arm(changes)
	return v
}

// Undo implements Reversible.
func (dl *DistanceLinkage) Undo(state State) {
	st := state.(*dbrlState)
	if !st.undo.active {
		return
	}
	st.undo.active = false
	for k := len(st.undo.changes) - 1; k >= 0; k-- {
		st.patchOne(st.undo.changes[k].Inverted())
	}
}

// --- PRL (probabilistic record linkage) ---

type prlState struct {
	n        int
	stride   int // intruder-side sampling stride
	sampled  int // number of sampled original records (histogram rows)
	numAttrs int
	iters    int
	pos      map[int]int
	oc       [][]int   // shared read-only
	mc       [][]int   // owned
	ocByCat  [][][]int // shared: per attr, per category, sampled original record indices
	// cnt[(i/stride)*numPat+pat] counts masked records j with
	// pattern(i,j) == pat, for sampled original records i (the sampled
	// set {0, stride, 2·stride, ...} indexes rows densely as i/stride);
	// patCount aggregates cnt over all sampled i (exact integers in
	// float64).
	cnt      []int32
	patCount []float64
	truePat  []int32 // pattern(i, i) per sampled record, indexed i/stride
	// Reusable Apply scratch (EM buffers and pattern weights), lazily
	// built and never shared: CloneState leaves it nil, so steady-state
	// Apply calls allocate nothing.
	scrWeights       []float64
	scrM, scrU       []float64
	scrMNum, scrUNum []float64
	undo             undoLog // pending ApplyUndo journal; never shared by clones
}

// CloneState implements State.
func (s *prlState) CloneState() State {
	out := &prlState{
		n: s.n, stride: s.stride, sampled: s.sampled,
		numAttrs: s.numAttrs, iters: s.iters, pos: s.pos, oc: s.oc, ocByCat: s.ocByCat,
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

// Prepare implements Incremental. Intruder-side sampling (MaxRecords) is
// handled by keeping pattern histograms for the deterministic
// stride-sampled record set only, indexed densely by i/stride.
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
	stride := sampleStride(n, pl.MaxRecords)
	sampled := sampledCount(n, stride)
	numPat := 1 << len(attrs)
	st := &prlState{
		n: n, stride: stride, sampled: sampled,
		numAttrs: len(attrs), iters: iters,
		pos: make(map[int]int, len(attrs)),
		oc:  columns(orig, attrs), mc: columns(masked, attrs),
		cnt:      make([]int32, sampled*numPat),
		patCount: make([]float64, numPat),
		truePat:  make([]int32, sampled),
	}
	st.ocByCat = make([][][]int, len(attrs))
	for a, c := range attrs {
		st.pos[c] = a
		card := orig.Schema().Attr(c).Cardinality()
		st.ocByCat[a] = make([][]int, card)
		for i := 0; i < n; i += stride {
			v := st.oc[a][i]
			st.ocByCat[a][v] = append(st.ocByCat[a][v], i)
		}
	}
	// Records sharing a tuple share a histogram row: build each group's
	// row once, at its first record, and copy it to the others.
	lg := groupLinkage(st.oc, st.mc, n, stride)
	defer linkGroupsPool.Put(lg)
	for i := 0; i < n; i += stride {
		si := i / stride
		row := st.cnt[si*numPat : (si+1)*numPat]
		if f := int(lg.orig.first[lg.orig.of[si]]); f == si {
			lg.histogram(int(lg.orig.of[si]), row)
		} else {
			copy(row, st.cnt[f*numPat:])
		}
		st.truePat[si] = int32(pattern(i, i, st.oc, st.mc))
		for pat, c := range row {
			st.patCount[pat] += float64(c)
		}
	}
	return st
}

// patchOne advances the pattern histograms by one cell change. All
// tallies are exact integers and pure functions of the masked columns,
// so replaying inverted changes in reverse restores them exactly.
func (st *prlState) patchOne(ch dataset.CellChange) {
	numPat := 1 << st.numAttrs
	a0 := st.pos[ch.Col]
	j0 := ch.Row
	// Only sampled original records agreeing with the old or new category
	// see their pattern against masked record j0 flip bit a0.
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
			si := i / st.stride
			st.cnt[si*numPat+patOld]--
			st.cnt[si*numPat+patNew]++
			st.patCount[patOld]--
			st.patCount[patNew]++
		}
	}
	st.mc[a0][j0] = ch.New
	// The true-match pattern of record j0 itself, when j0 is sampled.
	if j0%st.stride == 0 {
		st.truePat[j0/st.stride] = int32(pattern(j0, j0, st.oc, st.mc))
	}
}

// value re-estimates and re-links from the pattern tallies — identical
// inputs and arithmetic to the (sampled) full Risk, so identical m/u
// estimates, weights and credit.
func (st *prlState) value() float64 {
	numPat := 1 << st.numAttrs
	if st.scrWeights == nil {
		st.scrWeights = make([]float64, numPat)
		st.scrM = make([]float64, st.numAttrs)
		st.scrU = make([]float64, st.numAttrs)
		st.scrMNum = make([]float64, st.numAttrs)
		st.scrUNum = make([]float64, st.numAttrs)
	}
	totalPairs := float64(st.sampled) * float64(st.n)
	m, u := st.scrM, st.scrU
	emEstimateInto(m, u, st.scrMNum, st.scrUNum, st.patCount, totalPairs, float64(st.sampled), st.iters)
	weights := st.scrWeights
	for pat := 0; pat < numPat; pat++ {
		w := 0.0
		for a := 0; a < st.numAttrs; a++ {
			if pat&(1<<a) != 0 {
				w += math.Log2(m[a] / u[a])
			} else {
				w += math.Log2((1 - m[a]) / (1 - u[a]))
			}
		}
		weights[pat] = w
	}
	credit := 0.0
	for si := 0; si < st.sampled; si++ {
		row := st.cnt[si*numPat : (si+1)*numPat]
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
		if weights[st.truePat[si]] == best && row[st.truePat[si]] > 0 {
			credit += 1 / float64(count)
		}
	}
	return 100 * credit / float64(st.sampled)
}

// Apply implements Incremental. A plain Apply commits any pending
// ApplyUndo.
func (pl *ProbabilisticLinkage) Apply(state State, changes []dataset.CellChange) float64 {
	st := state.(*prlState)
	st.undo.active = false
	for _, ch := range changes {
		st.patchOne(ch)
	}
	return st.value()
}

// ApplyUndo implements Reversible.
func (pl *ProbabilisticLinkage) ApplyUndo(state State, changes []dataset.CellChange) float64 {
	v := pl.Apply(state, changes)
	state.(*prlState).undo.arm(changes)
	return v
}

// Undo implements Reversible. The EM re-estimation and re-link are pure
// reads of the tallies, so undo only reverses the integer patches.
func (pl *ProbabilisticLinkage) Undo(state State) {
	st := state.(*prlState)
	if !st.undo.active {
		return
	}
	st.undo.active = false
	for k := len(st.undo.changes) - 1; k >= 0; k-- {
		st.patchOne(st.undo.changes[k].Inverted())
	}
}
