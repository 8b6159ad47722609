package risk

// Incremental (delta) evaluation for the rank-interval linkage. The
// measure's value is a pure function of three layers of summaries, each of
// which a single cell change touches only locally:
//
//  1. Per-attribute category frequencies of the masked file, and the
//     mid-ranks derived from them. Moving one record from category old to
//     category new shifts only the ranks of categories between the two in
//     domain order.
//  2. Per-category admissibility windows. Mid-ranks are monotone in domain
//     order, so every window is a contiguous interval [lo, hi]; after a
//     rank shift the intervals are re-derived with one O(card) two-pointer
//     sweep (rsrlSweep) and each candidate union is patched only at the
//     interval boundaries that actually moved. The per-category record
//     bitsets partition the masked records, so categories leaving a window
//     subtract exactly (AndNotWith) and categories entering add (OrWith);
//     the moved record itself is one Clear+Set.
//  3. Per-profile candidate intersections. Profiles are over the original
//     file and therefore static: records are grouped once, when the
//     measure binds, by the linkage core DBRL and PRL bind too (bindLink)
//     — its tuple columns are the profiles, its record map the groups,
//     its tuples per category the groups each category reaches. Only
//     groups whose profile holds a category whose candidate union
//     changed can change; all others keep their counts. A union whose
//     window slid gains or loses
//     whole categories, so the groups holding it re-intersect against a
//     reusable scratch bitset (refreshGroup). A union whose window stayed
//     put differs only in the moved record's own bit, and when that is
//     the list's only cell, no other union of another attribute changed:
//     each group holding it moves its count by one exactly when the
//     record lies in the group's other candidate unions — attrs−1 bit
//     tests instead of an n/64-word intersection (shiftCounts). No other
//     record's bit changed, so only the moved record's own hit flag is
//     recomputed. Change lists of several cells re-intersect every group
//     they touch, as sliding windows do.
//
// Shared and owned: the bound rsrlOrig holds the original-file
// summaries, read by every state and clone: the linkage core (linkOrig,
// grouped.go) it embeds — the grouping, the positions and, per attribute
// and category, the groups holding it, but no projection columns, since
// RSRL keeps no masked projection — plus the original mid-ranks and each
// group's member records. A state owns the masked-file summaries of
// layers 1 and 2, one candidate count per group and one hit flag per
// record; it keeps each family of rows in one backing array (ints,
// ranks, bits), so CloneState copies it in a fixed handful of
// allocations.
//
// Every summary is exact (integer frequencies, exact half-integer ranks,
// bitsets), and the credit sum is accumulated in record order from them
// alone. Full Risk is the value of a freshly prepared state, so Apply is
// bit-for-bit identical to a full recompute by construction —
// rsrlReference, the literal O(n²) pairwise scan, property-tests the
// whole chain.
//
// The state is also Reversible, through journaling rather than inverse
// replay: ApplyUndo records word-level before-images of every byCat and
// cand bitset mutation (stats.BitsetJournal), snapshots the scalar rows
// (frequencies, mid-ranks, window bounds) of each touched attribute, the
// counts/hit flags of each refreshed group, the count of each group
// moved by one, and the moved record's hit flag. Every journaled count
// and flag is its value before the list, so Undo restores them in any
// order — refreshed groups, then the moved record, then the shifted
// counts — and then the scalar rows and bitset words, all directly: no
// rank sweeps, boundary patches or candidate re-intersections on the way
// back.

import (
	"slices"

	"evoprot/internal/dataset"
	"evoprot/internal/measure"
	"evoprot/internal/stats"
)

// rsrlCount is a journaled group count.
type rsrlCount struct {
	g, count int32
}

// rsrlOrig is RSRL bound to one original file and attribute list: the
// original-file summaries, shared read-only by every state. Its linkage
// core (bindLink) groups the original records by profile: orig.of maps
// each record to its group, orig.cols[a][g] is group g's category of
// attribute a, and catTuples[a][u] lists the groups holding category u
// of attribute a.
type rsrlOrig struct {
	linkOrig
	window  float64
	cards   []int
	maxCard int
	oRanks  [][]float64
	members [][]int32 // group -> its records, in increasing order
}

// rsrlState is the incremental state of RankIntervalLinkage for one masked
// file. See the file comment for the update strategy.
type rsrlState struct {
	*rsrlOrig // shared

	// Masked-file summaries: owned, deep-copied by CloneState. Each
	// family's rows view one backing array (ints, ranks, bits), in
	// attribute order: mFreq, lo and hi rows in ints, mRanks rows in
	// ranks, byCat then cand bitsets in bits. A clone copies each
	// backing array once.
	ints   []int
	ranks  []float64
	bits   []*stats.Bitset
	mFreq  [][]int
	mRanks [][]float64
	lo, hi [][]int
	byCat  [][]*stats.Bitset // partition of masked records by category
	cand   [][]*stats.Bitset // per original category: ∪ byCat over [lo,hi]
	counts []int32           // per group: |candidate intersection| of its profile
	recHit []bool            // record i: candidate set contains masked record i

	// Reusable scratch, lazily built and never shared between clones, so
	// steady-state Apply calls allocate nothing.
	scratch      *stats.Bitset
	loNew, hiNew []int
	dirty        []bool
	dirtyList    []int32

	// Undo journal, armed by ApplyUndo and consumed by Undo; owned
	// reusable buffers, never shared between clones. The scalar rows of
	// each touched attribute (undoFreq/undoRanks/undoLo/undoHi) are
	// concatenated in first-touch order (undoAttrs); undoHits holds the
	// refreshed groups' member flags concatenated in undoRefresh order;
	// undoShifts holds the counts shiftCounts moved. A single-cell list
	// journals its moved record's flag in undoRec/undoRecHit; undoRec is
	// -1 after any other list.
	undoBits       stats.BitsetJournal
	undoAttrs      []int32
	undoMark       []bool
	undoFreq       []int
	undoLo, undoHi []int
	undoRanks      []float64
	undoRefresh    []rsrlCount
	undoHits       []bool
	undoShifts     []rsrlCount
	undoRec        int32
	undoRecHit     bool
	undoActive     bool
}

// Bind implements Binder.
func (rl *RankIntervalLinkage) Bind(orig *dataset.Dataset, attrs []int) Reversible {
	b := measure.NewBinding(orig, attrs)
	return &bound{Reversible: rl, Binding: b, o: rl.bind(orig, b.Attrs())}
}

// bind builds the linkage core with the groups per category, so a
// change can invalidate exactly the groups it affects, lists each
// group's members, and ranks the original categories.
func (rl *RankIntervalLinkage) bind(orig *dataset.Dataset, attrs []int) *rsrlOrig {
	o := &rsrlOrig{linkOrig: bindLink(orig, attrs, false, true)}
	if o.orig == nil {
		return o
	}
	o.window = rl.pOrDefault() * float64(o.n) / 100
	o.cards = orig.Schema().Cardinalities(attrs)
	o.maxCard = slices.Max(o.cards)
	o.oRanks = make([][]float64, len(attrs))
	for a, c := range attrs {
		o.oRanks[a] = stats.MidRanks(columnFreq(orig, c, o.cards[a]))
	}
	o.members = buckets(o.orig.of, len(o.orig.mult))
	return o
}

// risk is the value of a freshly prepared state.
func (o *rsrlOrig) risk(masked *dataset.Dataset) float64 {
	if o.orig == nil {
		return 0
	}
	return o.prepare(masked).(*rsrlState).value()
}

// prepare builds the state of masked. Building it is the whole cost of a
// full Risk; every Apply then costs a small fraction of that.
func (o *rsrlOrig) prepare(masked *dataset.Dataset) State {
	if o.orig == nil {
		return nil
	}
	sum := 0
	for _, c := range o.cards {
		sum += c
	}
	st := &rsrlState{
		rsrlOrig: o,
		ints:     make([]int, 3*sum),
		ranks:    make([]float64, sum),
		bits:     stats.NewBitsets(2*sum, o.n),
		counts:   make([]int32, len(o.orig.mult)),
		recHit:   make([]bool, o.n),
	}
	st.viewRows()
	// byCat[a][v] holds the masked records whose value of attribute a is
	// v, read in place. The sets partition the records, so interval
	// unions over them are disjoint unions, which is what lets Apply
	// subtract a category from a union exactly.
	for a, c := range o.attrs {
		for j := range o.n {
			v := masked.At(j, c)
			st.mFreq[a][v]++
			st.byCat[a][v].Set(j)
		}
		stats.MidRanksInto(st.mRanks[a], st.mFreq[a])
		rsrlSweep(o.oRanks[a], st.mRanks[a], o.window, st.lo[a], st.hi[a])
		for u, acc := range st.cand[a] {
			for v := st.lo[a][u]; v <= st.hi[a][u]; v++ {
				acc.OrWith(st.byCat[a][v])
			}
		}
	}
	st.ensureScratch()
	for g := range st.counts {
		st.refreshGroup(int32(g))
	}
	return st
}

// viewRows cuts the backing arrays into the per-attribute rows.
func (st *rsrlState) viewRows() {
	k := len(st.cards)
	ints := rowViews(st.ints, st.cards, 3)
	st.mFreq, st.lo, st.hi = ints[:k:k], ints[k:2*k:2*k], ints[2*k:]
	st.mRanks = rowViews(st.ranks, st.cards, 1)
	bits := rowViews(st.bits, st.cards, 2)
	st.byCat, st.cand = bits[:k:k], bits[k:]
}

// rowViews cuts flat into families consecutive runs of len(cards) rows,
// row a of each run cards[a] long.
func rowViews[T any](flat []T, cards []int, families int) [][]T {
	rows := make([][]T, families*len(cards))
	off := 0
	for i := range rows {
		c := cards[i%len(cards)]
		rows[i] = flat[off : off+c : off+c]
		off += c
	}
	return rows
}

// Prepare implements Incremental: it binds, then prepares.
func (rl *RankIntervalLinkage) Prepare(orig, masked *dataset.Dataset, attrs []int) State {
	return rl.bind(orig, attrs).prepare(masked)
}

// ensureScratch (re)builds the reusable scratch buffers; clones drop them,
// so the first Apply after a branch rebuilds here.
func (st *rsrlState) ensureScratch() {
	if st.scratch == nil {
		st.scratch = stats.NewBitset(st.n)
	}
	if len(st.dirty) < len(st.counts) {
		st.dirty = make([]bool, len(st.counts))
	}
	if len(st.loNew) < st.maxCard {
		st.loNew = make([]int, st.maxCard)
		st.hiNew = make([]int, st.maxCard)
	}
}

// refreshGroup recomputes one group's candidate intersection from the
// current cand bitsets, updating its count and its members' hit flags.
// The final attribute is folded in with the fused AndCount kernel — the
// full intersection bitset is never materialized, saving one word pass
// per refresh; membership tests check the two halves separately.
func (st *rsrlState) refreshGroup(g int32) {
	prof := st.orig.cols
	last := st.cand[len(prof)-1][prof[len(prof)-1][g]]
	if len(prof) == 1 {
		st.counts[g] = int32(last.Count())
		for _, i := range st.members[g] {
			st.recHit[i] = last.Test(int(i))
		}
		return
	}
	sc := st.scratch
	sc.CopyFrom(st.cand[0][prof[0][g]])
	for a := 1; a < len(prof)-1; a++ {
		sc.AndWith(st.cand[a][prof[a][g]])
	}
	st.counts[g] = int32(sc.AndCount(last))
	for _, i := range st.members[g] {
		st.recHit[i] = sc.Test(int(i)) && last.Test(int(i))
	}
}

// hit reports whether masked record r lies in the candidate set of its
// own original profile: the intersection of its group's candidate unions.
func (st *rsrlState) hit(r int) bool {
	g := st.orig.of[r]
	for a, col := range st.orig.cols {
		if !st.cand[a][col[g]].Test(r) {
			return false
		}
	}
	return true
}

// value folds the per-record hits into the measure value, summing credit
// in record order. It is the value of Risk as well as of every Apply.
func (st *rsrlState) value() float64 {
	credit := 0.0
	for i, g := range st.orig.of {
		if st.recHit[i] {
			credit += 1 / float64(st.counts[g])
		}
	}
	return 100 * credit / float64(st.n)
}

// CloneState implements State. Original-file summaries are shared;
// masked-file summaries are deep-copied, one backing array per family;
// scratch stays with the original so clones are independent
// single-goroutine values.
func (s *rsrlState) CloneState() State {
	out := &rsrlState{
		rsrlOrig: s.rsrlOrig,
		ints:     slices.Clone(s.ints),
		ranks:    slices.Clone(s.ranks),
		bits:     stats.CloneBitsets(s.bits),
		counts:   slices.Clone(s.counts),
		recHit:   slices.Clone(s.recHit),
	}
	out.viewRows()
	return out
}

// Apply implements Incremental. A plain Apply commits any pending
// ApplyUndo: the journals are discarded and the changes become
// permanent.
func (rl *RankIntervalLinkage) Apply(state State, changes []dataset.CellChange) float64 {
	st := state.(*rsrlState)
	st.ensureScratch()
	st.disarmUndo()
	st.applyList(changes, nil)
	return st.value()
}

// ApplyUndo implements Reversible: Apply with every mutation journaled
// so Undo can restore the state without recomputation.
func (rl *RankIntervalLinkage) ApplyUndo(state State, changes []dataset.CellChange) float64 {
	st := state.(*rsrlState)
	st.ensureScratch()
	st.ensureUndo()
	st.disarmUndo()
	st.undoActive = true
	st.applyList(changes, &st.undoBits)
	return st.value()
}

// applyList patches the state for a change list, journaling every
// overwritten value when jn is non-nil. A single-cell list moves the
// counts of the groups whose union only flipped the record's bit
// (shiftCounts) and recomputes that record's hit flag; every other
// touched group re-intersects.
func (st *rsrlState) applyList(changes []dataset.CellChange, jn *stats.BitsetJournal) {
	single := len(changes) == 1
	if jn != nil {
		st.undoRec = -1
		if single {
			st.undoRec = int32(changes[0].Row)
			st.undoRecHit = st.recHit[st.undoRec]
		}
	}
	for _, ch := range changes {
		st.applyOne(ch, jn, single)
	}
	for _, g := range st.dirtyList {
		if jn != nil {
			st.undoRefresh = append(st.undoRefresh, rsrlCount{g, st.counts[g]})
			for _, i := range st.members[g] {
				st.undoHits = append(st.undoHits, st.recHit[i])
			}
		}
		st.refreshGroup(g)
		st.dirty[g] = false
	}
	st.dirtyList = st.dirtyList[:0]
	if single {
		r := changes[0].Row
		st.recHit[r] = st.hit(r)
	}
}

// Undo implements Reversible: restore the journaled before-images —
// refreshed groups' counts and hit flags, the moved record's hit flag,
// shifted counts, scalar attribute rows, then the bitset word diffs
// (newest first). No sweeps or intersections run.
func (rl *RankIntervalLinkage) Undo(state State) {
	st := state.(*rsrlState)
	if !st.undoActive {
		return
	}
	st.undoActive = false
	hk := 0
	for _, c := range st.undoRefresh {
		st.counts[c.g] = c.count
		for _, i := range st.members[c.g] {
			st.recHit[i] = st.undoHits[hk]
			hk++
		}
	}
	if st.undoRec >= 0 {
		st.recHit[st.undoRec] = st.undoRecHit
	}
	for _, c := range st.undoShifts {
		st.counts[c.g] = c.count
	}
	off := 0
	for _, a32 := range st.undoAttrs {
		a := int(a32)
		card := st.cards[a]
		copy(st.mFreq[a], st.undoFreq[off:off+card])
		copy(st.mRanks[a], st.undoRanks[off:off+card])
		copy(st.lo[a], st.undoLo[off:off+card])
		copy(st.hi[a], st.undoHi[off:off+card])
		off += card
		st.undoMark[a] = false
	}
	st.undoBits.Revert()
	st.undoAttrs = st.undoAttrs[:0]
	st.undoFreq = st.undoFreq[:0]
	st.undoRanks = st.undoRanks[:0]
	st.undoLo = st.undoLo[:0]
	st.undoHi = st.undoHi[:0]
	st.undoRefresh = st.undoRefresh[:0]
	st.undoHits = st.undoHits[:0]
	st.undoShifts = st.undoShifts[:0]
}

// ensureUndo sizes the per-attribute first-touch marks.
func (st *rsrlState) ensureUndo() {
	if len(st.undoMark) < len(st.cards) {
		st.undoMark = make([]bool, len(st.cards))
	}
}

// disarmUndo discards a pending journal without restoring anything —
// the commit half of the apply/undo protocol.
func (st *rsrlState) disarmUndo() {
	if !st.undoActive {
		return
	}
	st.undoActive = false
	st.undoBits.Reset()
	for _, a := range st.undoAttrs {
		st.undoMark[a] = false
	}
	st.undoAttrs = st.undoAttrs[:0]
	st.undoFreq = st.undoFreq[:0]
	st.undoRanks = st.undoRanks[:0]
	st.undoLo = st.undoLo[:0]
	st.undoHi = st.undoHi[:0]
	st.undoRefresh = st.undoRefresh[:0]
	st.undoHits = st.undoHits[:0]
	st.undoShifts = st.undoShifts[:0]
}

// applyOne patches the state for one cell change: masked record ch.Row of
// attribute ch.Col moves from category ch.Old to ch.New. With a non-nil
// journal every bitset mutation records its word before-images and the
// touched attribute's scalar rows are snapshotted on first touch. Groups
// holding a category whose union changed are marked dirty, except that
// when the change is the list's only one (single), a union that only
// flipped the record's bit shifts its groups' counts in place.
func (st *rsrlState) applyOne(ch dataset.CellChange, jn *stats.BitsetJournal, single bool) {
	if ch.Old == ch.New {
		return
	}
	a := st.pos[ch.Col]
	if jn != nil && !st.undoMark[a] {
		st.undoMark[a] = true
		st.undoAttrs = append(st.undoAttrs, int32(a))
		st.undoFreq = append(st.undoFreq, st.mFreq[a]...)
		st.undoRanks = append(st.undoRanks, st.mRanks[a]...)
		st.undoLo = append(st.undoLo, st.lo[a]...)
		st.undoHi = append(st.undoHi, st.hi[a]...)
	}
	if jn != nil {
		st.byCat[a][ch.Old].ClearJ(ch.Row, jn)
		st.byCat[a][ch.New].SetJ(ch.Row, jn)
	} else {
		st.byCat[a][ch.Old].Clear(ch.Row)
		st.byCat[a][ch.New].Set(ch.Row)
	}
	stats.FreqShift(st.mFreq[a], ch.Old, ch.New)
	stats.MidRanksInto(st.mRanks[a], st.mFreq[a])
	card := st.cards[a]
	loNew, hiNew := st.loNew[:card], st.hiNew[:card]
	rsrlSweep(st.oRanks[a], st.mRanks[a], st.window, loNew, hiNew)
	for u := 0; u < card; u++ {
		loO, hiO := st.lo[a][u], st.hi[a][u]
		loN, hiN := loNew[u], hiNew[u]
		cand := st.cand[a][u]
		// First make cand the union of the *updated* byCat sets over the
		// old interval: only the moved record's membership can differ.
		wasIn := loO <= ch.Old && ch.Old <= hiO
		nowIn := loO <= ch.New && ch.New <= hiO
		flipped := wasIn != nowIn
		if flipped {
			switch {
			case wasIn && jn != nil:
				cand.ClearJ(ch.Row, jn)
			case wasIn:
				cand.Clear(ch.Row)
			case jn != nil:
				cand.SetJ(ch.Row, jn)
			default:
				cand.Set(ch.Row)
			}
		}
		// Then slide the interval: byCat partitions the records, so
		// categories leaving the window subtract exactly and categories
		// entering add.
		slid := loO != loN || hiO != hiN
		if slid {
			for v := loO; v <= hiO; v++ {
				if v < loN || v > hiN {
					if jn != nil {
						cand.AndNotWithJ(st.byCat[a][v], jn)
					} else {
						cand.AndNotWith(st.byCat[a][v])
					}
				}
			}
			for v := loN; v <= hiN; v++ {
				if v < loO || v > hiO {
					if jn != nil {
						cand.OrWithJ(st.byCat[a][v], jn)
					} else {
						cand.OrWith(st.byCat[a][v])
					}
				}
			}
			st.lo[a][u], st.hi[a][u] = loN, hiN
		}
		switch {
		case flipped && single && !slid:
			st.shiftCounts(a, u, ch.Row, nowIn, jn != nil)
		case flipped || slid:
			for _, g := range st.catTuples[a][u] {
				if !st.dirty[g] {
					st.dirty[g] = true
					st.dirtyList = append(st.dirtyList, g)
				}
			}
		}
	}
}

// shiftCounts moves the counts of the groups holding category u of
// attribute a after record r alone entered (added) or left cand[a][u],
// every other union unchanged: a group's candidate intersection gains or
// loses r exactly when r lies in the group's other candidate unions.
// None of these groups is marked for refresh, since a profile holds one
// category of a and the one-cell list touched no other attribute;
// journal records each count it moves.
func (st *rsrlState) shiftCounts(a, u, r int, added, journal bool) {
	step := int32(-1)
	if added {
		step = 1
	}
	prof := st.orig.cols
	for _, g := range st.catTuples[a][u] {
		in := true
		for b, col := range prof {
			if b != a && !st.cand[b][col[g]].Test(r) {
				in = false
				break
			}
		}
		if !in {
			continue
		}
		if journal {
			st.undoShifts = append(st.undoShifts, rsrlCount{g, st.counts[g]})
		}
		st.counts[g] += step
	}
}
