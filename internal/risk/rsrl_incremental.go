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
//     file and therefore static: records are grouped once in Prepare, by
//     groupOriginal as DBRL and PRL group them, and the state keeps only
//     that compact grouping of the original file — its tuple columns are
//     the profiles, its record map the groups. Only groups whose profile
//     holds a category whose candidate union changed can change; all
//     others keep their counts. A union whose window slid gains or loses
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
	"evoprot/internal/dataset"
	"evoprot/internal/stats"
)

// rsrlGroup is one equivalence class of original records sharing a
// protected-attribute profile, together with the size of the profile's
// candidate set under the current masked file. Group g's profile is
// orig.cols[·][g] of the state's original grouping.
type rsrlGroup struct {
	count   int32   // |candidate intersection| for this profile
	members []int32 // records with this profile (shared, immutable)
}

// rsrlCount is a journaled group count.
type rsrlCount struct {
	g, count int32
}

// rsrlState is the incremental state of RankIntervalLinkage for one masked
// file. See the file comment for the update strategy.
type rsrlState struct {
	n      int
	window float64
	pos    map[int]int // protected column -> attribute position

	// Original-file summaries: immutable, shared across clones. orig is
	// the original records grouped by profile (groupOriginal): orig.of
	// maps each record to its group and orig.cols[a][g] is group g's
	// category of attribute a.
	orig        *tupleGroups
	cards       []int
	oRanks      [][]float64
	byCatGroups [][][]int32 // attr position -> category -> groups holding it

	// Masked-file summaries: owned, deep-copied by CloneState.
	mFreq  [][]int
	mRanks [][]float64
	lo, hi [][]int
	byCat  [][]*stats.Bitset // partition of masked records by category
	cand   [][]*stats.Bitset // per original category: ∪ byCat over [lo,hi]
	groups []rsrlGroup       // count owned; members shared
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

// Prepare implements Incremental. Building the state is the whole cost of
// a full Risk; every Apply then costs a small fraction of that.
func (rl *RankIntervalLinkage) Prepare(orig, masked *dataset.Dataset, attrs []int) State {
	n := orig.Rows()
	if n == 0 || len(attrs) == 0 {
		return nil
	}
	st := &rsrlState{
		n:      n,
		window: rl.pOrDefault() * float64(n) / 100,
		pos:    make(map[int]int, len(attrs)),
		orig:   groupOriginal(orig, attrs),
		cards:  orig.Schema().Cardinalities(attrs),
	}
	st.oRanks = make([][]float64, len(attrs))
	st.mFreq = make([][]int, len(attrs))
	st.mRanks = make([][]float64, len(attrs))
	st.lo = make([][]int, len(attrs))
	st.hi = make([][]int, len(attrs))
	st.byCat = make([][]*stats.Bitset, len(attrs))
	st.cand = make([][]*stats.Bitset, len(attrs))
	for a, c := range attrs {
		st.pos[c] = a
		card := st.cards[a]
		st.oRanks[a] = stats.MidRanks(columnFreq(orig, c, card))
		st.mFreq[a] = columnFreq(masked, c, card)
		st.mRanks[a] = stats.MidRanks(st.mFreq[a])
		st.lo[a] = make([]int, card)
		st.hi[a] = make([]int, card)
		rsrlSweep(st.oRanks[a], st.mRanks[a], st.window, st.lo[a], st.hi[a])
		st.byCat[a] = rsrlByCat(masked, c, card)
		st.cand[a] = rsrlUnions(st.byCat[a], st.lo[a], st.hi[a], n)
	}
	st.buildGroups()
	st.ensureScratch()
	for g := range st.groups {
		st.refreshGroup(int32(g))
	}
	return st
}

// buildGroups lists the members of every group of the (static) original
// grouping and indexes the groups by the categories they hold, so a
// change can invalidate exactly the groups it affects.
func (st *rsrlState) buildGroups() {
	o := st.orig
	st.recHit = make([]bool, st.n)
	st.groups = make([]rsrlGroup, len(o.mult))
	for g, members := range buckets(o.of, len(o.mult)) {
		st.groups[g].members = members
	}
	st.byCatGroups = make([][][]int32, len(o.cols))
	for a, col := range o.cols {
		st.byCatGroups[a] = buckets(col, st.cards[a])
	}
}

// buckets lists, for every k < num, the positions i with keys[i] == k in
// increasing order. One counting pass sizes the lists, which share one
// backing array.
func buckets[K int | int32](keys []K, num int) [][]int32 {
	end := make([]int, num+1)
	for _, k := range keys {
		end[k+1]++
	}
	for k := 1; k <= num; k++ {
		end[k] += end[k-1]
	}
	flat := make([]int32, len(keys))
	out := make([][]int32, num)
	for k := range out {
		out[k] = flat[end[k]:end[k]:end[k+1]]
	}
	for i, k := range keys {
		out[k] = append(out[k], int32(i))
	}
	return out
}

// ensureScratch (re)builds the reusable scratch buffers; clones drop them,
// so the first Apply after a branch rebuilds here.
func (st *rsrlState) ensureScratch() {
	if st.scratch == nil {
		st.scratch = stats.NewBitset(st.n)
	}
	if len(st.dirty) < len(st.groups) {
		st.dirty = make([]bool, len(st.groups))
	}
	maxCard := 0
	for _, c := range st.cards {
		if c > maxCard {
			maxCard = c
		}
	}
	if len(st.loNew) < maxCard {
		st.loNew = make([]int, maxCard)
		st.hiNew = make([]int, maxCard)
	}
}

// refreshGroup recomputes one group's candidate intersection from the
// current cand bitsets, updating its count and its members' hit flags.
// The final attribute is folded in with the fused AndCount kernel — the
// full intersection bitset is never materialized, saving one word pass
// per refresh; membership tests check the two halves separately.
func (st *rsrlState) refreshGroup(g int32) {
	grp := &st.groups[g]
	prof := st.orig.cols
	last := st.cand[len(prof)-1][prof[len(prof)-1][g]]
	if len(prof) == 1 {
		grp.count = int32(last.Count())
		for _, i := range grp.members {
			st.recHit[i] = last.Test(int(i))
		}
		return
	}
	sc := st.scratch
	sc.CopyFrom(st.cand[0][prof[0][g]])
	for a := 1; a < len(prof)-1; a++ {
		sc.AndWith(st.cand[a][prof[a][g]])
	}
	grp.count = int32(sc.AndCount(last))
	for _, i := range grp.members {
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
			credit += 1 / float64(st.groups[g].count)
		}
	}
	return 100 * credit / float64(st.n)
}

// CloneState implements State. Original-file summaries are shared;
// masked-file summaries are deep-copied; scratch stays with the original
// so clones are independent single-goroutine values.
func (s *rsrlState) CloneState() State {
	out := &rsrlState{
		n: s.n, window: s.window, pos: s.pos,
		orig: s.orig, cards: s.cards, oRanks: s.oRanks,
		byCatGroups: s.byCatGroups,
	}
	out.mFreq = make([][]int, len(s.mFreq))
	out.mRanks = make([][]float64, len(s.mRanks))
	out.lo = make([][]int, len(s.lo))
	out.hi = make([][]int, len(s.hi))
	out.byCat = make([][]*stats.Bitset, len(s.byCat))
	out.cand = make([][]*stats.Bitset, len(s.cand))
	for a := range s.mFreq {
		out.mFreq[a] = append([]int(nil), s.mFreq[a]...)
		out.mRanks[a] = append([]float64(nil), s.mRanks[a]...)
		out.lo[a] = append([]int(nil), s.lo[a]...)
		out.hi[a] = append([]int(nil), s.hi[a]...)
		out.byCat[a] = cloneBitsets(s.byCat[a])
		out.cand[a] = cloneBitsets(s.cand[a])
	}
	out.groups = append([]rsrlGroup(nil), s.groups...)
	out.recHit = append([]bool(nil), s.recHit...)
	return out
}

func cloneBitsets(in []*stats.Bitset) []*stats.Bitset {
	out := make([]*stats.Bitset, len(in))
	for i, b := range in {
		out[i] = b.Clone()
	}
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
			grp := &st.groups[g]
			st.undoRefresh = append(st.undoRefresh, rsrlCount{g, grp.count})
			for _, i := range grp.members {
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
		grp := &st.groups[c.g]
		grp.count = c.count
		for _, i := range grp.members {
			st.recHit[i] = st.undoHits[hk]
			hk++
		}
	}
	if st.undoRec >= 0 {
		st.recHit[st.undoRec] = st.undoRecHit
	}
	for _, c := range st.undoShifts {
		st.groups[c.g].count = c.count
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
			for _, g := range st.byCatGroups[a][u] {
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
	for _, g := range st.byCatGroups[a][u] {
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
			st.undoShifts = append(st.undoShifts, rsrlCount{g, st.groups[g].count})
		}
		st.groups[g].count += step
	}
}
