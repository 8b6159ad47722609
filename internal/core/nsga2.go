package core

// NSGA-II-style Pareto mode (Config.Objective == ObjectivePareto): instead
// of folding (IL, DR) into one aggregated score, the engine ranks the
// population by non-dominated sorting (Deb et al. 2002) and breaks ties
// inside a front by crowding distance. Reproduction selection becomes a
// crowded binary tournament, and replacement becomes mu+lambda
// environmental selection over population + offspring — a child may evict
// any dominated individual, not just its own parent. Evaluation is
// untouched: rank and crowding are computed from the Evaluation.Pair()
// values the delta-evaluation path already produces,
// and the aggregated Score keeps being computed as the in-front
// tie-breaker and the currency of statistics and cross-mode migration.
//
// With two objectives the non-dominated sort is a sweep: one sort of the
// pool by (IL, DR), then one binary search over the fronts per member —
// O(n log n) instead of the pairwise O(n²). A generation ranks once:
// environmental selection ranks and crowds the pool, the survivors keep
// those ranks, and only the truncated front is re-crowded. The sweep
// also leaves every front in (IL, DR) order, so crowding walks each
// front in O(front) instead of sorting it by each objective, and the
// generation's FrontStats needs no further sort. Every buffer is
// engine-owned.
//
// Rank and crowding are derived data, never serialized; construction,
// snapshot/resume and migration re-derive them from the population's
// pairs with a full ranking, so a resumed Pareto run continues the
// identical trajectory (gated by TestParetoSnapshotResume).

import (
	"fmt"
	"math"
	"slices"

	"evoprot/internal/dataset"
	"evoprot/internal/pareto"
	"evoprot/internal/score"
)

// Objective names for Config.Objective.
const (
	// ObjectiveScalar optimizes the single aggregator-combined score —
	// the paper's setup and the default.
	ObjectiveScalar = "scalar"
	// ObjectivePareto optimizes the raw (IL, DR) pair with NSGA-II
	// non-dominated sorting and crowding-distance selection.
	ObjectivePareto = "pareto"
)

// DefaultParetoRef is the hypervolume reference point selected when
// Config.ParetoRef is zero: the (100, 100) worst corner of the measures'
// natural [0,100] x [0,100] range, so the hypervolume is the fraction
// (times 10^4) of the whole trade-off plane the front dominates.
var DefaultParetoRef = score.Pair{IL: 100, DR: 100}

// ObjectiveByName validates an objective name the way engine construction
// would, returning the canonical form. The empty name is valid and means
// ObjectiveScalar — zero configs keep their historical behavior.
func ObjectiveByName(name string) (string, error) {
	switch name {
	case "":
		return "", nil
	case ObjectiveScalar:
		return ObjectiveScalar, nil
	case ObjectivePareto:
		return ObjectivePareto, nil
	default:
		return "", fmt.Errorf("core: unknown objective %q (want scalar|pareto)", name)
	}
}

// FrontStats summarizes one generation's first non-dominated front — the
// Pareto-mode payload of GenStats, results and the event stream.
type FrontStats struct {
	// Size is the number of distinct points on the front.
	Size int
	// Hypervolume is the trade-off-plane area the front dominates within
	// the configured reference box; larger is better.
	Hypervolume float64
	// Pairs are the front's (IL, DR) points, sorted by increasing IL.
	Pairs []score.Pair
}

// paretoMode reports whether the engine runs NSGA-II selection.
func (e *Engine) paretoMode() bool { return e.cfg.Objective == ObjectivePareto }

// frontStats summarizes the current population's non-dominated front and
// scores it against the configured reference point. It reads the
// engine's last ranking, which always describes the current population:
// construction, Resume and Immigrate end in a full ranking of it, and a
// Step's environmental selection ranks the pool the survivors came from.
func (e *Engine) frontStats() FrontStats {
	front := e.nsga.front()
	hv, err := pareto.Hypervolume(front, e.cfg.ParetoRef)
	if err != nil {
		// withDefaults validated the reference point; an error here is a
		// programming error.
		panic(fmt.Sprintf("core: hypervolume against validated reference: %v", err))
	}
	return FrontStats{Size: len(front), Hypervolume: hv, Pairs: front}
}

// nsgaSort ranks a pool by non-dominated sorting and crowds its fronts.
// An engine owns one and reuses its buffers, so a warm engine ranks and
// replaces without allocating. The fronts it returns alias its buffers
// and stay valid until the next ranking.
type nsgaSort struct {
	keys     []sweepKey      // the finite members, sorted by (IL, DR, index)
	rank     []int           // rank by member index
	tops     []score.Pair    // per front, its lowest-DR member's pair
	size     []int           // per front, its member count
	fronts   [][]*Individual // fronts[k] lists front k in input order
	members  []*Individual   // backing store of fronts
	keyed    [][]int         // keyed[k] lists front k's finite members' indices in key order
	keyedBuf []int           // backing store of keyed
	first    []*Individual   // front 0's finite members in key order
	evicted  []*Individual   // the truncated front's evicted tail
	byIL     []*Individual   // crowding's stable IL order of a front
	crowded  []*Individual   // crowding's stable DR order, or the fallback's sort buffer
	order    []int           // the truncated front's indices in crowd order
	pos      []int           // position in order by member index
	kept     []*Individual   // envSelect's survivors
}

// sweepKey is one finite member's sort key in the two-objective sweep.
type sweepKey struct {
	il, dr float64
	i      int
}

func cmpSweepKey(a, b sweepKey) int {
	switch {
	case a.il != b.il:
		return lessCmp(a.il < b.il)
	case a.dr != b.dr:
		return lessCmp(a.dr < b.dr)
	}
	return a.i - b.i
}

// lessCmp turns a strict less-than result into the comparison the
// generic stable sort takes. slices.SortStableFunc runs the algorithm of
// sort.SliceStable and only ever asks whether the comparison is negative
// where sort.SliceStable asked less, so both order any input alike —
// NaN keys included, which no consistent three-way comparison could
// reproduce.
func lessCmp(less bool) int {
	if less {
		return -1
	}
	return 1
}

// assignRanks performs non-dominated sorting over the individuals' (IL,
// DR) pairs: every member of the returned fronts[k] is dominated only by
// members of earlier fronts, and ind.rank is set to k. Within a front,
// individuals keep their input order, so the result — and everything
// built on it — is deterministic for a deterministic input order. A
// non-finite pair neither dominates nor is dominated (pareto.Dominates)
// and ranks 0.
//
// The finite members are swept in (IL, DR, index) order, so everything
// that can dominate a member comes before it, and each member joins the
// first front that does not dominate it. A front dominates p when its
// lowest DR is below p.DR, or equal to it at a lower IL: equal pairs
// never dominate each other, and one front cannot hold two members with
// the same DR and different IL. Whatever dominates a member of front k
// is dominated by a member of front k-1, so the dominating fronts form a
// prefix and a binary search finds the first other one. Cost: one
// O(n log n) sort plus O(n log fronts).
func (s *nsgaSort) assignRanks(inds []*Individual) [][]*Individual {
	n := len(inds)
	s.keys = s.keys[:0]
	s.rank = slices.Grow(s.rank[:0], n)[:n]
	for i, ind := range inds {
		s.rank[i] = 0
		if p := ind.Eval.Pair(); pareto.Finite(p) {
			s.keys = append(s.keys, sweepKey{il: p.IL, dr: p.DR, i: i})
		}
	}
	slices.SortFunc(s.keys, cmpSweepKey)
	s.tops = s.tops[:0]
	for _, k := range s.keys {
		lo, hi := 0, len(s.tops)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if t := s.tops[mid]; t.DR < k.dr || (t.DR == k.dr && t.IL < k.il) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		switch {
		case lo == len(s.tops):
			s.tops = append(s.tops, score.Pair{IL: k.il, DR: k.dr})
		case k.dr < s.tops[lo].DR:
			s.tops[lo] = score.Pair{IL: k.il, DR: k.dr}
		}
		s.rank[k.i] = lo
	}

	nf := len(s.tops)
	if nf == 0 && n > 0 {
		nf = 1 // only non-finite members: all rank 0
	}
	s.size = slices.Grow(s.size[:0], nf)[:nf]
	clear(s.size)
	for _, r := range s.rank {
		s.size[r]++
	}
	s.members = slices.Grow(s.members[:0], n)[:n]
	s.fronts = slices.Grow(s.fronts[:0], nf)[:nf]
	off := 0
	for k, size := range s.size {
		s.fronts[k] = s.members[off : off : off+size]
		off += size
	}
	for i, ind := range inds {
		r := s.rank[i]
		ind.rank = r
		s.fronts[r] = append(s.fronts[r], ind)
	}
	s.keyedBuf = slices.Grow(s.keyedBuf[:0], n)[:n]
	s.keyed = slices.Grow(s.keyed[:0], nf)[:nf]
	off = 0
	for k, size := range s.size {
		s.keyed[k] = s.keyedBuf[off : off : off+size]
		off += size
	}
	for _, k := range s.keys {
		r := s.rank[k.i]
		s.keyed[r] = append(s.keyed[r], k.i)
	}
	s.first = s.first[:0]
	if nf > 0 {
		for _, i := range s.keyed[0] {
			s.first = append(s.first, inds[i])
		}
	}
	s.evicted = nil
	return s.fronts
}

// front returns the distinct (IL, DR) points of the last ranking's first
// front, in increasing IL — pareto.Front of the ranked population, read
// off the sweep order instead of sorted again. Members envSelect evicted
// are skipped.
func (s *nsgaSort) front() []score.Pair {
	var front []score.Pair // nil when empty, like pareto.Front
	for _, ind := range s.first {
		if slices.Contains(s.evicted, ind) {
			continue
		}
		p := ind.Eval.Pair()
		if len(front) > 0 && front[len(front)-1] == p {
			continue // a duplicate of the previous point
		}
		if front == nil {
			front = make([]score.Pair, 0, len(s.first))
		}
		front = append(front, p)
	}
	return front
}

// crowdFront assigns the NSGA-II crowding distance of front r of the
// last ranking of inds: boundary points of each objective get +Inf,
// interior points accumulate the normalized gap between their neighbors.
// Larger means less crowded and is preferred, which pressures the front
// to spread across the trade-off curve instead of clumping.
//
// The distances are those of two stable sorts of the front in input
// order, first by IL, then that order by DR, read off the sweep instead.
// In a front of finite pairs equal IL implies an equal pair (the lower
// DR would dominate), so the stable IL order is the key order restricted
// to the front, and the stable DR order is that order's blocks of equal
// pairs, last block first. A front with a non-finite pair takes
// assignCrowding's two stable sorts: where NaN sits is up to the sort.
func (s *nsgaSort) crowdFront(inds []*Individual, r int) {
	f, keyed := s.fronts[r], s.keyed[r]
	if len(keyed) < len(f) {
		s.assignCrowding(f)
		return
	}
	byIL := s.byIL[:0]
	for _, i := range keyed {
		byIL = append(byIL, inds[i])
	}
	s.byIL = byIL
	s.crowdSwept(byIL)
}

// crowdSwept assigns the crowding distances of a finite front given in
// its stable IL order, in O(front).
func (s *nsgaSort) crowdSwept(byIL []*Individual) {
	if boundaryOnly(byIL) {
		return
	}
	crowdAxis(byIL, 0)
	byDR := s.crowded[:0]
	for hi := len(byIL); hi > 0; {
		lo := hi - 1
		for lo > 0 && byIL[lo-1].Eval.Pair() == byIL[hi-1].Eval.Pair() {
			lo--
		}
		byDR = append(byDR, byIL[lo:hi]...)
		hi = lo
	}
	s.crowded = byDR
	crowdAxis(byDR, 1)
}

// assignCrowding is crowdFront's fallback for a front holding a
// non-finite pair: the front's order is untouched, and the DR pass sorts
// the IL pass's order, so ties — NaN keys included — resolve as they
// always have. Cost: two stable sorts of the front.
func (s *nsgaSort) assignCrowding(front []*Individual) {
	if boundaryOnly(front) {
		return
	}
	c := append(s.crowded[:0], front...)
	s.crowded = c
	for axis := 0; axis < 2; axis++ {
		slices.SortStableFunc(c, func(a, b *Individual) int {
			return lessCmp(objective(a, axis) < objective(b, axis))
		})
		crowdAxis(c, axis)
	}
}

// boundaryOnly resets a front's crowding to zero, or to +Inf when it has
// at most two members, which are all boundary points; it reports the
// latter.
func boundaryOnly(front []*Individual) bool {
	crowd := 0.0
	if len(front) <= 2 {
		crowd = math.Inf(1)
	}
	for _, ind := range front {
		ind.crowd = crowd
	}
	return len(front) <= 2
}

// crowdAxis adds one objective's share to the crowding of a front listed
// in that objective's stable ascending order.
func crowdAxis(c []*Individual, axis int) {
	lo, hi := objective(c[0], axis), objective(c[len(c)-1], axis)
	c[0].crowd = math.Inf(1)
	c[len(c)-1].crowd = math.Inf(1)
	if span := hi - lo; span > 0 {
		for i := 1; i < len(c)-1; i++ {
			c[i].crowd += (objective(c[i+1], axis) - objective(c[i-1], axis)) / span
		}
	}
}

// objective returns an individual's IL (axis 0) or DR (axis 1).
func objective(ind *Individual, axis int) float64 {
	if axis == 0 {
		return ind.Eval.IL
	}
	return ind.Eval.DR
}

// refreshPareto re-derives rank and crowding for the current population.
func (e *Engine) refreshPareto() {
	for r := range e.nsga.assignRanks(e.pop) {
		e.nsga.crowdFront(e.pop, r)
	}
}

// envSelect is NSGA-II environmental (mu+lambda) selection: the pool is
// non-dominated sorted, whole fronts are admitted best-first, and the
// first front that does not fit is truncated by descending crowding
// distance (ties keep pool order, so the survivor set is deterministic).
// Rank and crowding of the pool are (re)assigned as a side effect, and
// the survivors leave with exactly the rank and crowding a fresh ranking
// of them in the returned order would give: every dominator of a kept
// member sits in an earlier, whole front, so ranks carry over, and whole
// fronts keep their members and order, so only the truncated front is
// re-crowded. The returned slice is the sorter's buffer.
func (s *nsgaSort) envSelect(pool []*Individual, n int) []*Individual {
	kept := s.kept[:0]
	for r, f := range s.assignRanks(pool) {
		s.crowdFront(pool, r)
		if len(kept)+len(f) <= n {
			kept = append(kept, f...)
			continue
		}
		cut := n - len(kept)
		s.truncate(pool, r, cut)
		kept = append(kept, f[:cut]...)
		s.evicted = f[cut:]
		break
	}
	s.kept = kept
	return kept
}

// truncate reorders front r of the last ranking of pool by descending
// crowding distance, ties in pool order, and re-crowds its first cut
// members, the survivors. Their stable IL order is the key order with
// each block of equal pairs in crowd order (the blocks of keyed[r] are
// sorted in place); a front with a non-finite pair is re-crowded by
// assignCrowding instead.
func (s *nsgaSort) truncate(pool []*Individual, r, cut int) {
	f, keyed := s.fronts[r], s.keyed[r]
	order := s.order[:0]
	for i, rank := range s.rank {
		if rank == r {
			order = append(order, i)
		}
	}
	slices.SortStableFunc(order, func(a, b int) int { return lessCmp(pool[a].crowd > pool[b].crowd) })
	s.order = order
	s.pos = slices.Grow(s.pos[:0], len(pool))[:len(pool)]
	for j, i := range order {
		f[j] = pool[i]
		s.pos[i] = j
	}
	if len(keyed) < len(f) {
		s.assignCrowding(f[:cut])
		return
	}
	byIL := s.byIL[:0]
	for lo := 0; lo < len(keyed); {
		hi := lo + 1
		for hi < len(keyed) && pool[keyed[hi]].Eval.Pair() == pool[keyed[lo]].Eval.Pair() {
			hi++
		}
		block := keyed[lo:hi]
		slices.SortFunc(block, func(a, b int) int { return s.pos[a] - s.pos[b] })
		for _, i := range block {
			if s.pos[i] < cut {
				byIL = append(byIL, pool[i])
			}
		}
		lo = hi
	}
	s.byIL = byIL
	s.crowdSwept(byIL)
}

func containsIndividual(s []*Individual, ind *Individual) bool {
	for _, k := range s {
		if k == ind {
			return true
		}
	}
	return false
}

// paretoReplace is Pareto mode's replacement step: environmental selection
// over population + children, leaving the survivors ranked and crowded
// for sortRanked. Surviving children receive their files (see
// commitSurvivor) and delta states here — the states transferred
// without a clone when the biological parent was itself
// evicted, cloned when it survived; when two surviving children share one
// evicted parent the first (by child index) takes the state and the
// second rebuilds lazily, deterministically.
func (e *Engine) paretoReplace(parents, children []*Individual, changes [][]dataset.CellChange) (accepted int) {
	pool := append(append(e.poolBuf[:0], e.pop...), children...)
	e.poolBuf = pool
	kept := e.nsga.envSelect(pool, len(e.pop))
	for i, c := range children {
		if !containsIndividual(kept, c) {
			continue
		}
		accepted++
		e.commitSurvivor(c, parents[i], changes[i], !containsIndividual(kept, parents[i]))
	}
	e.pop = append(e.pop[:0], kept...)
	return accepted
}

// selectIndexPareto is the crowded binary tournament: two uniform draws,
// lower rank wins, crowding distance breaks rank ties (larger is better),
// and the lower population index — the better aggregated score, since
// Pareto mode sorts by (rank, score) — breaks exact ties.
func (e *Engine) selectIndexPareto() int {
	a := e.rng.IntN(len(e.pop))
	b := e.rng.IntN(len(e.pop))
	if e.crowdedLess(b, a) {
		return b
	}
	return a
}

// crowdedLess reports whether pop[i] beats pop[j] under the crowded
// comparison operator.
func (e *Engine) crowdedLess(i, j int) bool {
	pi, pj := e.pop[i], e.pop[j]
	if pi.rank != pj.rank {
		return pi.rank < pj.rank
	}
	if pi.crowd != pj.crowd {
		return pi.crowd > pj.crowd
	}
	return i < j
}
