package core

// NSGA-II-style Pareto mode (Config.Objective == ObjectivePareto): instead
// of folding (IL, DR) into one aggregated score, the engine ranks the
// population by fast non-dominated sorting (Deb et al. 2002) and breaks
// ties inside a front by crowding distance. Reproduction selection becomes
// a crowded binary tournament, and replacement becomes mu+lambda
// environmental selection over population + offspring — a child may evict
// any dominated individual, not just its own parent. Evaluation is
// untouched: rank and crowding are computed from the Evaluation.Pair()
// values the (possibly batched) delta-evaluation path already produces,
// and the aggregated Score keeps being computed as the in-front
// tie-breaker and the currency of statistics and cross-mode migration.
//
// Rank and crowding are derived data. They are recomputed on every
// population sort and never serialized; snapshot/resume re-derives them
// from the restored pairs, so a resumed Pareto run continues the identical
// trajectory (gated by TestParetoSnapshotResume).

import (
	"fmt"
	"math"
	"sort"

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

// frontStats extracts the current population's non-dominated front and
// scores it against the configured reference point.
func (e *Engine) frontStats() FrontStats {
	e.pairBuf = e.pairBuf[:0]
	for _, ind := range e.pop {
		e.pairBuf = append(e.pairBuf, ind.Eval.Pair())
	}
	front := pareto.Front(e.pairBuf)
	hv, err := pareto.Hypervolume(front, e.cfg.ParetoRef)
	if err != nil {
		// withDefaults validated the reference point; an error here is a
		// programming error.
		panic(fmt.Sprintf("core: hypervolume against validated reference: %v", err))
	}
	return FrontStats{Size: len(front), Hypervolume: hv, Pairs: front}
}

// assignRanks performs fast non-dominated sorting over the individuals'
// (IL, DR) pairs: every member of the returned fronts[k] is dominated only
// by members of earlier fronts, and ind.rank is set to k. Within a front,
// individuals keep their input order, so the result — and everything
// built on it — is deterministic for a deterministic input order.
func assignRanks(inds []*Individual) [][]*Individual {
	n := len(inds)
	domCount := make([]int, n)
	dominated := make([][]int, n)
	for i := 0; i < n; i++ {
		pi := inds[i].Eval.Pair()
		for j := i + 1; j < n; j++ {
			pj := inds[j].Eval.Pair()
			switch {
			case pareto.Dominates(pi, pj):
				dominated[i] = append(dominated[i], j)
				domCount[j]++
			case pareto.Dominates(pj, pi):
				dominated[j] = append(dominated[j], i)
				domCount[i]++
			}
		}
	}
	var fronts [][]*Individual
	current := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if domCount[i] == 0 {
			current = append(current, i)
		}
	}
	rank := 0
	for len(current) > 0 {
		front := make([]*Individual, len(current))
		var next []int
		for k, i := range current {
			inds[i].rank = rank
			front[k] = inds[i]
			for _, j := range dominated[i] {
				domCount[j]--
				if domCount[j] == 0 {
					next = append(next, j)
				}
			}
		}
		sort.Ints(next) // restore input order within the next front
		fronts = append(fronts, front)
		current = next
		rank++
	}
	return fronts
}

// assignCrowding computes the NSGA-II crowding distance of one front:
// boundary points of each objective get +Inf, interior points accumulate
// the normalized gap between their neighbors. Larger means less crowded
// and is preferred, which pressures the front to spread across the
// trade-off curve instead of clumping.
func assignCrowding(front []*Individual) {
	for _, ind := range front {
		ind.crowd = 0
	}
	if len(front) <= 2 {
		for _, ind := range front {
			ind.crowd = math.Inf(1)
		}
		return
	}
	s := make([]*Individual, len(front))
	copy(s, front)
	for _, value := range []func(*Individual) float64{
		func(ind *Individual) float64 { return ind.Eval.IL },
		func(ind *Individual) float64 { return ind.Eval.DR },
	} {
		sort.SliceStable(s, func(i, j int) bool { return value(s[i]) < value(s[j]) })
		lo, hi := value(s[0]), value(s[len(s)-1])
		s[0].crowd = math.Inf(1)
		s[len(s)-1].crowd = math.Inf(1)
		if span := hi - lo; span > 0 {
			for i := 1; i < len(s)-1; i++ {
				s[i].crowd += (value(s[i+1]) - value(s[i-1])) / span
			}
		}
	}
}

// refreshPareto re-derives rank and crowding for the current population.
func (e *Engine) refreshPareto() {
	for _, f := range assignRanks(e.pop) {
		assignCrowding(f)
	}
}

// envSelect is NSGA-II environmental (mu+lambda) selection: the pool is
// non-dominated sorted, whole fronts are admitted best-first, and the
// first front that does not fit is truncated by descending crowding
// distance (ties keep pool order, so the survivor set is deterministic).
// Rank and crowding of the pool are (re)assigned as a side effect.
func envSelect(pool []*Individual, n int) []*Individual {
	kept := make([]*Individual, 0, n)
	for _, f := range assignRanks(pool) {
		assignCrowding(f)
		if len(kept)+len(f) <= n {
			kept = append(kept, f...)
			continue
		}
		sort.SliceStable(f, func(i, j int) bool { return f[i].crowd > f[j].crowd })
		kept = append(kept, f[:n-len(kept)]...)
		break
	}
	return kept
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
// over population + children. Surviving children receive their delta
// states here — transferred without a clone when the biological parent
// was itself evicted, cloned when it survived; when two surviving children
// share one evicted parent the first (by child index) takes the state and
// the second rebuilds lazily, deterministically.
func (e *Engine) paretoReplace(parents, children []*Individual, changes [][]dataset.CellChange) (accepted int) {
	pool := make([]*Individual, 0, len(e.pop)+len(children))
	pool = append(pool, e.pop...)
	pool = append(pool, children...)
	kept := envSelect(pool, len(e.pop))
	for i, c := range children {
		if !containsIndividual(kept, c) {
			continue
		}
		accepted++
		e.commitBatchState(c, parents[i], changes[i], !containsIndividual(kept, parents[i]))
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
