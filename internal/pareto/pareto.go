// Package pareto provides multi-objective utilities over (IL, DR) pairs:
// non-dominated front extraction and the 2-D hypervolume indicator. The
// paper folds both objectives into one score (Eq. 1/Eq. 2) and names
// richer aggregations as future work (§4); the Pareto view is the standard
// lens for judging how well a population covers the trade-off curve. The
// engine's Pareto mode (core.ObjectivePareto) ranks populations under the
// same dominance and finiteness rules — its sweep reads the first front
// off the ranking, so it scores fronts with Hypervolume but never calls
// Front — and the experiment reports use these primitives to compare
// initial and final populations beyond single-score summaries.
//
// Finiteness contract: a pair with a NaN or ±Inf component — a failed or
// degenerate evaluation — takes no part in dominance. Front drops such
// pairs, and Dominates reports false whenever either argument has one.
// Without this rule NaN pairs make the front's sort order depend on input
// order (NaN compares false against everything, so `<`-based sorts place
// it arbitrarily) and can poison the front with points no finite pair is
// allowed to dominate.
package pareto

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"evoprot/internal/score"
)

// Finite reports whether both components of the pair are finite — neither
// NaN nor ±Inf. Only finite pairs participate in dominance; see the
// package contract.
func Finite(p score.Pair) bool {
	return !math.IsNaN(p.IL) && !math.IsInf(p.IL, 0) &&
		!math.IsNaN(p.DR) && !math.IsInf(p.DR, 0)
}

// Front returns the non-dominated subset of the finite pairs, sorted by
// increasing IL (and therefore strictly decreasing DR). A pair p dominates
// q when p.IL <= q.IL and p.DR <= q.DR with at least one strict
// inequality — both objectives are minimized. Duplicates of a front point
// appear once; non-finite pairs are dropped (see the package contract),
// so the result is independent of input order even in their presence.
// Cost: one O(n log n) sort and a linear scan.
func Front(pairs []score.Pair) []score.Pair {
	if len(pairs) == 0 {
		return nil
	}
	sorted := make([]score.Pair, 0, len(pairs))
	for _, p := range pairs {
		if Finite(p) {
			sorted = append(sorted, p)
		}
	}
	if len(sorted) == 0 {
		return nil
	}
	// Sorted by IL ascending then DR ascending, a point belongs to the
	// front exactly when its DR is strictly below every DR seen before it
	// (equal-IL groups contribute only their lowest-DR member).
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].IL != sorted[j].IL {
			return sorted[i].IL < sorted[j].IL
		}
		return sorted[i].DR < sorted[j].DR
	})
	var front []score.Pair
	for _, p := range sorted {
		if len(front) == 0 {
			front = append(front, p)
			continue
		}
		last := front[len(front)-1]
		if p.IL == last.IL || p.DR >= last.DR {
			continue // dominated (or a duplicate of) an existing front point
		}
		front = append(front, p)
	}
	return front
}

// Dominates reports whether p dominates q (both minimized). A pair with a
// non-finite component neither dominates nor is dominated: comparing
// against NaN would otherwise let arbitrary pairs "dominate" a failed
// evaluation — or the reverse — depending on which comparison the NaN
// falls into.
func Dominates(p, q score.Pair) bool {
	if !Finite(p) || !Finite(q) {
		return false
	}
	if p.IL > q.IL || p.DR > q.DR {
		return false
	}
	return p.IL < q.IL || p.DR < q.DR
}

// ErrReference reports a hypervolume reference point that does not bound a
// box: a component is non-finite, zero, or negative.
var ErrReference = errors.New("pareto: reference point must have finite positive components")

// Hypervolume returns the area of the region within the closed rectangle
// [0, ref.IL] x [0, ref.DR] dominated by the pairs. Larger is better: the
// front sits closer to the ideal point (0, 0) and covers more of the
// trade-off plane. Points outside the reference box contribute only the
// part of their dominated region inside the box; a point sitting exactly
// on the far boundary (IL == ref.IL or DR == ref.DR) dominates a
// zero-area sliver and contributes nothing. Non-finite pairs are dropped
// (package contract). A reference point with a non-finite, zero or
// negative component does not bound a box and yields ErrReference.
//
// The area is a staircase sweep over Front(pairs). Pairs that already
// form a front in Front's order — finite, IL strictly increasing, DR
// strictly decreasing, as the engine hands over each generation's front
// — are swept as given: Front would return them unchanged.
func Hypervolume(pairs []score.Pair, ref score.Pair) (float64, error) {
	if !Finite(ref) || ref.IL <= 0 || ref.DR <= 0 {
		return 0, fmt.Errorf("%w: got (%v, %v)", ErrReference, ref.IL, ref.DR)
	}
	front := pairs
	if !isFront(pairs) {
		front = Front(pairs)
	}
	area := 0.0
	lastIL := 0.0
	minDR := ref.DR
	for _, p := range front {
		il, dr := p.IL, p.DR
		if il >= ref.IL {
			break
		}
		if il < 0 {
			il = 0
		}
		if dr < 0 {
			dr = 0
		}
		if dr >= minDR {
			continue
		}
		// Everything in [lastIL, il) is dominated down to the previous
		// staircase level minDR.
		area += (il - lastIL) * (ref.DR - minDR)
		lastIL = il
		minDR = dr
	}
	area += (ref.IL - lastIL) * (ref.DR - minDR)
	return area, nil
}

// isFront reports whether pairs is already its own Front: finite, with IL
// strictly increasing and DR strictly decreasing.
func isFront(pairs []score.Pair) bool {
	for i, p := range pairs {
		if !Finite(p) || (i > 0 && (p.IL <= pairs[i-1].IL || p.DR >= pairs[i-1].DR)) {
			return false
		}
	}
	return true
}
