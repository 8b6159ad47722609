package risk

import (
	"math"

	"evoprot/internal/dataset"
)

// ProbabilisticLinkage is Fellegi–Sunter probabilistic record linkage
// (PRL): agreement patterns between original and masked records are scored
// by the likelihood ratio of "pair is a true match" against "pair is
// random", with the per-attribute match probabilities m and non-match
// probabilities u estimated by expectation-maximization over all n² pairs
// under the usual conditional-independence assumption. Every original
// record links to the masked record(s) with the highest total log-ratio
// weight; the true counterpart among them earns fractional credit. The
// result is the percentage of re-identified records.
type ProbabilisticLinkage struct {
	// EMIters is the number of EM iterations; defaults to 30, which is
	// plenty for the ≤2^len(attrs) distinct agreement patterns.
	EMIters int
}

// MaxPRLAttrs is the most protected attributes ProbabilisticLinkage
// links over: its agreement patterns index 2^attrs-entry tables.
const MaxPRLAttrs = 16

// errPRLAttrs is the panic of a PRL Risk over more than MaxPRLAttrs
// attributes.
const errPRLAttrs = "risk: probabilistic linkage over more than MaxPRLAttrs attributes"

// Name implements Measure.
func (pl *ProbabilisticLinkage) Name() string { return "PRL" }

// Risk implements Measure.
func (pl *ProbabilisticLinkage) Risk(orig, masked *dataset.Dataset, attrs []int) float64 {
	iters := pl.EMIters
	if iters <= 0 {
		iters = 30
	}
	n := orig.Rows()
	if n == 0 || len(attrs) == 0 {
		return 0
	}
	if len(attrs) > MaxPRLAttrs {
		// Callers validate the attribute count (score.NewEvaluator does).
		panic(errPRLAttrs)
	}
	lg := linkGroupsPool.Get().(*linkGroups)
	defer linkGroupsPool.Put(lg)
	lg.orig.group(orig, attrs)
	return prlGrouped(lg, &lg.em, &lg.orig, masked, attrs, iters)
}

// prlGrouped is PRL of the original records grouped in o against the
// masked records, read in place from the columns cols of masked, with
// iters EM iterations. It is the kernel of full Risk, which passes the
// masked file at the protected attributes and either its pooled grouping
// (unbound) or the shared one (bound), and of the delta state's wide
// edits, which pass the shared grouping and the state's masked
// projection; em is the caller's EM scratch. Agreement patterns depend
// only on tuples, so it groups the masked records into lg first
// (grouped.go).
func prlGrouped(lg *linkGroups, em *emScratch, o *tupleGroups, masked *dataset.Dataset, cols []int, iters int) float64 {
	// Tally agreement patterns over all n² pairs, n of them true matches.
	n := float64(len(o.of))
	lg.masked.group(masked, cols)
	em.size(len(cols))
	clear(em.patCount)
	lg.tally(o, em.patCount)
	weights := em.matchWeights(em.patCount, n*n, n, iters)
	lg.strongest(o, weights)
	lg.tuple = resize(lg.tuple, len(cols))
	credit := 0.0
	for i, g := range o.of {
		// The true counterpart is among the strongest links.
		readTuple(lg.tuple, masked, cols, i)
		if weights[o.pattern(int(g), lg.tuple)] == lg.bestW[g] {
			credit += 1 / float64(lg.count[g])
		}
	}
	return 100 * credit / n
}

// emScratch holds the buffers of one PRL linkage: a pattern tally, the
// EM estimates and accumulators, and the per-pattern match weights.
type emScratch struct {
	patCount, weights []float64
	m, u, mNum, uNum  []float64
}

// size shapes the buffers for numAttrs attributes, reallocating only when
// the shape changes.
func (s *emScratch) size(numAttrs int) {
	if len(s.m) == numAttrs {
		return
	}
	numPat := 1 << numAttrs
	s.patCount, s.weights = make([]float64, numPat), make([]float64, numPat)
	s.m, s.u = make([]float64, numAttrs), make([]float64, numAttrs)
	s.mNum, s.uNum = make([]float64, numAttrs), make([]float64, numAttrs)
}

// matchWeights estimates m and u by EM over the pattern tally patCount
// and returns each pattern's match weight: the sum of its per-attribute
// log likelihood ratios. The buffers must be sized.
func (s *emScratch) matchWeights(patCount []float64, totalPairs, trueMatches float64, iters int) []float64 {
	m, u := s.m, s.u
	emEstimateInto(m, u, s.mNum, s.uNum, patCount, totalPairs, trueMatches, iters)
	for pat := range s.weights {
		w := 0.0
		for a := range m {
			if pat&(1<<a) != 0 {
				w += math.Log2(m[a] / u[a])
			} else {
				w += math.Log2((1 - m[a]) / (1 - u[a]))
			}
		}
		s.weights[pat] = w
	}
	return s.weights
}

// emEstimateInto runs EM for the two-class mixture over agreement
// patterns and returns the match-class prevalence p; trueMatches seeds
// the prevalence at its known value (n matches among n² pairs). Every PRL
// linkage runs it through emScratch, allocation-free: m and u receive the
// per-attribute match and non-match probabilities, and mNum and uNum are
// per-iteration accumulators. All four must hold numAttrs elements.
func emEstimateInto(m, u, mNum, uNum, patCount []float64, totalPairs, trueMatches float64, iters int) (p float64) {
	numAttrs := len(m)
	p = trueMatches / totalPairs
	// Initialize m optimistically and u at the overall agreement rate.
	for a := 0; a < numAttrs; a++ {
		m[a] = 0.9
		agree := 0.0
		for pat, c := range patCount {
			if pat&(1<<a) != 0 {
				agree += c
			}
		}
		u[a] = clampProb(agree / totalPairs)
	}
	for it := 0; it < iters; it++ {
		sumG, sumNG := 0.0, 0.0
		for a := 0; a < numAttrs; a++ {
			mNum[a], uNum[a] = 0, 0
		}
		for pat, c := range patCount {
			if c == 0 {
				continue
			}
			pm, pu := 1.0, 1.0
			for a := 0; a < numAttrs; a++ {
				if pat&(1<<a) != 0 {
					pm *= m[a]
					pu *= u[a]
				} else {
					pm *= 1 - m[a]
					pu *= 1 - u[a]
				}
			}
			denom := p*pm + (1-p)*pu
			if denom <= 0 {
				continue
			}
			g := p * pm / denom
			sumG += g * c
			sumNG += (1 - g) * c
			for a := 0; a < numAttrs; a++ {
				if pat&(1<<a) != 0 {
					mNum[a] += g * c
					uNum[a] += (1 - g) * c
				}
			}
		}
		if sumG <= 0 || sumNG <= 0 {
			break
		}
		p = clampProb(sumG / totalPairs)
		for a := 0; a < numAttrs; a++ {
			m[a] = clampProb(mNum[a] / sumG)
			u[a] = clampProb(uNum[a] / sumNG)
		}
	}
	return p
}

// clampProb keeps probabilities strictly inside (0,1) so log-ratios stay
// finite.
func clampProb(x float64) float64 {
	const eps = 1e-6
	if x < eps {
		return eps
	}
	if x > 1-eps {
		return 1 - eps
	}
	return x
}
