// Package infoloss implements the three information-loss measures the
// paper aggregates into its fitness function (§2.3.1):
//
//   - CTBIL, contingency-table-based information loss (Torra &
//     Domingo-Ferrer 2001): how far the masked file's joint frequency
//     tables drift from the original's.
//   - DBIL, distance-based information loss (Torra & Domingo-Ferrer 2001):
//     average per-cell distance between original and masked values.
//   - EBIL, entropy-based information loss (Kooiman, Willenborg &
//     Gouweleeuw 1998): the uncertainty about original values given the
//     masked file, estimated from the empirical transition distribution.
//
// Every measure returns a value in [0,100]; 0 means the masked file is
// analytically indistinguishable from the original. The paper's IL term is
// the plain average of the three, which package score takes.
package infoloss

import (
	"math"

	"evoprot/internal/dataset"
	"evoprot/internal/stats"
)

// Measure is a single information-loss measure over the protected
// attributes. Implementations must be pure functions of their arguments.
type Measure interface {
	// Name identifies the measure in reports, e.g. "CTBIL".
	Name() string
	// Loss returns the information loss in [0,100] incurred by masked
	// relative to orig over the given attribute indices. Both datasets
	// must share the schema and row count.
	Loss(orig, masked *dataset.Dataset, attrs []int) float64
}

// Default returns the paper's information-loss battery: CTBIL over tables
// up to dimension 2, DBIL, and EBIL.
func Default() []Measure {
	return []Measure{&CTBIL{MaxDim: 2}, &DBIL{}, &EBIL{}}
}

// CTBIL is contingency-table-based information loss: for every subset of
// the protected attributes up to MaxDim attributes, it compares the joint
// frequency table of the original and masked files and accumulates the L1
// distance, normalized by the maximum possible distance (2n per table) and
// averaged over tables, scaled to [0,100].
type CTBIL struct {
	// MaxDim bounds the contingency-table order; 2 (all one-way and
	// two-way tables) is the standard choice and the package default.
	MaxDim int
}

// Name implements Measure.
func (c *CTBIL) Name() string { return "CTBIL" }

// maxDimOrDefault resolves the effective table-order bound.
func (c *CTBIL) maxDimOrDefault() int {
	if c.MaxDim <= 0 {
		return 2
	}
	return c.MaxDim
}

// Loss implements Measure. It binds, then reads (ctbilOrig in
// incremental.go), so full and delta evaluation tabulate the original
// the same way.
func (c *CTBIL) Loss(orig, masked *dataset.Dataset, attrs []int) float64 {
	return c.bind(orig, attrs).loss(masked)
}

// ctbilValue folds the per-table L1 distances into the measure value. Both
// the full and the incremental path end here, with identical float
// operations in identical order, so delta evaluation is bit-for-bit equal
// to a full recompute.
func ctbilValue(l1 []int, n int) float64 {
	totalNorm := 0.0
	for _, d := range l1 {
		totalNorm += float64(d) / float64(2*n)
	}
	return 100 * totalNorm / float64(len(l1))
}

// DBIL is distance-based information loss: the mean per-cell distance
// between original and masked values over the protected attributes, scaled
// to [0,100]. For ordered attributes the distance between categories i and
// j is |i-j|/(card-1) — rank displacement matters; for nominal attributes
// it is 0/1.
type DBIL struct{}

// Name implements Measure.
func (d *DBIL) Name() string { return "DBIL" }

// Loss implements Measure.
func (d *DBIL) Loss(orig, masked *dataset.Dataset, attrs []int) float64 {
	n := orig.Rows()
	if n == 0 || len(attrs) == 0 {
		return 0
	}
	return dbilValue(orig.Schema(), attrs, dbilSums(orig, masked, attrs), n)
}

// dbilSums returns, per attribute, the exact distance sum between the
// two files' cells: rank displacements for an ordered attribute,
// mismatches for a nominal one. Shared by Loss and the delta state's
// Prepare.
func dbilSums(orig, masked *dataset.Dataset, attrs []int) []int64 {
	sums := make([]int64, len(attrs))
	for a, c := range attrs {
		attr := orig.Schema().Attr(c)
		if attr.Ordered() && attr.Cardinality() > 1 {
			for r := range orig.Rows() {
				sums[a] += int64(stats.AbsInt(orig.At(r, c) - masked.At(r, c)))
			}
		} else {
			for r := range orig.Rows() {
				if orig.At(r, c) != masked.At(r, c) {
					sums[a]++
				}
			}
		}
	}
	return sums
}

// dbilValue folds the exact per-attribute distance sums — rank
// displacements for ordered attributes, mismatch counts for nominal ones —
// into the measure value. Shared by the full and incremental paths so both
// produce bit-identical results.
func dbilValue(s *dataset.Schema, attrs []int, sums []int64, n int) float64 {
	total := 0.0
	for a, c := range attrs {
		attr := s.Attr(c)
		if attr.Ordered() && attr.Cardinality() > 1 {
			total += float64(sums[a]) / float64(attr.Cardinality()-1)
		} else {
			total += float64(sums[a])
		}
	}
	return 100 * total / float64(n*len(attrs))
}

// EBIL is entropy-based information loss: per attribute it estimates the
// conditional entropy H(original | masked) from the empirical joint
// distribution of (original, masked) value pairs, normalizes by the
// attribute's maximum entropy log2(card), and averages over attributes,
// scaled to [0,100]. This is the natural estimator of Kooiman et al.'s
// PRAM information loss when the true transition matrix is unknown: it
// measures how much uncertainty about the original value remains once the
// masked value is seen.
type EBIL struct{}

// Name implements Measure.
func (e *EBIL) Name() string { return "EBIL" }

// Loss implements Measure.
func (e *EBIL) Loss(orig, masked *dataset.Dataset, attrs []int) float64 {
	n := orig.Rows()
	if n == 0 || len(attrs) == 0 {
		return 0
	}
	sum := 0.0
	counted := 0
	for _, c := range attrs {
		card := orig.Schema().Attr(c).Cardinality()
		if card < 2 {
			continue // a constant attribute carries no information to lose
		}
		sum += ebilTerm(jointCounts(orig, masked, c, card), card, n)
		counted++
	}
	if counted == 0 {
		return 0
	}
	return 100 * sum / float64(counted)
}

// jointCounts tabulates one attribute's joint distribution of (original,
// masked) category pairs straight from the two files' cells: cell [u][v]
// of the dense card x card matrix counts the records whose original
// category is u and masked category is v.
func jointCounts(orig, masked *dataset.Dataset, c, card int) [][]int {
	backing := make([]int, card*card)
	m := make([][]int, card)
	for u := range m {
		m[u] = backing[u*card : (u+1)*card]
	}
	for r := range orig.Rows() {
		m[orig.At(r, c)][masked.At(r, c)]++
	}
	return m
}

// ebilTerm computes one attribute's normalized conditional entropy
// H(orig|masked)/log2(card) from its dense joint transition matrix. Shared
// by the full and incremental paths so both produce bit-identical results.
// It reads the matrix in place and allocates nothing.
func ebilTerm(joint [][]int, card, n int) float64 {
	// H(U|V) = sum_v p(v) H(U | V=v).
	hcond := 0.0
	for v := 0; v < card; v++ {
		colTotal := 0
		for u := 0; u < card; u++ {
			colTotal += joint[u][v]
		}
		if colTotal == 0 {
			continue
		}
		// H(U | V=v): the Shannon entropy of column v, in bits, over its
		// non-zero counts.
		h, ft := 0.0, float64(colTotal)
		for u := 0; u < card; u++ {
			if c := joint[u][v]; c != 0 {
				p := float64(c) / ft
				h -= p * math.Log2(p)
			}
		}
		hcond += float64(colTotal) / float64(n) * h
	}
	return hcond / stats.Log2(float64(card))
}
