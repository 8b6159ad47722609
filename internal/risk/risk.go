// Package risk implements the four disclosure-risk measures the paper
// aggregates into its fitness function (§2.3.2):
//
//   - ID, interval disclosure (Domingo-Ferrer & Torra 2001): how often the
//     original value lies within a narrow rank interval of the published
//     value.
//   - DBRL, distance-based record linkage (Domingo-Ferrer & Torra 2002):
//     fraction of records an intruder re-identifies by nearest-neighbour
//     matching.
//   - PRL, probabilistic record linkage (Fellegi–Sunter, EM-estimated, as
//     in Domingo-Ferrer & Torra 2002): re-identification by likelihood-
//     ratio matching on agreement patterns.
//   - RSRL, rank-swapping-interval record linkage (Nin, Herranz & Torra
//     2008): re-identification exploiting bounded rank displacement.
//
// Every measure returns a value in [0,100]; 100 means every record is
// fully re-identifiable. The paper's DR term is the plain average of the
// four, which package score takes. All measures follow the
// identity-disclosure scenario: the intruder holds the original
// quasi-identifiers and links them against the published masked file.
package risk

import (
	"evoprot/internal/dataset"
	"evoprot/internal/stats"
)

// Measure is a single disclosure-risk measure over the protected
// attributes. Implementations must be pure functions of their arguments.
type Measure interface {
	// Name identifies the measure in reports, e.g. "DBRL".
	Name() string
	// Risk returns the disclosure risk in [0,100] of publishing masked
	// given the original file, over the given attribute indices.
	Risk(orig, masked *dataset.Dataset, attrs []int) float64
}

// Default returns the paper's disclosure-risk battery: interval disclosure
// with 1%..10% windows, distance-based record linkage, probabilistic
// record linkage with 30 EM iterations, and rank-interval linkage with a
// 15% window.
func Default() []Measure {
	return []Measure{
		&IntervalDisclosure{MaxP: 10},
		&DistanceLinkage{},
		&ProbabilisticLinkage{EMIters: 30},
		&RankIntervalLinkage{P: 15},
	}
}

// IntervalDisclosure measures rank-interval disclosure: for every cell,
// and for every window half-width of p% of the file (p = 1..MaxP), the
// original value counts as disclosed when its data rank lies within the
// window centred on the published value's rank. The result is the
// disclosed fraction averaged over cells and window sizes, in [0,100].
// Ranks are the mid-ranks of the original file's distribution, which turn
// an ordered categorical column into the quasi-numeric scale the classic
// measure is defined on.
type IntervalDisclosure struct {
	// MaxP is the largest window half-width in percent; the measure
	// averages windows 1..MaxP. Defaults to 10.
	MaxP int
}

// Name implements Measure.
func (id *IntervalDisclosure) Name() string { return "ID" }

// maxPOrDefault resolves the effective largest window half-width.
func (id *IntervalDisclosure) maxPOrDefault() int {
	if id.MaxP <= 0 {
		return 10
	}
	return id.MaxP
}

// Risk implements Measure. It binds, then reads (idOrig in
// incremental.go), so full and delta evaluation share one contribution
// table per attribute.
func (id *IntervalDisclosure) Risk(orig, masked *dataset.Dataset, attrs []int) float64 {
	return id.bind(orig, attrs).risk(masked)
}

// idContrib precomputes, for one attribute, how many of the window sizes
// 1..maxP disclose a cell whose original category is u and published
// category is v: one flat card×card table. It depends only on the
// original file's mid-ranks.
func idContrib(orig *dataset.Dataset, col, maxP int) pairTable {
	card := orig.Schema().Attr(col).Cardinality()
	n := orig.Rows()
	ranks := stats.MidRanks(columnFreq(orig, col, card))
	t := pairTable{card: card, d: make([]int64, card*card)}
	for u := 0; u < card; u++ {
		for v := 0; v < card; v++ {
			gap := ranks[u] - ranks[v]
			if gap < 0 {
				gap = -gap
			}
			for p := 1; p <= maxP; p++ {
				if gap <= float64(p)*float64(n)/100 {
					// Larger windows contain smaller ones: all remaining
					// window sizes disclose too.
					t.d[u*card+v] = int64(maxP - p + 1)
					break
				}
			}
		}
	}
	return t
}

// columnFreq returns the frequency of each of the card categories in
// column c of d, read in place.
func columnFreq(d *dataset.Dataset, c, card int) []int {
	counts := make([]int, card)
	for r := range d.Rows() {
		counts[d.At(r, c)]++
	}
	return counts
}

// idValue folds the exact disclosed-window count into the measure value;
// shared by the full and incremental paths.
func idValue(disclosed int64, n, numAttrs, maxP int) float64 {
	return 100 * float64(disclosed) / float64(n*numAttrs*maxP)
}
