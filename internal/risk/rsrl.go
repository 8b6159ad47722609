package risk

import (
	"math"

	"evoprot/internal/dataset"
	"evoprot/internal/stats"
)

// RankIntervalLinkage is the rank-swapping-specific re-identification
// attack of Nin, Herranz & Torra (2008), generalized to any masked file:
// the intruder assumes every published value lies within a bounded rank
// window (P percent of the file) of the original value — exactly the
// guarantee rank swapping gives — so for each original record the
// candidate set is the intersection, over attributes, of the masked
// records whose value rank falls inside the window around the original
// value's rank. A record whose candidate set contains its true masked
// counterpart earns credit 1/|candidates|. The result is the percentage of
// re-identified records.
//
// Window ranks for original values use the original file's mid-ranks;
// candidate masked categories are matched through the masked file's
// mid-ranks, so the attack adapts to however the masking reshaped the
// distribution.
//
// RankIntervalLinkage also implements Reversible: Prepare builds a
// patchable window/bitset state so a cell change is applied in time
// proportional to the affected categories and profiles rather than the
// file size (see rsrl_incremental.go).
type RankIntervalLinkage struct {
	// P is the window half-width as a percentage of the number of
	// records; defaults to 15, a conservative upper bound on the rank
	// swapping grids used in practice.
	P float64
	// MaxRecords caps the number of original records attacked
	// (deterministic stride sampling; see sampling.go). 0 attacks every
	// record exactly.
	MaxRecords int
}

// Name implements Measure.
func (rl *RankIntervalLinkage) Name() string { return "RSRL" }

// pOrDefault resolves the effective window half-width percentage.
func (rl *RankIntervalLinkage) pOrDefault() float64 {
	if rl.P <= 0 {
		return 15
	}
	return rl.P
}

// Risk implements Measure.
//
// The candidate predicate factors per attribute into "masked category v is
// admissible for original category u", so instead of testing all n² record
// pairs the measure intersects per-attribute candidate bitsets: records
// sharing an original category profile share one intersection, and each
// intersection costs n/64 word operations per attribute. The candidate
// counts, and therefore the result, are bit-identical to the pairwise
// scan (incremental_test.go keeps the literal O(n²) implementation as a
// reference oracle, rsrlReference).
func (rl *RankIntervalLinkage) Risk(orig, masked *dataset.Dataset, attrs []int) float64 {
	n := orig.Rows()
	if n == 0 || len(attrs) == 0 {
		return 0
	}

	oc, mc := columns(orig, attrs), columns(masked, attrs)
	lo, hi := rsrlWindows(orig, oc, mc, attrs, rl.pOrDefault())

	// cand[a][u] is the set of masked records admissible for original
	// category u of attribute a, assembled from per-category record sets.
	cards := make([]int, len(attrs))
	cand := make([][]*stats.Bitset, len(attrs))
	for a, c := range attrs {
		cards[a] = orig.Schema().Attr(c).Cardinality()
		cand[a] = rsrlUnions(rsrlByCat(mc[a], cards[a], n), lo[a], hi[a], n)
	}

	// Records with the same original profile share their candidate set;
	// intersect once per distinct profile. The mixed-radix profile key
	// only fits a uint64 while the cardinality product does; beyond that
	// (absurdly wide QI sets) the cache is skipped rather than risking
	// silent key collisions — results are identical, just uncached.
	type profile struct {
		count int
		set   *stats.Bitset
	}
	_, cacheable := profileRadix(cards)
	cache := make(map[uint64]*profile)
	stride := sampleStride(n, rl.MaxRecords)
	credit := 0.0
	for i := 0; i < n; i += stride {
		var pr *profile
		if cacheable {
			var key uint64
			for a := range attrs {
				key = key*uint64(cards[a]) + uint64(oc[a][i])
			}
			pr = cache[key]
			if pr == nil {
				set := cand[0][oc[0][i]].Clone()
				for a := 1; a < len(attrs); a++ {
					set.AndWith(cand[a][oc[a][i]])
				}
				pr = &profile{count: set.Count(), set: set}
				cache[key] = pr
			}
		} else {
			set := cand[0][oc[0][i]].Clone()
			for a := 1; a < len(attrs); a++ {
				set.AndWith(cand[a][oc[a][i]])
			}
			pr = &profile{count: set.Count(), set: set}
		}
		if pr.set.Test(i) {
			credit += 1 / float64(pr.count)
		}
	}
	return 100 * credit / float64(sampledCount(n, stride))
}

// profileRadix returns the mixed-radix size of the joint category space of
// the given cardinalities and whether it fits a uint64 — the condition for
// the profile cache key. A zero cardinality (an attribute with an empty
// domain) disables the cache outright instead of dividing by zero in an
// overflow probe.
func profileRadix(cards []int) (uint64, bool) {
	radix := uint64(1)
	for _, card := range cards {
		c := uint64(card)
		if c == 0 || radix > math.MaxUint64/c {
			return 0, false
		}
		radix *= c
	}
	return radix, true
}

// rsrlWindows precomputes, per attribute, the contiguous masked-category
// range admissible for every original category: categories are scanned in
// domain order, and mid-ranks are monotone in domain order, so the
// admissible set is an interval [lo[u], hi[u]] (empty when lo > hi).
// Window ranks for original values use the original file's mid-ranks;
// candidate masked categories are matched through the masked file's
// mid-ranks.
func rsrlWindows(orig *dataset.Dataset, oc, mc [][]int, attrs []int, p float64) (lo, hi [][]int) {
	n := orig.Rows()
	window := p * float64(n) / 100
	lo = make([][]int, len(attrs))
	hi = make([][]int, len(attrs))
	for a, c := range attrs {
		card := orig.Schema().Attr(c).Cardinality()
		oRanks := stats.MidRanks(stats.Freq(oc[a], card))
		mRanks := stats.MidRanks(stats.Freq(mc[a], card))
		lo[a] = make([]int, card)
		hi[a] = make([]int, card)
		rsrlSweep(oRanks, mRanks, window, lo[a], hi[a])
	}
	return lo, hi
}

// rsrlSweep fills lo/hi with the admissible masked-category interval for
// every original category in a single two-pointer pass: both rank vectors
// are monotone non-decreasing in domain order (see stats.MidRanksInto), so
// the set {v : |oRanks[u]−mRanks[v]| ≤ window} is contiguous and both of
// its endpoints only move rightward as u grows. Empty windows are recorded
// as (len, -1). The boundary comparisons are the same float expressions a
// full scan of all (u, v) pairs would evaluate — mid-ranks are exact
// multiples of one half — so the sweep selects bit-identical intervals in
// O(card) instead of O(card²).
func rsrlSweep(oRanks, mRanks []float64, window float64, lo, hi []int) {
	card := len(oRanks)
	l, h := 0, -1
	for u := 0; u < card; u++ {
		for l < card && oRanks[u]-mRanks[l] > window {
			l++
		}
		if h < l-1 {
			h = l - 1
		}
		for h+1 < card && mRanks[h+1]-oRanks[u] <= window {
			h++
		}
		if l <= h {
			lo[u], hi[u] = l, h
		} else {
			lo[u], hi[u] = card, -1
		}
	}
}

// rsrlByCat builds the per-category record sets of one masked column:
// byCat[v] holds the masked records whose value is v. The sets partition
// the records — every record appears in exactly one — so interval unions
// over them are disjoint unions, which is what lets the incremental state
// subtract a category from a union exactly.
func rsrlByCat(mcA []int, card, n int) []*stats.Bitset {
	byCat := make([]*stats.Bitset, card)
	for v := range byCat {
		byCat[v] = stats.NewBitset(n)
	}
	for j, v := range mcA {
		byCat[v].Set(j)
	}
	return byCat
}

// rsrlUnions assembles the per-original-category candidate sets
// cand[u] = ∪ byCat[v] over v in [lo[u], hi[u]].
func rsrlUnions(byCat []*stats.Bitset, lo, hi []int, n int) []*stats.Bitset {
	cand := make([]*stats.Bitset, len(lo))
	for u := range cand {
		acc := stats.NewBitset(n)
		for v := lo[u]; v <= hi[u]; v++ {
			acc.OrWith(byCat[v])
		}
		cand[u] = acc
	}
	return cand
}
