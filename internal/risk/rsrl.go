package risk

import "evoprot/internal/dataset"

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
// The candidate predicate factors per attribute into "masked category v
// is admissible for original category u", so instead of testing all n²
// record pairs the measure intersects per-attribute candidate bitsets,
// once per distinct original profile: records are grouped by profile
// into the compact original grouping DBRL and PRL bind (the linkage core
// bindLink builds, grouped.go), whose tuple columns give each group's
// profile, and each
// intersection costs n/64 word operations per attribute. Frequencies and
// per-category record sets are counted from the cells in place. The
// candidate counts, and therefore the result, are bit-identical to the
// pairwise scan (incremental_test.go keeps it as the oracle
// rsrlReference).
//
// Risk and the Reversible delta path share that one kernel: Risk is the
// value of a freshly prepared state, and Apply patches the state so a
// cell change costs time proportional to the affected categories and
// profiles rather than the file size (see rsrl_incremental.go).
type RankIntervalLinkage struct {
	// P is the window half-width as a percentage of the number of
	// records; defaults to 15, a conservative upper bound on the rank
	// swapping grids used in practice.
	P float64
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

// Risk implements Measure. It binds, then reads the value of a freshly
// prepared state (rsrl_incremental.go), so full and delta evaluation
// share one kernel.
func (rl *RankIntervalLinkage) Risk(orig, masked *dataset.Dataset, attrs []int) float64 {
	return rl.bind(orig, attrs).risk(masked)
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
