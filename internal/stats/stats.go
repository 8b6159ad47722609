// Package stats provides the small statistical substrate shared by the
// information-loss and disclosure-risk measures: Shannon entropy, frequency
// tables, contingency tables over attribute subsets, rank utilities over
// ordered categorical domains, and attribute-subset enumeration.
//
// All functions are deterministic and allocation-conscious; they are called
// on every fitness evaluation of the evolutionary engine.
package stats

import "math"

// Log2 returns the base-2 logarithm of x. It exists so that entropy code
// reads in information-theoretic units (bits) throughout the module.
func Log2(x float64) float64 { return math.Log2(x) }

// Entropy returns the Shannon entropy, in bits, of the distribution implied
// by the non-negative counts. Zero counts contribute nothing. An empty or
// all-zero slice has entropy 0.
func Entropy(counts []int) float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	h := 0.0
	ft := float64(total)
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / ft
		h -= p * math.Log2(p)
	}
	return h
}

// Freq returns the frequency of each value in column, where values are
// category indices in [0, card). Values outside the range are ignored.
func Freq(column []int, card int) []int {
	counts := make([]int, card)
	for _, v := range column {
		if v >= 0 && v < card {
			counts[v]++
		}
	}
	return counts
}

// FreqShift patches a frequency table for one value moving from category
// old to category new — the incremental counterpart of recomputing Freq
// after a single cell edit.
func FreqShift(counts []int, old, new int) {
	counts[old]--
	counts[new]++
}

// MidRanks maps each category index to the average (mid) rank of its
// occurrences in the data, given per-category counts. Ranks are 0-based over
// the n records sorted by category index; a category with no occurrences is
// assigned the rank it would occupy if present (the boundary position).
//
// Mid-ranks turn an ordered categorical column into a quasi-numerical one;
// the interval-disclosure measure and rank-window linkage are defined on
// them.
func MidRanks(counts []int) []float64 {
	ranks := make([]float64, len(counts))
	MidRanksInto(ranks, counts)
	return ranks
}

// MidRanksInto is MidRanks into a caller-provided slice — the
// allocation-free variant incremental state updates use to re-derive ranks
// after a frequency patch. dst must hold len(counts) elements. The values
// written are identical to MidRanks', so full and incremental paths agree
// bit-for-bit.
//
// MidRanks are monotone non-decreasing in category order: consecutive
// ranks differ by (counts[i]+counts[i+1])/2 ≥ 0. All values are exact
// multiples of one half, so comparisons against them are exact; window
// code relies on both properties.
func MidRanksInto(dst []float64, counts []int) {
	cum := 0
	for i, c := range counts {
		if c > 0 {
			dst[i] = float64(cum) + float64(c-1)/2
		} else {
			dst[i] = float64(cum)
		}
		cum += c
	}
}

// Quantile returns the index of the category at the q-quantile (0 <= q <= 1)
// of the distribution given by counts, i.e. the smallest category c whose
// cumulative relative frequency reaches q. For q <= 0 it returns the first
// non-empty category; for q >= 1 the last.
func Quantile(counts []int, q float64) int {
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 || len(counts) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(total)
	cum := 0
	for i, c := range counts {
		cum += c
		if float64(cum) >= target && cum > 0 {
			return i
		}
	}
	return len(counts) - 1
}

// Combinations returns all k-element subsets of {0, ..., n-1} in
// lexicographic order. It panics if k < 0. For k > n it returns nil.
func Combinations(n, k int) [][]int {
	if k < 0 {
		panic("stats: negative k in Combinations")
	}
	if k > n {
		return nil
	}
	if k == 0 {
		return [][]int{{}}
	}
	var out [][]int
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		comb := make([]int, k)
		copy(comb, idx)
		out = append(out, comb)
		// Advance to the next combination.
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			break
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
	return out
}

// SubsetsUpTo returns all non-empty subsets of {0,...,n-1} of size at most k,
// ordered by size then lexicographically.
func SubsetsUpTo(n, k int) [][]int {
	var out [][]int
	for size := 1; size <= k && size <= n; size++ {
		out = append(out, Combinations(n, size)...)
	}
	return out
}

// AbsInt returns the absolute value of an int.
func AbsInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
