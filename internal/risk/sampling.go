package risk

// The paper's §4 names the cost of computing the disclosure-risk measures
// as the approach's major drawback. The three linkage measures link every
// original record against the whole masked file. DBRL and PRL do so per
// distinct protected tuple (grouped.go), and RSRL per original category
// profile with bitset candidate sets, so their cost grows with the number
// of distinct tuples rather than records — but with every tuple distinct
// it is still quadratic in the number of records. This file adds the
// standard mitigation — deterministic record sampling on the intruder
// side — as an optional knob on each linkage measure.
//
// Sampling the *outer* (original) records leaves the per-record linkage
// problem untouched: each sampled record is still linked against the full
// masked file, so the measure remains an unbiased estimate of the
// re-identified fraction, computed on n/stride records instead of n. With
// MaxRecords = 0 (the default everywhere) the measures are exact.

// sampleStride returns the stride that keeps at most maxRecords of n
// records, and 1 (no sampling) when maxRecords is 0 or already >= n.
func sampleStride(n, maxRecords int) int {
	if maxRecords <= 0 || n <= maxRecords {
		return 1
	}
	stride := n / maxRecords
	if n%maxRecords != 0 {
		stride++
	}
	return stride
}

// sampledCount returns how many indices {0, stride, 2·stride, ...} fall in
// [0, n).
func sampledCount(n, stride int) int {
	return (n + stride - 1) / stride
}
