package infoloss

// MLUtility is a machine-learning-utility information-loss measure: it
// quantifies how much worse a classifier trained on the protected file
// performs than one trained on the original. This is the "data mining
// utility" view of information loss — a masking that preserves marginal
// and joint distributions (low CTBIL/DBIL/EBIL) can still scramble the
// feature/label relationships an analyst actually models.
//
// The proxy model is naive Bayes with Laplace smoothing over the
// categorical protected attributes, the standard low-variance choice for
// utility benchmarking on categorical microdata. The hold-out split is a
// deterministic row stride (testStride) — no RNG — so the measure is a
// pure function of its inputs and delta-evaluated engines stay
// bit-reproducible.
//
// MLUtility is deliberately not part of Default(): it needs a target
// column, and it is not Reversible — evaluators recompute it in full for
// every offspring while the rest of the battery runs incrementally, which
// is correct but slower. A full Loss trains and tests two classifiers
// (original- and masked-trained); each tabulates its smoothed
// log-likelihood once per (feature, class, value), so scoring a test row
// is table lookups and additions, summed in the order the per-row
// formula used — bit-identical to taking the logarithms row by row.

import (
	"math"

	"evoprot/internal/dataset"
)

// MLUtility measures the held-out accuracy drop of a naive Bayes
// classifier when trained on the masked file instead of the original.
type MLUtility struct {
	// Target is the column index of the class label the proxy classifier
	// predicts. It is excluded from the feature set when it is itself a
	// protected attribute.
	Target int
}

// testStride holds out every testStride-th row (rows with
// index % testStride == 0) as the test split, a 25% hold-out; the rest
// train.
const testStride = 4

// Name implements Measure.
func (m *MLUtility) Name() string { return "MLU" }

// Loss implements Measure: 100 times the held-out accuracy drop of the
// masked-trained classifier relative to the original-trained one, clamped
// to [0,100]. Both classifiers are scored on the original file's test
// rows and labels — the ground truth an analyst's model must generalize
// to. A masking that improves accuracy scores 0: the protected file lost
// no modelling utility.
func (m *MLUtility) Loss(orig, masked *dataset.Dataset, attrs []int) float64 {
	n := orig.Rows()
	if n < testStride || m.Target < 0 || m.Target >= orig.Schema().NumAttrs() {
		return 0
	}
	feats := make([]int, 0, len(attrs))
	for _, c := range attrs {
		if c != m.Target {
			feats = append(feats, c)
		}
	}
	if len(feats) == 0 || orig.Schema().Attr(m.Target).Cardinality() < 2 {
		return 0
	}
	accOrig := m.accuracy(orig, orig, feats)
	accMasked := m.accuracy(masked, orig, feats)
	if drop := accOrig - accMasked; drop > 0 {
		return 100 * drop
	}
	return 0
}

// accuracy trains naive Bayes on train's non-held-out rows and scores it
// on test's held-out rows against test's labels.
func (m *MLUtility) accuracy(train, test *dataset.Dataset, feats []int) float64 {
	s := train.Schema()
	classes := s.Attr(m.Target).Cardinality()

	// Training counts: class frequencies and per-feature value frequencies
	// conditioned on the class.
	classCount := make([]int, classes)
	valueCount := make([][][]int, len(feats))
	for f, c := range feats {
		card := s.Attr(c).Cardinality()
		valueCount[f] = make([][]int, classes)
		for k := 0; k < classes; k++ {
			valueCount[f][k] = make([]int, card)
		}
	}
	trained := 0
	for r := 0; r < train.Rows(); r++ {
		if r%testStride == 0 {
			continue
		}
		k := train.At(r, m.Target)
		if k < 0 || k >= classes {
			continue // masked label outside the schema's class range
		}
		classCount[k]++
		trained++
		for f, c := range feats {
			v := train.At(r, c)
			if v >= 0 && v < len(valueCount[f][k]) {
				valueCount[f][k][v]++
			}
		}
	}
	if trained == 0 {
		return 0
	}

	// Laplace-smoothed log-likelihoods, one per (feature, class, value)
	// plus a last slot per (feature, class) for values outside the
	// schema's range (count 0); the argmax tie-breaks toward the lowest
	// class index so prediction is deterministic.
	logPrior := make([]float64, classes)
	for k := 0; k < classes; k++ {
		logPrior[k] = math.Log(float64(classCount[k]+1) / float64(trained+classes))
	}
	logLike := make([][][]float64, len(feats))
	for f := range feats {
		logLike[f] = make([][]float64, classes)
		for k := 0; k < classes; k++ {
			counts := valueCount[f][k]
			card := len(counts)
			ll := make([]float64, card+1)
			for v := 0; v <= card; v++ {
				count := 0
				if v < card {
					count = counts[v]
				}
				ll[v] = math.Log(float64(count+1) / float64(classCount[k]+card))
			}
			logLike[f][k] = ll
		}
	}
	correct, tested := 0, 0
	for r := 0; r < test.Rows(); r += testStride {
		label := test.At(r, m.Target)
		if label < 0 || label >= classes {
			continue
		}
		best, bestScore := 0, 0.0
		for k := 0; k < classes; k++ {
			score := logPrior[k]
			for f, c := range feats {
				ll := logLike[f][k]
				v := test.At(r, c)
				if v < 0 || v >= len(ll)-1 {
					v = len(ll) - 1
				}
				score += ll[v]
			}
			if k == 0 || score > bestScore {
				best, bestScore = k, score
			}
		}
		if best == label {
			correct++
		}
		tested++
	}
	if tested == 0 {
		return 0
	}
	return float64(correct) / float64(tested)
}
