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
// deterministic row stride — no RNG — so the measure is a pure function
// of its inputs and delta-evaluated engines stay bit-reproducible.
//
// MLUtility is deliberately not part of Default(): it needs a target
// column, and it is not Reversible — evaluators recompute it in full for
// every offspring while the rest of the battery runs incrementally, which
// is correct but slower.

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
	// TestStride holds out every TestStride-th row (rows with
	// index % TestStride == 0) as the test split; the rest train. Values
	// below 2 select the default of 4 (a 25% hold-out).
	TestStride int
}

// Name implements Measure.
func (m *MLUtility) Name() string { return "MLU" }

// stride resolves the effective hold-out stride.
func (m *MLUtility) stride() int {
	if m.TestStride < 2 {
		return 4
	}
	return m.TestStride
}

// Loss implements Measure: 100 times the held-out accuracy drop of the
// masked-trained classifier relative to the original-trained one, clamped
// to [0,100]. Both classifiers are scored on the original file's test
// rows and labels — the ground truth an analyst's model must generalize
// to. A masking that improves accuracy scores 0: the protected file lost
// no modelling utility.
func (m *MLUtility) Loss(orig, masked *dataset.Dataset, attrs []int) float64 {
	n := orig.Rows()
	stride := m.stride()
	if n < stride || m.Target < 0 || m.Target >= orig.Schema().NumAttrs() {
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
	accOrig := m.accuracy(orig, orig, feats, stride)
	accMasked := m.accuracy(masked, orig, feats, stride)
	if drop := accOrig - accMasked; drop > 0 {
		return 100 * drop
	}
	return 0
}

// accuracy trains naive Bayes on train's non-held-out rows and scores it
// on test's held-out rows against test's labels.
func (m *MLUtility) accuracy(train, test *dataset.Dataset, feats []int, stride int) float64 {
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
		if r%stride == 0 {
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

	// Laplace-smoothed log-likelihoods; the argmax tie-breaks toward the
	// lowest class index so prediction is deterministic.
	logPrior := make([]float64, classes)
	for k := 0; k < classes; k++ {
		logPrior[k] = math.Log(float64(classCount[k]+1) / float64(trained+classes))
	}
	correct, tested := 0, 0
	for r := 0; r < test.Rows(); r += stride {
		label := test.At(r, m.Target)
		if label < 0 || label >= classes {
			continue
		}
		best, bestScore := 0, 0.0
		for k := 0; k < classes; k++ {
			score := logPrior[k]
			for f, c := range feats {
				card := len(valueCount[f][k])
				v := test.At(r, c)
				count := 0
				if v >= 0 && v < card {
					count = valueCount[f][k][v]
				}
				score += math.Log(float64(count+1) / float64(classCount[k]+card))
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
