package infoloss

import (
	"math"
	"math/rand/v2"
	"testing"

	"evoprot/internal/datagen"
	"evoprot/internal/dataset"
)

// mlTestData builds a dataset whose target column is perfectly predictable
// from the first protected attribute (target = feature % classes), so the
// original-trained classifier scores high and scrambling the features
// destroys measurable utility.
func mlTestData(t *testing.T, rows int) (*dataset.Dataset, []int, int) {
	t.Helper()
	cats := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = string(rune('a' + i))
		}
		return out
	}
	s := dataset.MustSchema(
		dataset.MustAttribute("f1", cats(6), true),
		dataset.MustAttribute("f2", cats(4), false),
		dataset.MustAttribute("label", cats(3), false),
	)
	d := dataset.New(s, rows)
	rng := rand.New(rand.NewPCG(11, 5))
	for r := 0; r < rows; r++ {
		v := rng.IntN(6)
		d.Set(r, 0, v)
		d.Set(r, 1, rng.IntN(4))
		d.Set(r, 2, v%3)
	}
	return d, []int{0, 1}, 2
}

func TestMLUtilityIdentityZero(t *testing.T) {
	d, attrs, target := mlTestData(t, 200)
	m := &MLUtility{Target: target}
	if got := m.Loss(d, d, attrs); got != 0 {
		t.Fatalf("MLU(identity) = %v, want 0", got)
	}
}

func TestMLUtilityScrambleLoses(t *testing.T) {
	d, attrs, target := mlTestData(t, 200)
	masked := scramble(d, attrs, 7)
	m := &MLUtility{Target: target}
	got := m.Loss(d, masked, attrs)
	if got <= 0 || got > 100 {
		t.Fatalf("MLU(scramble) = %v, want in (0,100]", got)
	}
	// A pure function of its inputs: two computations agree exactly.
	if again := m.Loss(d, masked, attrs); again != got {
		t.Fatalf("MLU not deterministic: %v vs %v", got, again)
	}
}

// TestMLUtilityMonotoneUnderNoise: scrambling more feature columns never
// reports (much) more retained utility — full scramble loses at least as
// much as leaving the predictive column intact.
func TestMLUtilityMonotoneUnderNoise(t *testing.T) {
	d, attrs, target := mlTestData(t, 400)
	m := &MLUtility{Target: target}
	// Scramble only the non-predictive feature: f1, which determines the
	// label, survives, so the classifier barely degrades.
	partial := scramble(d, []int{1}, 3)
	full := scramble(d, attrs, 3)
	lossPartial := m.Loss(d, partial, attrs)
	lossFull := m.Loss(d, full, attrs)
	if lossFull < lossPartial {
		t.Fatalf("full scramble (%v) reports less loss than partial (%v)", lossFull, lossPartial)
	}
	if lossPartial > 20 {
		t.Fatalf("scrambling the non-predictive feature lost %v, want small", lossPartial)
	}
}

// TestMLUtilityDegenerateInputs: out-of-range targets, target-only
// feature sets, and too-few rows all score a defined 0 instead of
// panicking.
func TestMLUtilityDegenerateInputs(t *testing.T) {
	d, attrs, target := mlTestData(t, 200)
	masked := scramble(d, attrs, 9)
	for name, m := range map[string]*MLUtility{
		"negative target":     {Target: -1},
		"target out of range": {Target: d.Schema().NumAttrs()},
	} {
		if got := m.Loss(d, masked, attrs); got != 0 {
			t.Errorf("%s: MLU = %v, want 0", name, got)
		}
	}
	// Target is the only "protected" attribute: no features remain.
	m := &MLUtility{Target: target}
	if got := m.Loss(d, masked, []int{target}); got != 0 {
		t.Errorf("target-only attrs: MLU = %v, want 0", got)
	}
	// Fewer rows than the hold-out stride.
	tiny, tinyAttrs, tinyTarget := mlTestData(t, 3)
	if got := (&MLUtility{Target: tinyTarget}).Loss(tiny, scramble(tiny, tinyAttrs, 1), tinyAttrs); got != 0 {
		t.Errorf("tiny dataset: MLU = %v, want 0", got)
	}
}

// accuracyPerRow is the per-row formula the log-likelihood tables
// replaced: one logarithm per test row, class and feature. The oracle
// for TestMLUtilityMatchesPerRowLogs.
func accuracyPerRow(m *MLUtility, train, test *dataset.Dataset, feats []int) float64 {
	s := train.Schema()
	classes := s.Attr(m.Target).Cardinality()
	classCount := make([]int, classes)
	valueCount := make([][][]int, len(feats))
	for f, c := range feats {
		valueCount[f] = make([][]int, classes)
		for k := range valueCount[f] {
			valueCount[f][k] = make([]int, s.Attr(c).Cardinality())
		}
	}
	trained := 0
	for r := 0; r < train.Rows(); r++ {
		k := train.At(r, m.Target)
		if r%testStride == 0 || k < 0 || k >= classes {
			continue
		}
		classCount[k]++
		trained++
		for f, c := range feats {
			if v := train.At(r, c); v >= 0 && v < len(valueCount[f][k]) {
				valueCount[f][k][v]++
			}
		}
	}
	if trained == 0 {
		return 0
	}
	correct, tested := 0, 0
	for r := 0; r < test.Rows(); r += testStride {
		label := test.At(r, m.Target)
		if label < 0 || label >= classes {
			continue
		}
		best, bestScore := 0, 0.0
		for k := 0; k < classes; k++ {
			score := math.Log(float64(classCount[k]+1) / float64(trained+classes))
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

// TestMLUtilityMatchesPerRowLogs: the tabulated classifier reproduces the
// per-row formula's accuracy bit for bit — on the original and on
// increasingly perturbed training files, every protected attribute a
// feature, the target included among them or not.
func TestMLUtilityMatchesPerRowLogs(t *testing.T) {
	for _, name := range []string{"german", "adult", "flare"} {
		d := datagen.MustByName(name, 400, 3)
		attrs := make([]int, d.Schema().NumAttrs())
		for i := range attrs {
			attrs[i] = i
		}
		rng := rand.New(rand.NewPCG(9, 9))
		for target := 0; target < len(attrs); target++ {
			m := &MLUtility{Target: target}
			var feats []int
			for _, c := range attrs {
				if c != target {
					feats = append(feats, c)
				}
			}
			masked := d.Clone()
			for round := 0; round < 4; round++ {
				for _, train := range []*dataset.Dataset{d, masked} {
					got := m.accuracy(train, d, feats)
					want := accuracyPerRow(m, train, d, feats)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s target %d round %d: accuracy %v, per-row logs %v", name, target, round, got, want)
					}
				}
				for k := 0; k < d.Rows(); k++ { // perturb ~one cell per row
					c := attrs[rng.IntN(len(attrs))]
					masked.Set(rng.IntN(d.Rows()), c, rng.IntN(d.Schema().Attr(c).Cardinality()))
				}
			}
		}
	}
}
