package infoloss

import (
	"math"
	"math/rand/v2"
	"slices"
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

// mlEdit draws one in-domain edit of a protected cell of d, applies it
// and returns it. A third of the edits hit a held-out row; with a
// protected target, a third hit the target column; and a quarter repeat
// the previous edit's cell, so change lists chain.
func mlEdit(rng *rand.Rand, d *dataset.Dataset, attrs []int, target int, prev []dataset.CellChange) dataset.CellChange {
	row := rng.IntN(d.Rows())
	if rng.IntN(3) == 0 {
		row -= row % testStride
	}
	col := attrs[rng.IntN(len(attrs))]
	if slices.Contains(attrs, target) && rng.IntN(3) == 0 {
		col = target
	}
	if len(prev) > 0 && rng.IntN(4) == 0 {
		row, col = prev[len(prev)-1].Row, prev[len(prev)-1].Col
	}
	old := d.At(row, col)
	v := rng.IntN(d.Schema().Attr(col).Cardinality() - 1)
	if v >= old {
		v++
	}
	d.Set(row, col, v)
	return dataset.CellChange{Row: row, Col: col, Old: old, New: v}
}

// TestMLUtilityDeltaMatchesLoss drives the ML-utility state on german
// through chained edits — held-out rows and, with a protected target,
// target cells among them — with an unprotected target (HOUSING) and a
// protected one (SAVINGS), interleaving ApplyUndo with Undo or with the
// empty Apply that commits it, plain Applies and clones, and requires
// every value to equal Loss of the file it describes bit for bit.
func TestMLUtilityDeltaMatchesLoss(t *testing.T) {
	d := datagen.MustByName("german", 400, 7)
	names, _ := datagen.ProtectedAttrs("german")
	attrs, err := d.Schema().Indices(names...)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"HOUSING", "SAVINGS"} {
		col, err := d.Schema().Indices(name)
		if err != nil {
			t.Fatal(err)
		}
		m := &MLUtility{Target: col[0]}
		check := func(step int, op string, got float64, file *dataset.Dataset) {
			t.Helper()
			if want := m.Loss(d, file, attrs); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s step %d, %s: delta %v, Loss %v", name, step, op, got, want)
			}
		}
		rng := rand.New(rand.NewPCG(3, 17))
		work := scramble(d, attrs, 5)
		st := m.Prepare(d, work, attrs)
		if st == nil {
			t.Fatalf("%s: Prepare returned nil", name)
		}
		check(-1, "Prepare", m.Apply(st, nil), work)
		for step := 0; step < 240; step++ {
			spec := work.Clone()
			var changes []dataset.CellChange
			for range 1 + rng.IntN(6) {
				changes = append(changes, mlEdit(rng, spec, attrs, m.Target, changes))
			}
			switch step % 4 {
			case 0: // a speculative offspring, rolled back
				check(step, "ApplyUndo", m.ApplyUndo(st, changes), spec)
				m.Undo(st)
				m.Undo(st) // a second Undo is a no-op
				check(step, "Undo", m.Apply(st, nil), work)
			case 1: // a winner's pending edit, kept
				check(step, "ApplyUndo", m.ApplyUndo(st, changes), spec)
				check(step, "commit", m.Apply(st, nil), spec)
				m.Undo(st) // nothing pending any more
				check(step, "Undo after commit", m.Apply(st, nil), spec)
				work = spec
			case 2:
				check(step, "Apply", m.Apply(st, changes), spec)
				work = spec
			default: // a clone diverges; the original stays
				clone := st.CloneState()
				check(step, "clone ApplyUndo", m.ApplyUndo(clone, changes), spec)
				check(step, "original", m.Apply(st, nil), work)
				pending := clone.CloneState() // a clone of a pending state is settled at the edit
				m.Undo(clone)
				check(step, "clone Undo", m.Apply(clone, nil), work)
				check(step, "clone of pending", m.Apply(pending, nil), spec)
				st, work = pending, spec
			}
		}
	}
}

func FuzzMLUtilityDelta(f *testing.F) {
	f.Add([]byte{8, 0, 3, 1, 2, 1, 40, 2, 5})
	f.Add([]byte{4, 5, 8, 0, 1, 12, 2, 3, 2, 9, 7, 200, 3, 7, 6, 3})
	d := datagen.MustByName("german", 48, 3)
	names, _ := datagen.ProtectedAttrs("german")
	attrs, err := d.Schema().Indices(names...)
	if err != nil {
		f.Fatal(err)
	}
	masked := scramble(d, attrs, 2)
	f.Fuzz(func(t *testing.T, data []byte) {
		// The first byte picks the target column; then each operation
		// is an op byte and three bytes per cell edit (row, column
		// pick, new value). The op's low two bits pick Apply, ApplyUndo
		// then Undo, ApplyUndo then the committing empty Apply, or a
		// clone that replaces the state; the next two bits set the
		// list's length.
		if len(data) == 0 {
			return
		}
		m := &MLUtility{Target: int(data[0]) % d.Cols()}
		work := masked.Clone()
		st := m.Prepare(d, work, attrs)
		if st == nil {
			t.Fatalf("target %d: Prepare returned nil", m.Target)
		}
		check := func(op string, got float64, file *dataset.Dataset) {
			t.Helper()
			if want := m.Loss(d, file, attrs); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("target %d, %s: delta %v, Loss %v", m.Target, op, got, want)
			}
		}
		for data = data[1:]; len(data) >= 4; {
			op := data[0]
			n := min(1+int(op>>2)%4, (len(data)-1)/3)
			spec := work.Clone()
			changes := make([]dataset.CellChange, n)
			for i := range changes {
				b := data[1+3*i:]
				row, col := int(b[0])%d.Rows(), attrs[int(b[1])%len(attrs)]
				if int(b[1])%(len(attrs)+1) == len(attrs) && slices.Contains(attrs, m.Target) {
					col = m.Target
				}
				v := int(b[2]) % d.Schema().Attr(col).Cardinality()
				changes[i] = dataset.CellChange{Row: row, Col: col, Old: spec.At(row, col), New: v}
				spec.Set(row, col, v)
			}
			data = data[1+3*n:]
			switch op & 3 {
			case 0:
				check("Apply", m.Apply(st, changes), spec)
				work = spec
			case 1:
				check("ApplyUndo", m.ApplyUndo(st, changes), spec)
				m.Undo(st)
				check("Undo", m.Apply(st, nil), work)
			case 2:
				check("ApplyUndo", m.ApplyUndo(st, changes), spec)
				check("commit", m.Apply(st, nil), spec)
				work = spec
			default:
				st = st.CloneState()
				check("clone Apply", m.Apply(st, changes), spec)
				work = spec
			}
		}
	})
}

// TestMLUtilityDegenerateInputs: out-of-range targets, target-only
// feature sets, too few rows and a one-class target all score a defined 0
// instead of panicking, and get no delta state.
func TestMLUtilityDegenerateInputs(t *testing.T) {
	d, attrs, target := mlTestData(t, 200)
	masked := scramble(d, attrs, 9)
	tiny, tinyAttrs, tinyTarget := mlTestData(t, 3)
	oneClass := dataset.New(dataset.MustSchema(
		dataset.MustAttribute("f", []string{"a", "b", "c"}, false),
		dataset.MustAttribute("label", []string{"only"}, false),
	), 40)
	for r := 0; r < oneClass.Rows(); r++ {
		oneClass.Set(r, 0, r%3)
	}
	for _, tc := range []struct {
		name         string
		target       int
		orig, masked *dataset.Dataset
		attrs        []int
	}{
		{"fewer rows than the hold-out stride", tinyTarget, tiny, scramble(tiny, tinyAttrs, 1), tinyAttrs},
		{"negative target", -1, d, masked, attrs},
		{"target out of range", d.Schema().NumAttrs(), d, masked, attrs},
		{"target-only attrs", target, d, masked, []int{target}},
		{"one class", 1, oneClass, scramble(oneClass, []int{0}, 4), []int{0}},
	} {
		m := &MLUtility{Target: tc.target}
		if got := m.Loss(tc.orig, tc.masked, tc.attrs); got != 0 {
			t.Errorf("%s: MLU = %v, want 0", tc.name, got)
		}
		if st := m.Prepare(tc.orig, tc.masked, tc.attrs); st != nil {
			t.Errorf("%s: Prepare built a state", tc.name)
		}
	}
}
