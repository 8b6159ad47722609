package risk

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"evoprot/internal/dataset"
	"evoprot/internal/dataset/datasettest"
	"evoprot/internal/stats"
)

// incrementalDefaults returns the default battery's incremental measures.
func incrementalDefaults(t *testing.T) []Incremental {
	t.Helper()
	var out []Incremental
	for _, m := range Default() {
		inc, ok := m.(Incremental)
		if !ok {
			t.Fatalf("%s lacks an incremental implementation", m.Name())
		}
		out = append(out, inc)
	}
	if len(out) != 4 {
		t.Fatalf("expected 4 incremental risk measures, got %d", len(out))
	}
	return out
}

// TestIncrementalMatchesFullRisk drives each incremental risk measure
// through randomized change sequences and demands bit-identical agreement
// with a full Risk recompute at every step.
func TestIncrementalMatchesFullRisk(t *testing.T) {
	for _, seed := range []uint64{2, 19, 101} {
		d, attrs := testData(t)
		rng := rand.New(rand.NewPCG(seed, 6))
		for _, inc := range incrementalDefaults(t) {
			work := scramble(d, attrs, seed)
			st := inc.Prepare(d, work, attrs)
			if st == nil {
				t.Fatalf("%s: Prepare returned nil", inc.Name())
			}
			if got, want := inc.Apply(st, nil), inc.Risk(d, work, attrs); got != want {
				t.Fatalf("%s: Apply(nil) = %v, full = %v", inc.Name(), got, want)
			}
			for step := 0; step < 60; step++ {
				batch := 1 + rng.IntN(3)
				changes := make([]dataset.CellChange, batch)
				for i := range changes {
					changes[i] = datasettest.RandomChange(rng, work, attrs)
				}
				got := inc.Apply(st, changes)
				want := inc.Risk(d, work, attrs)
				if got != want {
					t.Fatalf("%s seed %d step %d: delta %v != full %v", inc.Name(), seed, step, got, want)
				}
			}
		}
	}
}

// TestIncrementalFromIdentityMasking starts the chain from the
// identity masking (the best-case for linkage: every record its own
// nearest neighbour), where DBRL's unique-minimum displacement path is
// exercised heavily.
func TestIncrementalFromIdentityMasking(t *testing.T) {
	d, attrs := uniqueData(t, 120)
	rng := rand.New(rand.NewPCG(23, 8))
	for _, inc := range incrementalDefaults(t) {
		work := d.Clone()
		st := inc.Prepare(d, work, attrs)
		for step := 0; step < 80; step++ {
			ch := datasettest.RandomChange(rng, work, attrs)
			got := inc.Apply(st, []dataset.CellChange{ch})
			want := inc.Risk(d, work, attrs)
			if got != want {
				t.Fatalf("%s step %d: delta %v != full %v", inc.Name(), step, got, want)
			}
		}
	}
}

// TestIncrementalCloneIsolation branches a state, mutates the branch, and
// checks the original still tracks its own file exactly.
func TestIncrementalCloneIsolation(t *testing.T) {
	d, attrs := testData(t)
	rng := rand.New(rand.NewPCG(5, 11))
	for _, inc := range incrementalDefaults(t) {
		work := scramble(d, attrs, 13)
		st := inc.Prepare(d, work, attrs)

		branchData := work.Clone()
		branch := st.CloneState()
		for i := 0; i < 20; i++ {
			ch := datasettest.RandomChange(rng, branchData, attrs)
			inc.Apply(branch, []dataset.CellChange{ch})
		}
		if got, want := inc.Apply(st, nil), inc.Risk(d, work, attrs); got != want {
			t.Fatalf("%s: original state corrupted by clone: %v != %v", inc.Name(), got, want)
		}
		if got, want := inc.Apply(branch, nil), inc.Risk(d, branchData, attrs); got != want {
			t.Fatalf("%s: branch state wrong: %v != %v", inc.Name(), got, want)
		}
	}
}

// reversibleBattery returns the reversible risk measures under test.
func reversibleBattery(t *testing.T) []Reversible {
	t.Helper()
	var out []Reversible
	for _, m := range Default() {
		rev, ok := m.(Reversible)
		if !ok {
			t.Fatalf("%s lacks a reversible implementation", m.Name())
		}
		out = append(out, rev)
	}
	return out
}

// TestReversibleApplyUndo drives every reversible risk state through
// speculative ApplyUndo/Undo rounds interleaved with committed Applies —
// the exact access pattern of generation-batch evaluation — and demands
// (a) each speculative value equals the full recompute of the edited
// file, (b) the undone state still tracks the unedited file bit for bit,
// and (c) a control state advanced only by committed Applies agrees at
// every step.
func TestReversibleApplyUndo(t *testing.T) {
	d, attrs := testData(t)
	for _, rev := range reversibleBattery(t) {
		rng := rand.New(rand.NewPCG(7, 31))
		work := scramble(d, attrs, 3)
		st := rev.Prepare(d, work, attrs)
		if st == nil {
			t.Fatalf("%s: Prepare returned nil", rev.Name())
		}
		control := st.CloneState()
		for step := 0; step < 30; step++ {
			// A speculative offspring: edits against a scratch copy.
			spec := work.Clone()
			changes := make([]dataset.CellChange, 1+rng.IntN(4))
			for i := range changes {
				changes[i] = datasettest.RandomChange(rng, spec, attrs)
			}
			got := rev.ApplyUndo(st, changes)
			if want := rev.Risk(d, spec, attrs); got != want {
				t.Fatalf("%s step %d: ApplyUndo %v != full %v", rev.Name(), step, got, want)
			}
			rev.Undo(st)
			if got, want := rev.Apply(st, nil), rev.Risk(d, work, attrs); got != want {
				t.Fatalf("%s step %d: state after Undo %v != full %v", rev.Name(), step, got, want)
			}
			// Undo twice is a no-op.
			rev.Undo(st)
			// Every third round, commit the offspring for real.
			if step%3 == 0 {
				for _, ch := range changes {
					work.Set(ch.Row, ch.Col, ch.New)
				}
				if got, want := rev.Apply(st, changes), rev.Apply(control, changes); got != want {
					t.Fatalf("%s step %d: committed %v != control %v", rev.Name(), step, got, want)
				}
			}
		}
	}
}

// TestReversibleUndoWithoutApplyIsNoOp pins the no-pending contract.
func TestReversibleUndoWithoutApplyIsNoOp(t *testing.T) {
	d, attrs := testData(t)
	for _, rev := range reversibleBattery(t) {
		work := scramble(d, attrs, 5)
		st := rev.Prepare(d, work, attrs)
		rev.Undo(st)
		if got, want := rev.Apply(st, nil), rev.Risk(d, work, attrs); got != want {
			t.Fatalf("%s: Undo on a fresh state corrupted it: %v != %v", rev.Name(), got, want)
		}
	}
}

// randomGrid builds a random dataset: numAttrs protected attributes with
// random cardinalities in [2, maxCard], uniformly random cells.
func randomGrid(t *testing.T, rng *rand.Rand, n, numAttrs, maxCard int) (*dataset.Dataset, []int) {
	t.Helper()
	specs := make([]*dataset.Attribute, numAttrs)
	attrs := make([]int, numAttrs)
	for a := range specs {
		card := 2 + rng.IntN(maxCard-1)
		cats := make([]string, card)
		for i := range cats {
			cats[i] = fmt.Sprintf("a%dc%d", a, i)
		}
		specs[a] = dataset.MustAttribute(fmt.Sprintf("p%d", a), cats, rng.IntN(2) == 0)
		attrs[a] = a
	}
	d := dataset.New(dataset.MustSchema(specs...), n)
	for r := 0; r < n; r++ {
		for c := 0; c < numAttrs; c++ {
			d.Set(r, c, rng.IntN(specs[c].Cardinality()))
		}
	}
	return d, attrs
}

// TestRSRLDeltaMatchesReference drives the incremental RSRL state through
// random mutation- and crossover-sized change sequences — over the
// standard test data and over random grids — and demands bit-identical
// agreement with both the literal O(n²) pairwise oracle (rsrlReference)
// and the full bitset Risk at every step, across window widths.
func TestRSRLDeltaMatchesReference(t *testing.T) {
	type fixture struct {
		name  string
		d     *dataset.Dataset
		attrs []int
	}
	rng := rand.New(rand.NewPCG(83, 2))
	var fixtures []fixture
	d, attrs := testData(t)
	fixtures = append(fixtures, fixture{"german", d, attrs})
	for k := 0; k < 3; k++ {
		g, gattrs := randomGrid(t, rng, 60+rng.IntN(120), 1+rng.IntN(4), 9)
		fixtures = append(fixtures, fixture{fmt.Sprintf("grid%d", k), g, gattrs})
	}
	for _, fx := range fixtures {
		for _, p := range []float64{0, 2, 60, 5} {
			rl := RankIntervalLinkage{P: p}
			name := fmt.Sprintf("%s/P=%v", fx.name, p)
			work := scramble(fx.d, fx.attrs, 13)
			st := rl.Prepare(fx.d, work, fx.attrs)
			if st == nil {
				t.Fatalf("%s: Prepare returned nil", name)
			}
			for step := 0; step < 40; step++ {
				batch := 1 // a mutation offspring
				if step%3 == 2 {
					batch = 1 + rng.IntN(8) // a crossover gene window
				}
				changes := make([]dataset.CellChange, batch)
				for i := range changes {
					changes[i] = datasettest.RandomChange(rng, work, fx.attrs)
				}
				got := rl.Apply(st, changes)
				if want := rsrlReference(&rl, fx.d, work, fx.attrs); got != want {
					t.Fatalf("%s step %d: delta %v != pairwise reference %v", name, step, got, want)
				}
				if want := rl.Risk(fx.d, work, fx.attrs); got != want {
					t.Fatalf("%s step %d: delta %v != full %v", name, step, got, want)
				}
			}
		}
	}
}

// rsrlSweepScan is the literal O(card²) window derivation rsrlSweep
// replaced: test every (u, v) pair and take the min/max matching v.
func rsrlSweepScan(oRanks, mRanks []float64, window float64, lo, hi []int) {
	card := len(oRanks)
	for u := 0; u < card; u++ {
		l, h := card, -1
		for v := 0; v < card; v++ {
			gap := oRanks[u] - mRanks[v]
			if gap < 0 {
				gap = -gap
			}
			if gap <= window {
				if v < l {
					l = v
				}
				if v > h {
					h = v
				}
			}
		}
		lo[u], hi[u] = l, h
	}
}

// TestRSRLSweepMatchesScan property-tests the two-pointer interval sweep
// against the literal pairwise scan over random frequency shapes —
// including empty categories, empty windows and degenerate widths.
func TestRSRLSweepMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(51, 4))
	for trial := 0; trial < 200; trial++ {
		card := 1 + rng.IntN(12)
		oFreq := make([]int, card)
		mFreq := make([]int, card)
		n := 0
		for i := 0; i < card; i++ {
			if rng.IntN(3) > 0 { // leave ~1/3 of categories empty
				oFreq[i] = rng.IntN(40)
			}
			n += oFreq[i]
		}
		// The masked file redistributes the same n records.
		left := n
		for i := 0; i < card-1; i++ {
			mFreq[i] = rng.IntN(left + 1)
			left -= mFreq[i]
		}
		mFreq[card-1] = left
		oRanks := stats.MidRanks(oFreq)
		mRanks := stats.MidRanks(mFreq)
		for _, window := range []float64{0, 0.25, 1, float64(rng.IntN(n + 1)), float64(n) * 1.5} {
			lo := make([]int, card)
			hi := make([]int, card)
			loScan := make([]int, card)
			hiScan := make([]int, card)
			rsrlSweep(oRanks, mRanks, window, lo, hi)
			rsrlSweepScan(oRanks, mRanks, window, loScan, hiScan)
			for u := 0; u < card; u++ {
				if lo[u] != loScan[u] || hi[u] != hiScan[u] {
					t.Fatalf("trial %d window %v u=%d: sweep [%d,%d] != scan [%d,%d]\noRanks=%v\nmRanks=%v",
						trial, window, u, lo[u], hi[u], loScan[u], hiScan[u], oRanks, mRanks)
				}
			}
		}
	}
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

// rsrlReference is the literal pairwise O(n²) rank-interval linkage the
// bitset kernel of rsrl.go and rsrl_incremental.go replaced; kept as the
// oracle for the equivalence properties below and in grouped_test.go.
func rsrlReference(rl *RankIntervalLinkage, orig, masked *dataset.Dataset, attrs []int) float64 {
	p := rl.P
	if p <= 0 {
		p = 15
	}
	n := orig.Rows()
	if n == 0 || len(attrs) == 0 {
		return 0
	}
	oc, mc := columns(orig, attrs), columns(masked, attrs)
	lo, hi := rsrlWindows(orig, oc, mc, attrs, p)
	credit := 0.0
	for i := 0; i < n; i++ {
		count := 0
		containsTrue := false
		for j := 0; j < n; j++ {
			inAll := true
			for a := range attrs {
				u := oc[a][i]
				v := mc[a][j]
				if v < lo[a][u] || v > hi[a][u] {
					inAll = false
					break
				}
			}
			if inAll {
				count++
				if j == i {
					containsTrue = true
				}
			}
		}
		if containsTrue {
			credit += 1 / float64(count)
		}
	}
	return 100 * credit / float64(n)
}

// TestRSRLBitsetMatchesPairwiseReference property-tests the accelerated
// RSRL against the literal pairwise scan across maskings and window
// widths.
func TestRSRLBitsetMatchesPairwiseReference(t *testing.T) {
	d, attrs := testData(t)
	rng := rand.New(rand.NewPCG(31, 14))
	maskings := []*dataset.Dataset{d.Clone(), scramble(d, attrs, 3), scramble(d, attrs, 77)}
	work := d.Clone()
	for i := 0; i < 40; i++ {
		datasettest.RandomChange(rng, work, attrs)
	}
	maskings = append(maskings, work)
	for _, p := range []float64{0, 1, 5, 15, 60, 100} {
		rl := &RankIntervalLinkage{P: p}
		for mi, masked := range maskings {
			got := rl.Risk(d, masked, attrs)
			want := rsrlReference(rl, d, masked, attrs)
			if got != want {
				t.Fatalf("P=%v masking %d: bitset %v != reference %v", p, mi, got, want)
			}
		}
	}
	// Single-attribute edge: the intersection loop starts from attr 0 only.
	u, uattrs := uniqueData(t, 64)
	rl := &RankIntervalLinkage{P: 10}
	if got, want := rl.Risk(u, u.Clone(), uattrs), rsrlReference(rl, u, u.Clone(), uattrs); got != want {
		t.Fatalf("unique data: bitset %v != reference %v", got, want)
	}
}

// TestRSRLProfileKeyOverflow checks that wide QI sets group exactly: with
// 11 attributes of 100 categories the joint profile space (100^11) dwarfs
// any fixed-width key, and the result must still match the reference.
func TestRSRLProfileKeyOverflow(t *testing.T) {
	const numAttrs, card, n = 11, 100, 40 // 100^11 ≈ 1e22 > 2^64
	cats := make([]string, card)
	for i := range cats {
		cats[i] = string(rune('A'+i/26)) + string(rune('a'+i%26))
	}
	specs := make([]*dataset.Attribute, numAttrs)
	attrs := make([]int, numAttrs)
	for a := range specs {
		specs[a] = dataset.MustAttribute(string(rune('p'+a)), cats, true)
		attrs[a] = a
	}
	d := dataset.New(dataset.MustSchema(specs...), n)
	rng := rand.New(rand.NewPCG(41, 3))
	for r := 0; r < n; r++ {
		for c := 0; c < numAttrs; c++ {
			d.Set(r, c, rng.IntN(card))
		}
	}
	masked := scramble(d, attrs, 9)
	rl := &RankIntervalLinkage{P: 20}
	if got, want := rl.Risk(d, masked, attrs), rsrlReference(rl, d, masked, attrs); got != want {
		t.Fatalf("overflowing profile space: bitset %v != reference %v", got, want)
	}
}
