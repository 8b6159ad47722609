package risk

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"evoprot/internal/dataset"
	"evoprot/internal/dataset/datasettest"
)

// emEstimate is emEstimateInto with freshly allocated buffers, returning
// the per-attribute match probabilities m, non-match probabilities u and
// the match-class prevalence p.
func emEstimate(patCount []float64, numAttrs int, totalPairs, trueMatches float64, iters int) (m, u []float64, p float64) {
	m = make([]float64, numAttrs)
	u = make([]float64, numAttrs)
	p = emEstimateInto(m, u, make([]float64, numAttrs), make([]float64, numAttrs), patCount, totalPairs, trueMatches, iters)
	return m, u, p
}

// dbrlReference is the literal pairwise O(n²·attrs) distance-based record
// linkage the grouped kernel in grouped.go replaced; kept as the oracle
// for the equivalence properties below.
func dbrlReference(orig, masked *dataset.Dataset, attrs []int) float64 {
	n := orig.Rows()
	if n == 0 || len(attrs) == 0 {
		return 0
	}
	oc, mc := columnsInto(nil, orig, attrs), columnsInto(nil, masked, attrs)
	tables := distanceTables(orig, attrs)
	credit := 0.0
	for i := 0; i < n; i++ {
		best := int64(1) << 62
		count := 0
		containsTrue := false
		for j := 0; j < n; j++ {
			var d int64
			for a := range tables {
				d += tables[a].at(oc[a][i], mc[a][j])
			}
			switch {
			case d < best:
				best, count, containsTrue = d, 1, j == i
			case d == best:
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

// prlReference is the literal pairwise O(n²·attrs) probabilistic record
// linkage the grouped kernel in grouped.go replaced; kept as the oracle
// for the equivalence properties below.
func prlReference(pl *ProbabilisticLinkage, orig, masked *dataset.Dataset, attrs []int) float64 {
	iters := pl.EMIters
	if iters <= 0 {
		iters = 30
	}
	n := orig.Rows()
	if n == 0 || len(attrs) == 0 {
		return 0
	}
	oc, mc := columnsInto(nil, orig, attrs), columnsInto(nil, masked, attrs)
	numPat := 1 << len(attrs)
	patCount := make([]float64, numPat)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			patCount[pattern(i, j, oc, mc)]++
		}
	}
	m, u, _ := emEstimate(patCount, len(attrs), float64(n)*float64(n), float64(n), iters)
	weights := make([]float64, numPat)
	for pat := range weights {
		for a := range attrs {
			if pat&(1<<a) != 0 {
				weights[pat] += math.Log2(m[a] / u[a])
			} else {
				weights[pat] += math.Log2((1 - m[a]) / (1 - u[a]))
			}
		}
	}
	credit := 0.0
	for i := 0; i < n; i++ {
		best := math.Inf(-1)
		count := 0
		containsTrue := false
		for j := 0; j < n; j++ {
			w := weights[pattern(i, j, oc, mc)]
			switch {
			case w > best:
				best, count, containsTrue = w, 1, j == i
			case w == best:
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

// pattern returns the agreement bitmask between original record i and
// masked record j: bit a is set when they agree on attribute a.
func pattern(i, j int, oc, mc [][]int) int {
	pat := 0
	for a := range oc {
		if oc[a][i] == mc[a][j] {
			pat |= 1 << a
		}
	}
	return pat
}

// linkageCase is one oracle fixture: an original file, a masking of it
// and the protected attributes.
type linkageCase struct {
	name         string
	orig, masked *dataset.Dataset
	attrs        []int
}

// linkageGrid builds a random fixture of n records over numAttrs protected
// attributes, each nominal or ordered at random. Shape "dup" draws from
// two or three categories per attribute, so tuples repeat heavily;
// "mixed" from up to nine; "unique" makes attribute 0 a permuted record
// key, so every tuple is distinct. The masking edits a random share of
// the cells, from none to about every cell.
func linkageGrid(rng *rand.Rand, n, numAttrs int, shape string) linkageCase {
	specs := make([]*dataset.Attribute, numAttrs)
	attrs := make([]int, numAttrs)
	for a := range specs {
		var card int
		switch {
		case shape == "unique" && a == 0:
			card = n + 1
		case shape == "dup":
			card = 2 + rng.IntN(2)
		default:
			card = 2 + rng.IntN(8)
		}
		cats := make([]string, card)
		for i := range cats {
			cats[i] = fmt.Sprintf("a%dc%d", a, i)
		}
		specs[a] = dataset.MustAttribute(fmt.Sprintf("p%d", a), cats, rng.IntN(2) == 0)
		attrs[a] = a
	}
	d := dataset.New(dataset.MustSchema(specs...), n)
	perm := rng.Perm(n)
	for r := 0; r < n; r++ {
		for c := 0; c < numAttrs; c++ {
			if shape == "unique" && c == 0 {
				d.Set(r, c, perm[r])
			} else {
				d.Set(r, c, rng.IntN(specs[c].Cardinality()))
			}
		}
	}
	masked := d.Clone()
	for k := rng.IntN(2*n*numAttrs + 1); k > 0; k-- {
		datasettest.RandomChange(rng, masked, attrs)
	}
	return linkageCase{name: fmt.Sprintf("%s/n=%d/attrs=%d", shape, n, numAttrs), orig: d, masked: masked, attrs: attrs}
}

// groupedOracle pairs a grouped measure with its pairwise oracle.
type groupedOracle struct {
	m   Reversible
	ref func(orig, masked *dataset.Dataset, attrs []int) float64
}

// groupedReferences returns DBRL, PRL and RSRL with their pairwise
// oracles. RSRL comes last, so the random draws of its chains follow
// those of DBRL and PRL.
func groupedReferences() []groupedOracle {
	pl := &ProbabilisticLinkage{}
	rl := &RankIntervalLinkage{}
	return []groupedOracle{
		{&DistanceLinkage{}, dbrlReference},
		{pl, func(o, m *dataset.Dataset, a []int) float64 { return prlReference(pl, o, m, a) }},
		{rl, func(o, m *dataset.Dataset, a []int) float64 { return rsrlReference(rl, o, m, a) }},
	}
}

// checkGrouped demands bit-identical DBRL, PRL and RSRL values from the
// pairwise oracles, full Risk and Prepare then Apply(nil) on one fixture.
// It returns the incremental states, nil where Prepare declines.
func checkGrouped(t *testing.T, fx linkageCase) []State {
	t.Helper()
	var states []State
	for _, gr := range groupedReferences() {
		want := gr.ref(fx.orig, fx.masked, fx.attrs)
		if got := gr.m.Risk(fx.orig, fx.masked, fx.attrs); got != want {
			t.Fatalf("%s %s: Risk %v != pairwise reference %v", fx.name, gr.m.Name(), got, want)
		}
		st := gr.m.Prepare(fx.orig, fx.masked.Clone(), fx.attrs)
		if st != nil {
			if got := gr.m.Apply(st, nil); got != want {
				t.Fatalf("%s %s: Prepare+Apply(nil) %v != pairwise reference %v", fx.name, gr.m.Name(), got, want)
			}
		} else if _, ok := gr.m.(*ProbabilisticLinkage); !ok || 1<<len(fx.attrs) <= fx.orig.Rows() {
			t.Fatalf("%s %s: Prepare returned nil", fx.name, gr.m.Name())
		}
		states = append(states, st)
	}
	return states
}

// TestGroupedLinkageMatchesPairwise is the oracle for the DBRL, PRL and
// RSRL kernels that group records through tupleGroups: over random grids
// with 1–6 attributes, duplicate-heavy, mixed and all-unique tuples and
// n = 1…150, full Risk, Prepare then Apply(nil), and random
// Apply/ApplyUndo/Undo chains must all equal the literal pairwise scans
// bit for bit. RSRL's chains draw from their own generator, so the DBRL
// and PRL cases stay those of the two-measure suite.
func TestGroupedLinkageMatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewPCG(97, 13))
	rsrlRng := rand.New(rand.NewPCG(98, 13))
	shapes := []string{"dup", "mixed", "unique"}
	for c := 0; c < 300; c++ {
		n := 1 + rng.IntN(150)
		if c < 10 {
			n = 1 + c // the smallest files, where every record is its own tie
		}
		fx := linkageGrid(rng, n, 1+rng.IntN(6), shapes[c%len(shapes)])
		if c%2 == 1 {
			rng.IntN(n) // a spare draw that keeps the case stream fixed
		}
		states := checkGrouped(t, fx)
		if c%5 != 0 {
			continue
		}
		for k, gr := range groupedReferences() {
			st := states[k]
			if st == nil {
				continue
			}
			rng := rng
			if _, ok := gr.m.(*RankIntervalLinkage); ok {
				rng = rsrlRng
			}
			checkChain(t, gr, st, fx, rng, 12, 4)
		}
	}
}

// checkChain drives st, a state of gr's measure prepared on fx, through
// steps random change lists of 1…maxWidth cells: every third list is
// committed with Apply, the others are applied with ApplyUndo and undone.
// Every value must equal the pairwise oracle of the file it describes.
func checkChain(t *testing.T, gr groupedOracle, st State, fx linkageCase, rng *rand.Rand, steps, maxWidth int) {
	t.Helper()
	work := fx.masked.Clone()
	for step := 0; step < steps; step++ {
		spec := work.Clone()
		changes := make([]dataset.CellChange, 1+rng.IntN(maxWidth))
		for i := range changes {
			changes[i] = datasettest.RandomChange(rng, spec, fx.attrs)
		}
		if step%3 == 0 {
			got := gr.m.Apply(st, changes)
			work = spec
			if want := gr.ref(fx.orig, work, fx.attrs); got != want {
				t.Fatalf("%s %s step %d: Apply %v != pairwise reference %v", fx.name, gr.m.Name(), step, got, want)
			}
			continue
		}
		got := gr.m.ApplyUndo(st, changes)
		if want := gr.ref(fx.orig, spec, fx.attrs); got != want {
			t.Fatalf("%s %s step %d: ApplyUndo %v != pairwise reference %v", fx.name, gr.m.Name(), step, got, want)
		}
		gr.m.Undo(st)
		if got, want := gr.m.Apply(st, nil), gr.ref(fx.orig, work, fx.attrs); got != want {
			t.Fatalf("%s %s step %d: after Undo %v != pairwise reference %v", fx.name, gr.m.Name(), step, got, want)
		}
	}
}

// FuzzLinkageGrouped feeds arbitrary small files through the grouped DBRL,
// PRL and RSRL kernels and the pairwise oracles. The first byte picks the
// attribute count (1–6), the next ones each attribute's cardinality (low
// bits) and ordering (high bit), and every following 2·attrs bytes one
// record: its original then its masked tuple.
func FuzzLinkageGrouped(f *testing.F) {
	f.Add([]byte{2, 1, 1, 1, 0})
	f.Add([]byte{2, 0x83, 2, 0, 1, 1, 0, 2, 2, 0, 0, 1, 1, 2, 1, 0, 0})
	f.Add([]byte{1, 0x85, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 0, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		numAttrs := 1 + int(data[0])%6
		data = data[1:]
		if len(data) < numAttrs {
			return
		}
		specs := make([]*dataset.Attribute, numAttrs)
		attrs := make([]int, numAttrs)
		for a := range specs {
			card := 2 + int(data[a]&0x3f)%10
			cats := make([]string, card)
			for i := range cats {
				cats[i] = fmt.Sprintf("c%d", i)
			}
			specs[a] = dataset.MustAttribute(fmt.Sprintf("p%d", a), cats, data[a]&0x80 != 0)
			attrs[a] = a
		}
		data = data[numAttrs:]
		n := min(len(data)/(2*numAttrs), 150)
		if n == 0 {
			return
		}
		orig := dataset.New(dataset.MustSchema(specs...), n)
		masked := dataset.New(dataset.MustSchema(specs...), n)
		for r := 0; r < n; r++ {
			rec := data[2*numAttrs*r:]
			for a := range attrs {
				card := specs[a].Cardinality()
				orig.Set(r, a, int(rec[a])%card)
				masked.Set(r, a, int(rec[numAttrs+a])%card)
			}
		}
		checkGrouped(t, linkageCase{name: "fuzz", orig: orig, masked: masked, attrs: attrs})
	})
}

// TestTupleGroupsPartition pins the grouping pass itself: groups are
// numbered in first-seen order, every record maps to the group holding
// its tuple, multiplicities add up, and reusing the scratch for a smaller
// or larger file leaves nothing behind.
func TestTupleGroupsPartition(t *testing.T) {
	var g tupleGroups
	rng := rand.New(rand.NewPCG(3, 3))
	for _, size := range []struct{ n, card int }{{200, 3}, {7, 2}, {300, 5}, {1, 2}, {150, 1000}} {
		cols := [][]int{make([]int, size.n), make([]int, size.n)}
		for i := 0; i < size.n; i++ {
			cols[0][i], cols[1][i] = rng.IntN(size.card), rng.IntN(3)
		}
		g.group(cols, size.n)
		total := int64(0)
		for k, m := range g.mult {
			total += m
			if f := g.first[k]; int(g.of[f]) != k || (k > 0 && f <= g.first[k-1]) {
				t.Fatalf("%+v: group %d first seen at %d, out of order", size, k, f)
			}
		}
		if int(total) != size.n || len(g.of) != size.n {
			t.Fatalf("%+v: %d records grouped (%d mapped), want %d", size, total, len(g.of), size.n)
		}
		for i, k := range g.of {
			if !g.holds(int(k), cols, i) {
				t.Fatalf("%+v: record %d mapped to group %d with another tuple", size, i, k)
			}
			for h := range g.mult {
				if h != int(k) && g.holds(h, cols, i) {
					t.Fatalf("%+v: tuple of record %d split over groups %d and %d", size, i, k, h)
				}
			}
		}
	}
}

// TestGroupedLinkageConcurrent runs the grouped kernels from several
// goroutines at once — as parallel evaluation does, sharing the pooled
// scratch — and demands every value match its sequential twin.
func TestGroupedLinkageConcurrent(t *testing.T) {
	rng := rand.New(rand.NewPCG(61, 5))
	cases := make([]linkageCase, 8)
	for k := range cases {
		cases[k] = linkageGrid(rng, 20+rng.IntN(100), 1+rng.IntN(4), []string{"dup", "mixed", "unique"}[k%3])
	}
	measures := []Incremental{&DistanceLinkage{}, &ProbabilisticLinkage{}, &RankIntervalLinkage{}}
	want := make([][]float64, len(cases))
	for k, fx := range cases {
		for _, m := range measures {
			want[k] = append(want[k], m.Risk(fx.orig, fx.masked, fx.attrs))
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				for k := range cases {
					fx := cases[(k+w)%len(cases)]
					for i, m := range measures {
						if got := m.Risk(fx.orig, fx.masked, fx.attrs); got != want[(k+w)%len(cases)][i] {
							t.Errorf("%s %s: concurrent Risk %v != sequential %v", fx.name, m.Name(), got, want[(k+w)%len(cases)][i])
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// tupleFixture builds an original file and its masking over ordered
// protected attributes of card categories from literal records: orig[r]
// and masked[r] are record r's tuples.
func tupleFixture(name string, card int, orig, masked [][]int) linkageCase {
	numAttrs := len(orig[0])
	specs := make([]*dataset.Attribute, numAttrs)
	attrs := make([]int, numAttrs)
	for a := range specs {
		cats := make([]string, card)
		for i := range cats {
			cats[i] = fmt.Sprintf("c%d", i)
		}
		specs[a] = dataset.MustAttribute(fmt.Sprintf("p%d", a), cats, true)
		attrs[a] = a
	}
	schema := dataset.MustSchema(specs...)
	fx := linkageCase{name: name, orig: dataset.New(schema, len(orig)), masked: dataset.New(schema, len(orig)), attrs: attrs}
	for r := range orig {
		for a := range attrs {
			fx.orig.Set(r, a, orig[r][a])
			fx.masked.Set(r, a, masked[r][a])
		}
	}
	return fx
}

// rescanFixture is TestLinkageStateTupleEdges' first fixture and the
// change that forces its DBRL state to rescan tuple (0,0).
func rescanFixture() (linkageCase, []dataset.CellChange) {
	fx := tupleFixture("rescan", 5,
		[][]int{{0, 0}, {0, 0}, {0, 0}, {4, 4}, {4, 4}, {2, 2}, {3, 1}, {1, 3}},
		[][]int{{0, 0}, {1, 1}, {0, 2}, {4, 4}, {3, 4}, {2, 2}, {3, 1}, {1, 4}})
	return fx, []dataset.CellChange{{Row: 0, Col: 0, Old: 0, New: 4}}
}

// TestLinkageStateTupleEdges pins two per-tuple paths of the DBRL and PRL
// states that random grids reach only by chance. In the first fixture
// the tuple (0,0) of records 0–2 has masked record 0 as its unique
// nearest neighbour, and the first change moves that record away, so the
// DBRL state must rescan the whole tuple. In the second every original
// record holds the same tuple (D = 1). Both run Apply/ApplyUndo/Undo
// chains, narrow and past the break-even, against the pairwise oracles.
func TestLinkageStateTupleEdges(t *testing.T) {
	rescan, moveAway := rescanFixture()
	st := (&DistanceLinkage{}).Prepare(rescan.orig, rescan.masked, rescan.attrs).(*dbrlState)
	g := st.orig.of[0]
	if st.orig.mult[g] != 3 || st.best[g] != 0 || st.count[g] != 1 {
		t.Fatalf("rescan fixture: tuple (0,0) has %d records, nearest distance %d shared by %d; want 3, 0, 1",
			st.orig.mult[g], st.best[g], st.count[g])
	}
	want := dbrlReference(rescan.orig, edited(rescan.masked, moveAway), rescan.attrs)
	if got := (&DistanceLinkage{}).ApplyUndo(st, moveAway); got != want {
		t.Fatalf("rescan fixture: ApplyUndo %v != pairwise reference %v", got, want)
	}
	// Masked records 1 and 2 now tie at half a category range.
	if st.best[g] != scaleUnit/2 || st.count[g] != 2 {
		t.Fatalf("rescan fixture: after the move, nearest distance %d shared by %d; want %d, 2", st.best[g], st.count[g], scaleUnit/2)
	}

	same := make([][]int, 10)
	rng := rand.New(rand.NewPCG(71, 9))
	masked := make([][]int, len(same))
	for r := range same {
		same[r] = []int{1, 2, 0}
		masked[r] = []int{rng.IntN(3), rng.IntN(3), rng.IntN(3)}
	}
	single := tupleFixture("single-tuple", 3, same, masked)

	for _, fx := range []linkageCase{rescan, single} {
		for _, gr := range groupedReferences()[:2] {
			st := gr.m.Prepare(fx.orig, fx.masked.Clone(), fx.attrs)
			var tuples int
			switch s := st.(type) {
			case *dbrlState:
				tuples = len(s.orig.mult)
			case *prlState:
				tuples = len(s.orig.mult)
			}
			if fx.name == "single-tuple" && tuples != 1 {
				t.Fatalf("%s %s: %d original tuples, want 1", fx.name, gr.m.Name(), tuples)
			}
			if fx.name == "rescan" {
				// Start the chain with the move that forces the rescan,
				// speculatively and then committed.
				want := gr.ref(fx.orig, edited(fx.masked, moveAway), fx.attrs)
				if got := gr.m.ApplyUndo(st, moveAway); got != want {
					t.Fatalf("%s %s: ApplyUndo %v != pairwise reference %v", fx.name, gr.m.Name(), got, want)
				}
				gr.m.Undo(st)
				if got := gr.m.Apply(st.CloneState(), moveAway); got != want {
					t.Fatalf("%s %s: Apply on a clone %v != pairwise reference %v", fx.name, gr.m.Name(), got, want)
				}
			}
			cells := fx.orig.Rows() * len(fx.attrs)
			if !linkageWide(t, st, randomChanges(fx.masked, fx.attrs, cells, 5)) {
				t.Fatalf("%s %s: a list of %d cells is patched, not re-linked", fx.name, gr.m.Name(), cells)
			}
			checkChain(t, gr, st, fx, rand.New(rand.NewPCG(72, uint64(len(fx.name)))), 30, cells)
		}
	}
}

// TestDBRLUndoRestoresRows: Undo restores a journalled narrow ApplyUndo
// from before-images, not by patching back. On the rescan fixture, where
// the move rescans tuple (0,0) and changes record 0's true-match
// distance, the state after ApplyUndo and Undo — on its own and followed
// by a second move — must hold exactly the masked cells, rows and
// true-match distances a state prepared from the unedited file holds.
func TestDBRLUndoRestoresRows(t *testing.T) {
	fx, moveAway := rescanFixture()
	dl := &DistanceLinkage{}
	st := dl.Prepare(fx.orig, fx.masked, fx.attrs).(*dbrlState)
	want := dl.Prepare(fx.orig, fx.masked, fx.attrs).(*dbrlState)
	back := []dataset.CellChange{{Row: 4, Col: 1, Old: 4, New: 0}, {Row: 0, Col: 0, Old: 0, New: 2}}
	for _, changes := range [][]dataset.CellChange{moveAway, back} {
		if dl.ApplyUndo(st, changes); len(st.rowLog) == 0 || len(st.distLog) == 0 {
			t.Fatalf("%v: journalled %d rows and %d distances; the fixture must move both", changes, len(st.rowLog), len(st.distLog))
		}
		dl.Undo(st)
		if !st.mc.Equal(want.mc) {
			t.Fatalf("%v: masked cells after Undo %v, want %v", changes, st.mc.Records(), want.mc.Records())
		}
		if !slices.Equal(st.best, want.best) || !slices.Equal(st.count, want.count) {
			t.Fatalf("%v: rows after Undo best %v count %v, want %v %v", changes, st.best, st.count, want.best, want.count)
		}
		if !slices.Equal(st.trueDist, want.trueDist) {
			t.Fatalf("%v: true-match distances after Undo %v, want %v", changes, st.trueDist, want.trueDist)
		}
	}
}

// strongestScan is strongestLinks' reference: a full scan of every
// pattern of every row, in pattern order.
func strongestScan(weights []float64, cnt []int32, bestW []float64, ties []int32) {
	numPat := len(weights)
	for g := range bestW {
		best, count := math.Inf(-1), int32(0)
		for pat, c := range cnt[g*numPat : (g+1)*numPat] {
			if c == 0 {
				continue
			}
			switch w := weights[pat]; {
			case w > best:
				best, count = w, c
			case w == best:
				count += c
			}
		}
		bestW[g], ties[g] = best, count
	}
}

// TestStrongestLinksMatchesFullScan: ordering the patterns by weight and
// stopping each row at its first count must find the full scan's highest
// weight, bit for bit, and tie count, on weights holding NaN, -Inf, +0
// and -0 in both orders, equal finite weights, and rows counting only
// NaN patterns, only -Inf ones, or none.
func TestStrongestLinksMatchesFullScan(t *testing.T) {
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	weightSets := [][]float64{
		{nan, -inf, 0, negZero, 1.5, 1.5, -inf, nan},
		{negZero, 0, nan, -inf, -2, nan, negZero, 0},
		{-inf, -inf, nan, nan, -inf, nan, -inf, nan},
		{3, nan, 3, 0, negZero, 3, -inf, inf},
		{nan, nan, nan, nan, nan, nan, nan, nan},
	}
	const numPat = 8
	rng := rand.New(rand.NewPCG(17, 3))
	var order []int32
	for s, weights := range weightSets {
		// One row per single pattern and per pair of patterns, then random
		// rows with sparse counts.
		var cnt []int32
		for p := range numPat {
			for q := p; q < numPat; q++ {
				row := make([]int32, numPat)
				row[p]++
				row[q] += 2
				cnt = append(cnt, row...)
			}
		}
		for range 40 {
			for range numPat {
				c := int32(0)
				if rng.IntN(3) == 0 {
					c = int32(1 + rng.IntN(4))
				}
				cnt = append(cnt, c)
			}
		}
		cnt = append(cnt, make([]int32, numPat)...) // an empty row
		rows := len(cnt) / numPat
		gotW, wantW := make([]float64, rows), make([]float64, rows)
		gotT, wantT := make([]int32, rows), make([]int32, rows)
		order = strongestLinks(weights, cnt, order, gotW, gotT)
		strongestScan(weights, cnt, wantW, wantT)
		for g := range rows {
			if math.Float64bits(gotW[g]) != math.Float64bits(wantW[g]) || gotT[g] != wantT[g] {
				t.Fatalf("weights %d row %v: strongest %v x%d, full scan %v x%d",
					s, cnt[g*numPat:(g+1)*numPat], gotW[g], gotT[g], wantW[g], wantT[g])
			}
		}
	}
}

// TestLinkageStatesConcurrent drives clones of one prepared DBRL and one
// PRL state from several goroutines at once, as parallel batch
// evaluation does. The clones share the parent's original grouping
// read-only; each runs narrow ApplyUndo/Undo pairs, one wide ApplyUndo
// and narrow and wide Apply commits, and checks every value against a
// full Risk of the edited file, so the pooled scratch alternates between
// full Risk's own grouping and a state's.
func TestLinkageStatesConcurrent(t *testing.T) {
	fx := linkageGrid(rand.New(rand.NewPCG(62, 5)), 120, 3, "dup")
	n := fx.orig.Rows()
	for _, m := range []Reversible{&DistanceLinkage{}, &ProbabilisticLinkage{}} {
		parent := m.Prepare(fx.orig, fx.masked.Clone(), fx.attrs)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				st := parent.CloneState()
				rng := rand.New(rand.NewPCG(uint64(w), 63))
				work := fx.masked.Clone()
				check := func(step int, what string, got float64, d *dataset.Dataset) {
					if want := m.Risk(fx.orig, d, fx.attrs); got != want {
						t.Errorf("%s worker %d step %d: %s %v != full Risk %v", m.Name(), w, step, what, got, want)
					}
				}
				for step := 0; step < 24; step++ {
					width := 1 + rng.IntN(3)
					if step == 5 || step == 15 { // one wide ApplyUndo, one wide commit
						width = n / 2
					}
					spec := work.Clone()
					changes := make([]dataset.CellChange, width)
					for i := range changes {
						changes[i] = datasettest.RandomChange(rng, spec, fx.attrs)
					}
					if width == n/2 && !linkageWide(t, st, changes) {
						t.Errorf("%s worker %d step %d: a %d-cell list is patched, not re-linked", m.Name(), w, step, width)
					}
					if step%5 == 0 && step != 5 { // every fifth list but the wide speculative one commits
						check(step, "Apply", m.Apply(st, changes), spec)
						work = spec
						continue
					}
					check(step, "ApplyUndo", m.ApplyUndo(st, changes), spec)
					m.Undo(st)
					check(step, "after Undo", m.Apply(st, nil), work)
				}
			}(w)
		}
		wg.Wait()
		if got, want := m.Apply(parent, nil), m.Risk(fx.orig, fx.masked, fx.attrs); got != want {
			t.Fatalf("%s: parent state %v after its clones ran != full Risk %v", m.Name(), got, want)
		}
	}
}
