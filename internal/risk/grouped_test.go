package risk

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"testing"

	"evoprot/internal/dataset"
)

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
		dataset.RandomChange(rng, masked, attrs)
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
			work := fx.masked.Clone()
			for step := 0; step < 12; step++ {
				spec := work.Clone()
				changes := make([]dataset.CellChange, 1+rng.IntN(4))
				for i := range changes {
					changes[i] = dataset.RandomChange(rng, spec, fx.attrs)
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
