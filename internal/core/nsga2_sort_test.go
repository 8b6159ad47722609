package core

// Equivalence gates for the two-objective non-dominated sort: the sweep
// must reproduce the pairwise O(n²) fast non-dominated sort (Deb et al.
// 2002) — ranks, front membership and in-front order — on tie-heavy and
// non-finite pools; environmental selection plus the (rank, score) sort
// must reproduce the route that re-ranked the survivors from scratch; a
// NaN aggregated score must keep the population order of the
// sort.SliceStable route; and a warm engine must replace and re-sort
// without allocating.

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"strconv"
	"testing"

	"evoprot/internal/datagen"
	"evoprot/internal/datagen/datagentest"
	"evoprot/internal/dataset"
	"evoprot/internal/pareto"
	"evoprot/internal/protection"
	"evoprot/internal/score"
)

// assignRanksPairwise is the O(n²) fast non-dominated sort the sweep
// replaced, kept as the test oracle.
func assignRanksPairwise(inds []*Individual) [][]*Individual {
	n := len(inds)
	domCount := make([]int, n)
	dominated := make([][]int, n)
	for i := 0; i < n; i++ {
		pi := inds[i].Eval.Pair()
		for j := i + 1; j < n; j++ {
			pj := inds[j].Eval.Pair()
			switch {
			case pareto.Dominates(pi, pj):
				dominated[i] = append(dominated[i], j)
				domCount[j]++
			case pareto.Dominates(pj, pi):
				dominated[j] = append(dominated[j], i)
				domCount[i]++
			}
		}
	}
	var fronts [][]*Individual
	current := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if domCount[i] == 0 {
			current = append(current, i)
		}
	}
	rank := 0
	for len(current) > 0 {
		front := make([]*Individual, len(current))
		var next []int
		for k, i := range current {
			inds[i].rank = rank
			front[k] = inds[i]
			for _, j := range dominated[i] {
				domCount[j]--
				if domCount[j] == 0 {
					next = append(next, j)
				}
			}
		}
		sort.Ints(next)
		fronts = append(fronts, front)
		current = next
		rank++
	}
	return fronts
}

// assignCrowdingOracle is crowding through sort.SliceStable, the route
// assignCrowding's generic sorts must reproduce.
func assignCrowdingOracle(front []*Individual) {
	for _, ind := range front {
		ind.crowd = 0
	}
	if len(front) <= 2 {
		for _, ind := range front {
			ind.crowd = math.Inf(1)
		}
		return
	}
	s := make([]*Individual, len(front))
	copy(s, front)
	for axis := 0; axis < 2; axis++ {
		sort.SliceStable(s, func(i, j int) bool { return objective(s[i], axis) < objective(s[j], axis) })
		lo, hi := objective(s[0], axis), objective(s[len(s)-1], axis)
		s[0].crowd = math.Inf(1)
		s[len(s)-1].crowd = math.Inf(1)
		if span := hi - lo; span > 0 {
			for i := 1; i < len(s)-1; i++ {
				s[i].crowd += (objective(s[i+1], axis) - objective(s[i-1], axis)) / span
			}
		}
	}
}

// replaceOracle is the replacement route the single rank pass replaced:
// pairwise ranking, crowding and truncation of the pool, then a full
// re-ranking of the survivors and the sort.SliceStable (rank, score)
// sort.
func replaceOracle(pool []*Individual, n int) []*Individual {
	kept := make([]*Individual, 0, n)
	for _, f := range assignRanksPairwise(pool) {
		assignCrowdingOracle(f)
		if len(kept)+len(f) <= n {
			kept = append(kept, f...)
			continue
		}
		sort.SliceStable(f, func(i, j int) bool { return f[i].crowd > f[j].crowd })
		kept = append(kept, f[:n-len(kept)]...)
		break
	}
	for _, f := range assignRanksPairwise(kept) {
		assignCrowdingOracle(f)
	}
	sort.SliceStable(kept, func(i, j int) bool {
		if kept[i].rank != kept[j].rank {
			return kept[i].rank < kept[j].rank
		}
		return kept[i].Eval.Score < kept[j].Eval.Score
	})
	return kept
}

// gridPairs draws n pairs on a small integer grid — so exact ties,
// duplicates and one-axis ties are common — with a share of NaN and ±Inf
// components.
func gridPairs(rng *rand.Rand, n int) []score.Pair {
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	coord := func() float64 {
		if rng.IntN(12) == 0 {
			return special[rng.IntN(len(special))]
		}
		return float64(rng.IntN(8))
	}
	pairs := make([]score.Pair, n)
	for i := range pairs {
		pairs[i] = score.Pair{IL: coord(), DR: coord()}
	}
	return pairs
}

// checkRanks compares the sweep against the pairwise oracle on one pool.
func checkRanks(t *testing.T, s *nsgaSort, pairs []score.Pair) {
	t.Helper()
	got := s.assignRanks(pairPool(pairs))
	oracle := pairPool(pairs)
	want := assignRanksPairwise(oracle)
	if len(got) != len(want) {
		t.Fatalf("%v: %d fronts, oracle %d", pairs, len(got), len(want))
	}
	for k := range want {
		if len(got[k]) != len(want[k]) {
			t.Fatalf("%v: front %d has %d members, oracle %d", pairs, k, len(got[k]), len(want[k]))
		}
		for j := range want[k] {
			g, w := got[k][j], want[k][j]
			if g.rank != k || w.rank != k || !samePair(g.Eval.Pair(), w.Eval.Pair()) {
				t.Fatalf("%v: front %d member %d is %v (rank %d), oracle %v", pairs, k, j, g.Eval.Pair(), g.rank, w.Eval.Pair())
			}
		}
	}
	if f, w := s.front(), pareto.Front(pairs); !slices.EqualFunc(f, w, samePair) {
		t.Fatalf("%v: first front %v, pareto.Front %v", pairs, f, w)
	}
}

// samePair compares pairs bit for bit, so NaN equals NaN.
func samePair(a, b score.Pair) bool {
	return math.Float64bits(a.IL) == math.Float64bits(b.IL) && math.Float64bits(a.DR) == math.Float64bits(b.DR)
}

// TestAssignRanksMatchesPairwise: on random tie-heavy pools with
// non-finite members, the sweep's ranks, front membership and in-front
// order match the pairwise sort, and its first front matches
// pareto.Front. One sorter serves every pool, so stale buffer state would
// show too.
func TestAssignRanksMatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 43))
	var s nsgaSort
	for trial := 0; trial < 2000; trial++ {
		checkRanks(t, &s, gridPairs(rng, rng.IntN(61)))
	}
}

func FuzzAssignRanks(f *testing.F) {
	f.Add([]byte{1, 2, 2, 1, 1, 1, 3, 0, 0, 3})
	f.Add([]byte{0, 0, 0, 0, 255, 7, 7, 255, 254, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRanks(t, new(nsgaSort), fuzzPairs(data))
	})
}

// fuzzPairs decodes FuzzAssignRanks' input: each byte is one coordinate,
// 0..7 on the grid, the rest NaN or ±Inf.
func fuzzPairs(data []byte) []score.Pair {
	coord := func(b byte) float64 {
		switch {
		case b < 240:
			return float64(b % 8)
		case b < 248:
			return math.NaN()
		case b < 252:
			return math.Inf(1)
		}
		return math.Inf(-1)
	}
	pairs := make([]score.Pair, len(data)/2)
	for i := range pairs {
		pairs[i] = score.Pair{IL: coord(data[2*i]), DR: coord(data[2*i+1])}
	}
	return pairs
}

// checkEnvSelect runs one environmental selection of a pool of the given
// pairs down to n survivors, then the generic (rank, score) sort, and
// requires the population, its ranks and its crowding to be bit-identical
// to re-ranking the survivors from scratch through the pairwise sort and
// sort.SliceStable, and the front read off the sweep to match
// pareto.Front of the survivors.
func checkEnvSelect(t *testing.T, e *Engine, pairs []score.Pair, n int) {
	t.Helper()
	pool := pairPool(pairs)
	for i, ind := range pool {
		ind.Origin = strconv.Itoa(i)
	}
	oracle := make([]*Individual, len(pool))
	for i, ind := range pool {
		c := *ind
		oracle[i] = &c
	}
	e.pop = append(e.pop[:0], e.nsga.envSelect(pool, n)...)
	e.sortRanked()
	want := replaceOracle(oracle, n)
	for i, w := range want {
		g := e.pop[i]
		if g.Origin != w.Origin || g.rank != w.rank || math.Float64bits(g.crowd) != math.Float64bits(w.crowd) {
			t.Fatalf("%v to %d: position %d: %s rank %d crowd %v, oracle %s rank %d crowd %v",
				pairs, n, i, g.Origin, g.rank, g.crowd, w.Origin, w.rank, w.crowd)
		}
	}
	kept := make([]score.Pair, len(want))
	for i, w := range want {
		kept[i] = w.Eval.Pair()
	}
	if f, w := e.nsga.front(), pareto.Front(kept); !slices.EqualFunc(f, w, samePair) {
		t.Fatalf("%v to %d: front %v, pareto.Front of survivors %v", pairs, n, f, w)
	}
}

// convergedPairs draws a converged pool: most members on one front of m
// points, each repeated up to four times, plus a few dominated
// stragglers, shuffled. On the integer grid neighbouring gaps are equal,
// so crowding ties are common; jittered, each point's crowding differs.
func convergedPairs(rng *rand.Rand, jitter bool) []score.Pair {
	m := 3 + rng.IntN(12)
	var pairs []score.Pair
	for i := 0; i < m; i++ {
		p := score.Pair{IL: float64(i), DR: float64(m - i)}
		if jitter {
			p.IL += rng.Float64() / 2
			p.DR += rng.Float64() / 2
		}
		for range 1 + rng.IntN(4) {
			pairs = append(pairs, p)
		}
	}
	for range rng.IntN(4) {
		pairs = append(pairs, score.Pair{IL: float64(m + rng.IntN(3)), DR: float64(m + rng.IntN(3))})
	}
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	return pairs
}

// TestEnvSelectMatchesOracle: one ranking pass of the pool — survivors
// keeping their pool ranks, crowding read off the sweep order, the
// truncated front re-crowded in kept order — matches the oracle route
// (checkEnvSelect) on tie-heavy pools with non-finite members, on
// continuous ones, and on converged pools whose one big front holds
// blocks of equal pairs that straddle the cut.
func TestEnvSelectMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(47, 53))
	e := &Engine{}
	for trial := 0; trial < 2000; trial++ {
		n := 2 + rng.IntN(30)
		pairs := gridPairs(rng, n+1+rng.IntN(3))
		if trial%2 == 0 {
			for i := range pairs { // continuous values: distinct crowding
				pairs[i].IL += rng.Float64()
				pairs[i].DR += rng.Float64()
			}
		}
		checkEnvSelect(t, e, pairs, n)
	}
	for trial := 0; trial < 2000; trial++ {
		pairs := convergedPairs(rng, trial%2 == 0)
		checkEnvSelect(t, e, pairs, 1+rng.IntN(len(pairs)-1))
	}
}

func FuzzEnvSelect(f *testing.F) {
	f.Add(byte(3), []byte{1, 2, 2, 1, 1, 1, 3, 0, 0, 3})
	f.Add(byte(4), []byte{0, 3, 1, 2, 1, 2, 2, 1, 1, 2, 3, 0, 4, 4})
	f.Add(byte(2), []byte{0, 0, 0, 0, 255, 7, 7, 255, 254, 1})
	e := &Engine{}
	f.Fuzz(func(t *testing.T, keep byte, data []byte) {
		// The pool is FuzzAssignRanks' pairs; keep picks how many
		// survive, below the pool's size.
		pairs := fuzzPairs(data)
		if len(pairs) < 2 {
			return
		}
		checkEnvSelect(t, e, pairs, 1+int(keep)%(len(pairs)-1))
	})
}

// nanAggregator scores about a third of the (IL, DR) plane NaN — a custom
// aggregator that misbehaves on part of its input.
type nanAggregator struct{}

func (nanAggregator) Name() string { return "nan-thirds" }

func (nanAggregator) Combine(il, dr float64) float64 {
	if int(il*1000+dr*1000)%3 == 0 {
		return math.NaN()
	}
	return (il + dr) / 2
}

// TestParetoNaNScoreOrder: NaN scores make the (rank, score) order
// depend on the sort algorithm, not just on the comparison. The pinned
// digest of every generation's population order, ranks and crowding
// was recorded under the sort.SliceStable route; the generic stable sort
// must reproduce it.
func TestParetoNaNScoreOrder(t *testing.T) {
	eval, pop := testPopulationWith(t, score.Config{Aggregator: nanAggregator{}})
	e, err := NewEngine(eval, pop, paretoCfg(Config{Generations: 60, Seed: 23}))
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	nans := 0
	for g := 0; g < 60; g++ {
		e.Step()
		for _, ind := range e.pop {
			word(math.Float64bits(ind.Eval.IL))
			word(math.Float64bits(ind.Eval.DR))
			word(math.Float64bits(ind.Eval.Score))
			word(uint64(ind.rank))
			word(math.Float64bits(ind.crowd))
			if math.IsNaN(ind.Eval.Score) {
				nans++
			}
		}
	}
	if nans == 0 || nans == 60*len(e.pop) {
		t.Fatalf("%d NaN scores over 60 generations: the case needs a mix", nans)
	}
	const want = 0x653bb0ea61395785
	if got := h.Sum64(); got != want {
		t.Fatalf("population order digest %#x, want %#x", got, want)
	}
}

// TestParetoReplaceNoAllocs: on a warm engine, one environmental
// selection over population + two children and the (rank, score) re-sort
// run entirely in engine-owned buffers.
func TestParetoReplaceNoAllocs(t *testing.T) {
	e := testEngine(t, paretoCfg(Config{Generations: 30, Seed: 8}))
	mustRun(t, e)
	saved := e.Population()
	best := saved[0].Eval
	children := []*Individual{
		{Data: saved[0].Data, Eval: score.Evaluation{IL: best.IL - 1, DR: best.DR, Score: best.Score}},
		{Data: saved[1].Data, Eval: saved[len(saved)-1].Eval},
	}
	parents := []*Individual{{}, {}} // state-less: survivors inherit nothing
	changes := make([][]dataset.CellChange, 2)
	replace := func() {
		e.pop = append(e.pop[:0], saved...)
		e.paretoReplace(parents, children, changes)
		e.sortRanked()
	}
	replace()
	if e.pop[0] != children[0] {
		t.Fatal("the dominating child did not survive at the top")
	}
	if allocs := testing.AllocsPerRun(50, replace); allocs != 0 {
		t.Fatalf("Pareto replacement plus re-sort allocates %v times per run", allocs)
	}
}

// BenchmarkNSGA2Sort ranks and crowds one 105-member pool from a real
// run, the paper's 104-individual german population after 200 Pareto
// mutation generations plus one mutation child, through the route every
// ranking takes (crowdFront).
func BenchmarkNSGA2Sort(b *testing.B) {
	d := datagentest.MustByName("german", 300, 5)
	names, _ := datagen.ProtectedAttrs("german")
	attrs, err := d.Schema().Indices(names...)
	if err != nil {
		b.Fatal(err)
	}
	eval, err := score.NewEvaluator(d, attrs, score.Config{})
	if err != nil {
		b.Fatal(err)
	}
	comp, err := protection.PaperComposition("german")
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(5, 5))
	var pop []*Individual
	for _, m := range comp.Grid(len(attrs)) {
		masked, err := m.Protect(d, attrs, rng)
		if err != nil {
			b.Fatal(err)
		}
		pop = append(pop, NewIndividual(masked, protection.String(m)))
	}
	e, err := NewEngine(eval, pop, paretoCfg(Config{Generations: 200, Seed: 5, ForceOp: "mutation"}))
	if err != nil {
		b.Fatal(err)
	}
	for g := 0; g < 200; g++ {
		e.Step()
	}
	parent := e.pop[e.selectIndex()]
	child, changes := e.mutate(parent)
	if err := e.evaluateOffspring(parent, child, changes); err != nil {
		b.Fatal(err)
	}
	pool := append(e.Population(), child)
	var s nsgaSort
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := range s.assignRanks(pool) {
			s.crowdFront(pool, r)
		}
	}
}
