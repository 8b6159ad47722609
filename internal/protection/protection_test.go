package protection

import (
	"math/rand/v2"
	"testing"

	"evoprot/internal/datagen"
	"evoprot/internal/datagen/datagentest"
	"evoprot/internal/dataset"
	"evoprot/internal/stats"
)

func testData(t *testing.T) (*dataset.Dataset, []int) {
	t.Helper()
	d := datagentest.MustByName("flare", 300, 17)
	names, err := datagen.ProtectedAttrs("flare")
	if err != nil {
		t.Fatal(err)
	}
	attrs, err := d.Schema().Indices(names...)
	if err != nil {
		t.Fatal(err)
	}
	return d, attrs
}

func newRNG(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 99)) }

// allMethods returns one representative of each family.
func allMethods(t *testing.T) []Method {
	t.Helper()
	specs := []string{
		"micro:k=4,config=0",
		"top:q=0.15",
		"bottom:q=0.15",
		"recode:depth=2",
		"rankswap:p=10",
		"pram:theta=0.7",
	}
	out := make([]Method, len(specs))
	for i, s := range specs {
		m, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		out[i] = m
	}
	return out
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"unknown:k=2",
		"micro:k=abc",
		"micro:k",
		"pram:theta=1.5",
		"rankswap:p=0",
		"top:q=0",
		"bottom:q=1",
		"recode:depth=0",
		"micro:k=1",
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestParseDefaults(t *testing.T) {
	m, err := Parse("pram")
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "pram" {
		t.Fatalf("Name = %q", m.Name())
	}
	if String(m) != "pram(theta=0.800)" {
		t.Fatalf("String = %q", String(m))
	}
}

func TestProtectDoesNotMutateOriginal(t *testing.T) {
	d, attrs := testData(t)
	before := d.Clone()
	for _, m := range allMethods(t) {
		if _, err := m.Protect(d, attrs, newRNG(1)); err != nil {
			t.Fatalf("%s: %v", String(m), err)
		}
		if !d.Equal(before) {
			t.Fatalf("%s mutated the original dataset", String(m))
		}
	}
}

func TestProtectTouchesOnlyProtectedAttrs(t *testing.T) {
	d, attrs := testData(t)
	protected := make(map[int]bool)
	for _, a := range attrs {
		protected[a] = true
	}
	for _, m := range allMethods(t) {
		masked, err := m.Protect(d, attrs, newRNG(2))
		if err != nil {
			t.Fatalf("%s: %v", String(m), err)
		}
		for c := 0; c < d.Cols(); c++ {
			if protected[c] {
				continue
			}
			for r := 0; r < d.Rows(); r++ {
				if masked.At(r, c) != d.At(r, c) {
					t.Fatalf("%s modified unprotected column %d", String(m), c)
				}
			}
		}
		if err := masked.Validate(); err != nil {
			t.Fatalf("%s produced out-of-domain values: %v", String(m), err)
		}
	}
}

func TestProtectActuallyMasksSomething(t *testing.T) {
	d, attrs := testData(t)
	for _, m := range allMethods(t) {
		masked, err := m.Protect(d, attrs, newRNG(3))
		if err != nil {
			t.Fatalf("%s: %v", String(m), err)
		}
		if d.Mismatches(masked, attrs) == 0 {
			t.Errorf("%s changed nothing", String(m))
		}
	}
}

func TestValidateAttrsErrors(t *testing.T) {
	d, _ := testData(t)
	m, _ := NewTopCoding(0.1)
	cases := [][]int{nil, {}, {-1}, {d.Cols()}, {0, 0}}
	for _, attrs := range cases {
		if _, err := m.Protect(d, attrs, nil); err == nil {
			t.Errorf("attrs %v accepted", attrs)
		}
	}
	if _, err := m.Protect(nil, []int{0}, nil); err == nil {
		t.Error("nil dataset accepted")
	}
}

func TestStochasticMethodsRequireRNG(t *testing.T) {
	d, attrs := testData(t)
	rs, _ := NewRankSwapping(5)
	if _, err := rs.Protect(d, attrs, nil); err == nil {
		t.Error("rank swapping accepted nil RNG")
	}
	pr, _ := NewPRAM(0.8)
	if _, err := pr.Protect(d, attrs, nil); err == nil {
		t.Error("pram accepted nil RNG")
	}
}

func TestMicroaggregationGroupSizes(t *testing.T) {
	d, attrs := testData(t)
	for _, k := range []int{2, 3, 5, 7} {
		m, err := NewMicroaggregation(k, 0) // joint projection
		if err != nil {
			t.Fatal(err)
		}
		masked, err := m.Protect(d, attrs, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Every distinct value combination over the protected attributes
		// must occur at least k times: blocks have >= k records and every
		// record in a block receives the block centroid.
		counts := make(map[[3]int]int)
		for r := 0; r < masked.Rows(); r++ {
			key := [3]int{masked.At(r, attrs[0]), masked.At(r, attrs[1]), masked.At(r, attrs[2])}
			counts[key]++
		}
		for key, c := range counts {
			if c < k {
				t.Fatalf("k=%d: combination %v occurs %d times", k, key, c)
			}
		}
	}
}

func TestMicroaggregationDeterministic(t *testing.T) {
	d, attrs := testData(t)
	m, _ := NewMicroaggregation(4, 2)
	a, err := m.Protect(d, attrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := m.Protect(d, attrs, nil)
	if !a.Equal(b) {
		t.Fatal("microaggregation is not deterministic")
	}
}

func TestMicroaggregationConfigOutOfRange(t *testing.T) {
	d, attrs := testData(t)
	m, _ := NewMicroaggregation(3, 99)
	if _, err := m.Protect(d, attrs, nil); err == nil {
		t.Fatal("out-of-range config accepted")
	}
}

func TestMicroaggregationLargerKMoreLoss(t *testing.T) {
	d, attrs := testData(t)
	m2, _ := NewMicroaggregation(2, 0)
	m20, _ := NewMicroaggregation(20, 0)
	a, _ := m2.Protect(d, attrs, nil)
	b, _ := m20.Protect(d, attrs, nil)
	if d.Mismatches(a, attrs) >= d.Mismatches(b, attrs) {
		t.Fatalf("k=2 changed %d cells, k=20 changed %d; expected k=20 to change more",
			d.Mismatches(a, attrs), d.Mismatches(b, attrs))
	}
}

func TestMicroConfigsThreeAttrs(t *testing.T) {
	cfgs := MicroConfigs(3)
	if len(cfgs) != 9 {
		t.Fatalf("MicroConfigs(3) = %d configs, want 9", len(cfgs))
	}
	for i, cfg := range cfgs {
		seen := make(map[int]bool)
		for _, g := range cfg.Groups {
			for _, rel := range g {
				if seen[rel] {
					t.Fatalf("config %d repeats position %d", i, rel)
				}
				seen[rel] = true
			}
		}
		if len(seen) != 3 {
			t.Fatalf("config %d does not cover all positions", i)
		}
	}
	if got := MicroConfigs(2); len(got) != 2 {
		t.Fatalf("MicroConfigs(2) = %d configs, want 2", len(got))
	}
}

func TestTopCodingCollapsesUpperTail(t *testing.T) {
	d, attrs := testData(t)
	tc, _ := NewTopCoding(0.2)
	masked, err := tc.Protect(d, attrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range attrs {
		card := d.Schema().Attr(c).Cardinality()
		threshold := stats.Quantile(stats.Freq(d.Column(c), card), 0.8)
		for r := 0; r < masked.Rows(); r++ {
			if masked.At(r, c) > threshold {
				t.Fatalf("value above threshold survived top coding (col %d)", c)
			}
			// Values at or below threshold are untouched.
			if d.At(r, c) <= threshold && masked.At(r, c) != d.At(r, c) {
				t.Fatalf("top coding modified a non-tail value (col %d)", c)
			}
		}
	}
}

func TestBottomCodingCollapsesLowerTail(t *testing.T) {
	d, attrs := testData(t)
	bc, _ := NewBottomCoding(0.2)
	masked, err := bc.Protect(d, attrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range attrs {
		card := d.Schema().Attr(c).Cardinality()
		threshold := stats.Quantile(stats.Freq(d.Column(c), card), 0.2)
		for r := 0; r < masked.Rows(); r++ {
			if masked.At(r, c) < threshold {
				t.Fatalf("value below threshold survived bottom coding (col %d)", c)
			}
		}
	}
}

func TestCodingMonotoneInQ(t *testing.T) {
	d, attrs := testData(t)
	prev := -1
	for _, q := range []float64{0.05, 0.15, 0.3, 0.5} {
		tc, _ := NewTopCoding(q)
		masked, _ := tc.Protect(d, attrs, nil)
		changed := d.Mismatches(masked, attrs)
		if changed < prev {
			t.Fatalf("top coding q=%v changed %d cells, less than smaller q (%d)", q, changed, prev)
		}
		prev = changed
	}
}

func TestGlobalRecodingReducesDistinctCategories(t *testing.T) {
	d, attrs := testData(t)
	gr, _ := NewGlobalRecoding(2)
	masked, err := gr.Protect(d, attrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range attrs {
		card := d.Schema().Attr(c).Cardinality()
		distinctOrig := countDistinct(d.Column(c), card)
		distinctMasked := countDistinct(masked.Column(c), card)
		if distinctMasked > distinctOrig {
			t.Fatalf("recoding increased distinct categories on col %d", c)
		}
		if distinctMasked == distinctOrig && card > 2 {
			t.Fatalf("recoding depth 2 did not coarsen col %d (card %d)", c, card)
		}
	}
}

func TestGlobalRecodingDepthSaturates(t *testing.T) {
	d, attrs := testData(t)
	deep, _ := NewGlobalRecoding(50)
	masked, err := deep.Protect(d, attrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Past the top level one run spans each domain: all records share
	// one category.
	for _, c := range attrs {
		card := d.Schema().Attr(c).Cardinality()
		if got := countDistinct(masked.Column(c), card); got != 1 {
			t.Fatalf("saturated recoding left %d categories on col %d", got, c)
		}
	}
	// The largest depth a spec can carry saturates the same way instead
	// of overflowing the run width.
	maxDepth, err := Parse("recode:depth=9223372036854775807")
	if err != nil {
		t.Fatal(err)
	}
	top, err := maxDepth.Protect(d, attrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !top.Equal(masked) {
		t.Fatal("recode:depth=MaxInt differs from the saturated depth=50 recoding")
	}
}

// TestGlobalRecodingGroupMedian pins the recoding table by hand on one
// ordered attribute of 7 categories with counts [4 1 0 0 1 1 3]. Each
// run maps to the first category whose cumulative count reaches
// (total+1)/2; the all-zero run {2,3} maps to its middle category 3, and
// the last run is short at every depth. The unweighted medians would be
// [1 1 3 3 5 5 6] at depth 1 and [2 2 2 2 5 5 5] at depth 2.
func TestGlobalRecodingGroupMedian(t *testing.T) {
	attr := dataset.MustAttribute("A", []string{"a", "b", "c", "d", "e", "f", "g"}, true)
	var recs [][]string
	for _, v := range []int{6, 0, 1, 0, 4, 6, 0, 5, 0, 6} {
		recs = append(recs, []string{attr.Category(v)})
	}
	d, err := dataset.FromRecords(dataset.MustSchema(attr), recs)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		depth  int
		recode []int
	}{
		{1, []int{0, 0, 3, 3, 4, 4, 6}}, // runs {0,1} {2,3} {4,5} {6}
		{2, []int{0, 0, 0, 0, 6, 6, 6}}, // runs {0..3} {4..6}
		{3, []int{1, 1, 1, 1, 1, 1, 1}}, // one run: cumulative 4, 5 reaches 5
	} {
		gr, _ := NewGlobalRecoding(tc.depth)
		masked, err := gr.Protect(d, []int{0}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < d.Rows(); r++ {
			if got, want := masked.At(r, 0), tc.recode[d.At(r, 0)]; got != want {
				t.Fatalf("depth %d: row %d category %d recoded to %d, want %d",
					tc.depth, r, d.At(r, 0), got, want)
			}
		}
	}
}

// TestGlobalRecodingStaysInRun property-tests the recoding map on random
// counts (zeros included) at every cardinality up to 40: each category
// maps to a category of its own run, every member of a run maps to the
// same one, and a run holding records maps to a category that holds some.
func TestGlobalRecodingStaysInRun(t *testing.T) {
	rng := newRNG(5)
	for card := 1; card <= 40; card++ {
		for level := 0; level <= 7; level++ {
			width := 1 << level
			counts := make([]int, card)
			for i := range counts {
				if rng.IntN(3) > 0 {
					counts[i] = rng.IntN(20)
				}
			}
			recode := groupMedians(counts, width)
			for v, m := range recode {
				lo := v / width * width
				hi := min(lo+width, card)
				if m < lo || m >= hi || m != recode[lo] {
					t.Fatalf("card %d width %d: category %d maps to %d outside run [%d,%d) or off its run's %d",
						card, width, v, m, lo, hi, recode[lo])
				}
				total := 0
				for _, n := range counts[lo:hi] {
					total += n
				}
				if total > 0 && counts[m] == 0 {
					t.Fatalf("card %d width %d: run [%d,%d) maps to empty category %d", card, width, lo, hi, m)
				}
			}
		}
	}
}

func countDistinct(col []int, card int) int {
	n := 0
	for _, f := range stats.Freq(col, card) {
		if f > 0 {
			n++
		}
	}
	return n
}

func TestRankSwappingPreservesMarginals(t *testing.T) {
	d, attrs := testData(t)
	rs, _ := NewRankSwapping(8)
	masked, err := rs.Protect(d, attrs, newRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	// Swapping permutes values within a column: marginals must be exactly
	// preserved — the defining invariant of the method.
	for _, c := range attrs {
		card := d.Schema().Attr(c).Cardinality()
		fo := stats.Freq(d.Column(c), card)
		fm := stats.Freq(masked.Column(c), card)
		for v := range fo {
			if fo[v] != fm[v] {
				t.Fatalf("rank swapping changed the marginal of col %d at category %d", c, v)
			}
		}
	}
}

func TestRankSwappingDeterministicPerSeed(t *testing.T) {
	d, attrs := testData(t)
	rs, _ := NewRankSwapping(10)
	a, _ := rs.Protect(d, attrs, newRNG(7))
	b, _ := rs.Protect(d, attrs, newRNG(7))
	if !a.Equal(b) {
		t.Fatal("same seed produced different swaps")
	}
	c, _ := rs.Protect(d, attrs, newRNG(8))
	if a.Equal(c) {
		t.Fatal("different seeds produced identical swaps")
	}
}

func TestRankSwappingTinyDataset(t *testing.T) {
	s := dataset.MustSchema(dataset.MustAttribute("x", []string{"a", "b"}, true))
	d, _ := dataset.FromRecords(s, [][]string{{"a"}})
	rs, _ := NewRankSwapping(10)
	masked, err := rs.Protect(d, []int{0}, newRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if !masked.Equal(d) {
		t.Fatal("single-record swap changed data")
	}
}

func TestPRAMRetentionExtremes(t *testing.T) {
	d, attrs := testData(t)
	// theta near 1: almost nothing changes.
	hi, _ := NewPRAM(0.99)
	masked, err := hi.Protect(d, attrs, newRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	total := d.Rows() * len(attrs)
	if changed := d.Mismatches(masked, attrs); changed > total/10 {
		t.Fatalf("theta=0.99 changed %d/%d cells", changed, total)
	}
	// theta = 0: every cell resampled; expect many changes.
	lo, _ := NewPRAM(0)
	masked, err = lo.Protect(d, attrs, newRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	if changed := d.Mismatches(masked, attrs); changed < total/4 {
		t.Fatalf("theta=0 changed only %d/%d cells", changed, total)
	}
}

func TestPRAMMarginalsApproximatelyPreserved(t *testing.T) {
	d, attrs := testData(t)
	p, _ := NewPRAM(0.5)
	masked, err := p.Protect(d, attrs, newRNG(13))
	if err != nil {
		t.Fatal(err)
	}
	// Resampling from the empirical marginal keeps expected frequencies:
	// allow a generous tolerance for sampling noise.
	for _, c := range attrs {
		card := d.Schema().Attr(c).Cardinality()
		fo := stats.Freq(d.Column(c), card)
		fm := stats.Freq(masked.Column(c), card)
		for v := range fo {
			diff := stats.AbsInt(fo[v] - fm[v])
			if diff > 30+fo[v]/2 {
				t.Fatalf("pram distorted marginal of col %d cat %d: %d -> %d", c, v, fo[v], fm[v])
			}
		}
	}
}

func TestGridCounts(t *testing.T) {
	if got := len(MicroaggregationGrid(72, 3)); got != 72 {
		t.Fatalf("MA grid = %d", got)
	}
	if got := len(TopCodingGrid(6)); got != 6 {
		t.Fatalf("TC grid = %d", got)
	}
	if got := len(BottomCodingGrid(4)); got != 4 {
		t.Fatalf("BC grid = %d", got)
	}
	if got := len(GlobalRecodingGrid(6)); got != 6 {
		t.Fatalf("GR grid = %d", got)
	}
	if got := len(RankSwappingGrid(11)); got != 11 {
		t.Fatalf("RS grid = %d", got)
	}
	if got := len(PRAMGrid(9)); got != 9 {
		t.Fatalf("PRAM grid = %d", got)
	}
}

// TestPopulationComposition checks the paper's §3 population sizes exactly.
func TestPopulationComposition(t *testing.T) {
	cases := []struct {
		name  string
		total int
	}{
		{"housing", 110},
		{"german", 104},
		{"flare", 104},
		{"adult", 86},
	}
	for _, c := range cases {
		comp, err := PaperComposition(c.name)
		if err != nil {
			t.Fatal(err)
		}
		if comp.Total() != c.total {
			t.Errorf("%s: composition total = %d, want %d", c.name, comp.Total(), c.total)
		}
		if got := len(comp.Grid(3)); got != c.total {
			t.Errorf("%s: grid length = %d, want %d", c.name, got, c.total)
		}
	}
	if _, err := PaperComposition("nope"); err == nil {
		t.Error("unknown dataset accepted")
	}
}

// TestPaperGridsAllRun masks a small dataset with every method of every
// paper grid — the full initial-population construction path.
func TestPaperGridsAllRun(t *testing.T) {
	d, attrs := testData(t)
	comp, _ := PaperComposition("flare")
	rng := newRNG(21)
	seen := make(map[string]int)
	for _, m := range comp.Grid(len(attrs)) {
		masked, err := m.Protect(d, attrs, rng)
		if err != nil {
			t.Fatalf("%s: %v", String(m), err)
		}
		if err := masked.Validate(); err != nil {
			t.Fatalf("%s: %v", String(m), err)
		}
		seen[m.Name()]++
	}
	want := map[string]int{
		"microaggregation": 72, "bottomcoding": 4, "topcoding": 4,
		"globalrecoding": 4, "rankswapping": 11, "pram": 9,
	}
	for name, count := range want {
		if seen[name] != count {
			t.Errorf("%s: %d variants, want %d", name, seen[name], count)
		}
	}
}

func TestGridVariantsAreDistinct(t *testing.T) {
	grid := MicroaggregationGrid(72, 3)
	seen := make(map[string]bool)
	for _, m := range grid {
		key := String(m)
		if seen[key] {
			t.Fatalf("duplicate microaggregation variant %s", key)
		}
		seen[key] = true
	}
}
