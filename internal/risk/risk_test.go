package risk

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"evoprot/internal/datagen"
	"evoprot/internal/datagen/datagentest"
	"evoprot/internal/dataset"
	"evoprot/internal/protection/protectiontest"
)

func testData(t *testing.T) (*dataset.Dataset, []int) {
	t.Helper()
	d := datagentest.MustByName("german", 250, 41)
	names, _ := datagen.ProtectedAttrs("german")
	attrs, err := d.Schema().Indices(names...)
	if err != nil {
		t.Fatal(err)
	}
	return d, attrs
}

// uniqueData builds a dataset where every record is unique on its single
// protected attribute, so linkage outcomes are exact.
func uniqueData(t *testing.T, n int) (*dataset.Dataset, []int) {
	t.Helper()
	cats := make([]string, n)
	for i := range cats {
		cats[i] = fmt.Sprintf("c%03d", i)
	}
	s := dataset.MustSchema(dataset.MustAttribute("id", cats, true))
	d := dataset.New(s, n)
	for r := 0; r < n; r++ {
		d.Set(r, 0, r)
	}
	return d, []int{0}
}

func scramble(d *dataset.Dataset, attrs []int, seed uint64) *dataset.Dataset {
	rng := rand.New(rand.NewPCG(seed, 1))
	out := d.Clone()
	for _, c := range attrs {
		card := d.Schema().Attr(c).Cardinality()
		for r := 0; r < d.Rows(); r++ {
			out.Set(r, c, rng.IntN(card))
		}
	}
	return out
}

func TestIdentityOnUniqueRecordsIsFullyDisclosive(t *testing.T) {
	d, attrs := uniqueData(t, 60)
	var dl DistanceLinkage
	if got := dl.Risk(d, d, attrs); got != 100 {
		t.Errorf("DBRL(identity, unique) = %v, want 100", got)
	}
	pl := ProbabilisticLinkage{}
	if got := pl.Risk(d, d, attrs); got != 100 {
		t.Errorf("PRL(identity, unique) = %v, want 100", got)
	}
	id := IntervalDisclosure{}
	if got := id.Risk(d, d, attrs); got != 100 {
		t.Errorf("ID(identity, unique) = %v, want 100", got)
	}
}

func TestIdentityOnRealDataIsHighRisk(t *testing.T) {
	// With categorical quasi-identifiers many records share a QI
	// combination, so even publishing the file unchanged cannot link every
	// record uniquely — tie credit caps linkage risk below 100. The
	// identity file must still be the riskiest release: interval
	// disclosure is total, and linkage risks sit well above the random
	// baseline (100/n = 0.4 here).
	d, attrs := testData(t)
	floor := map[string]float64{"ID": 100, "DBRL": 30, "PRL": 30, "RSRL": 10}
	for _, m := range Default() {
		got := m.Risk(d, d, attrs)
		if got < floor[m.Name()] {
			t.Errorf("%s(identity) = %v, want >= %v", m.Name(), got, floor[m.Name()])
		}
		if got > 100 {
			t.Errorf("%s(identity) = %v, out of range", m.Name(), got)
		}
	}
}

func TestScrambleReducesLinkageRisk(t *testing.T) {
	d, attrs := testData(t)
	masked := scramble(d, attrs, 9)
	for _, m := range Default() {
		identity := m.Risk(d, d, attrs)
		scrambled := m.Risk(d, masked, attrs)
		if scrambled >= identity {
			t.Errorf("%s: scramble risk %v >= identity risk %v", m.Name(), scrambled, identity)
		}
	}
}

func TestAllMeasuresWithinBounds(t *testing.T) {
	d, attrs := testData(t)
	rng := rand.New(rand.NewPCG(3, 3))
	maskings := []*dataset.Dataset{d, scramble(d, attrs, 11)}
	for _, spec := range []string{"micro:k=4", "top:q=0.25", "bottom:q=0.25", "recode:depth=2", "rankswap:p=8", "pram:theta=0.5"} {
		masked, err := protectiontest.Must(spec).Protect(d, attrs, rng)
		if err != nil {
			t.Fatal(err)
		}
		maskings = append(maskings, masked)
	}
	for _, masked := range maskings {
		for _, m := range Default() {
			got := m.Risk(d, masked, attrs)
			if got < 0 || got > 100 {
				t.Errorf("%s out of [0,100]: %v", m.Name(), got)
			}
		}
	}
}

func TestIntervalDisclosureHandComputed(t *testing.T) {
	// 10 records, single ordered attribute, one record displaced far.
	cats := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}
	s := dataset.MustSchema(dataset.MustAttribute("x", cats, true))
	orig := dataset.New(s, 10)
	for r := 0; r < 10; r++ {
		orig.Set(r, 0, r)
	}
	masked := orig.Clone()
	masked.Set(0, 0, 9) // rank gap 9 >> any window (max 10% of 10 = 1)
	id := IntervalDisclosure{MaxP: 10}
	got := id.Risk(orig, masked, []int{0})
	// 9 records fully disclosed at every window; 1 never: 90%.
	if got != 90 {
		t.Fatalf("ID = %v, want 90", got)
	}
}

func TestIntervalDisclosurePartialWindows(t *testing.T) {
	// 100 records so window p% = p records; displacement of 5 ranks is
	// disclosed for p in 5..10 only -> 6/10 of windows.
	cats := make([]string, 100)
	for i := range cats {
		cats[i] = fmt.Sprintf("c%03d", i)
	}
	s := dataset.MustSchema(dataset.MustAttribute("x", cats, true))
	orig := dataset.New(s, 100)
	for r := 0; r < 100; r++ {
		orig.Set(r, 0, r)
	}
	masked := orig.Clone()
	masked.Set(0, 0, 5) // displaced exactly 5 ranks
	id := IntervalDisclosure{MaxP: 10}
	got := id.Risk(orig, masked, []int{0})
	want := (99.0*10 + 6) / (100 * 10) * 100
	if diff := got - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("ID = %v, want %v", got, want)
	}
}

func TestDistanceLinkageTieCredit(t *testing.T) {
	// All records identical: every masked record ties at distance 0, so
	// each original earns credit 1/n -> risk = 100/n.
	s := dataset.MustSchema(dataset.MustAttribute("x", []string{"a", "b"}, true))
	d := dataset.New(s, 20) // all zeros
	var dl DistanceLinkage
	got := dl.Risk(d, d, []int{0})
	want := 100.0 / 20
	if diff := got - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("DBRL = %v, want %v", got, want)
	}
}

func TestDistanceLinkageMonotoneInPerturbation(t *testing.T) {
	// Lighter maskings must be easier to link than heavier ones.
	d, attrs := testData(t)
	var dl DistanceLinkage
	rng := rand.New(rand.NewPCG(7, 7))
	light, err := protectiontest.Must("pram:theta=0.9").Protect(d, attrs, rng)
	if err != nil {
		t.Fatal(err)
	}
	rng = rand.New(rand.NewPCG(7, 7))
	heavy, err := protectiontest.Must("pram:theta=0.1").Protect(d, attrs, rng)
	if err != nil {
		t.Fatal(err)
	}
	lr, hr := dl.Risk(d, light, attrs), dl.Risk(d, heavy, attrs)
	if lr <= hr {
		t.Fatalf("DBRL light=%v <= heavy=%v", lr, hr)
	}
}

func TestPRLEMSeparatesMatchProbabilities(t *testing.T) {
	// On identity-masked unique data, EM must learn m >> u.
	n := 50
	patCount := make([]float64, 2)
	patCount[1] = float64(n)                   // diagonal pairs agree
	patCount[0] = float64(n)*float64(n) - 50.0 // off-diagonal disagree
	m, u, p := emEstimate(patCount, 1, float64(n)*float64(n), float64(n), 30)
	if m[0] <= u[0] {
		t.Fatalf("EM failed to separate: m=%v u=%v", m[0], u[0])
	}
	if p <= 0 || p >= 1 {
		t.Fatalf("prevalence out of range: %v", p)
	}
}

func TestPRLDetectsPermutedFileRisk(t *testing.T) {
	// Masking = identity on unique data gives 100; a full scramble must
	// give much less.
	d, attrs := uniqueData(t, 60)
	pl := ProbabilisticLinkage{}
	masked := scramble(d, attrs, 17)
	got := pl.Risk(d, masked, attrs)
	if got > 50 {
		t.Fatalf("PRL(scramble) = %v, want <= 50", got)
	}
}

func TestRSRLWindowExtremes(t *testing.T) {
	d, attrs := uniqueData(t, 50)
	// P=100: every record is a candidate for every other -> credit 1/n.
	wide := RankIntervalLinkage{P: 100}
	got := wide.Risk(d, d, attrs)
	want := 100.0 / 50
	if diff := got - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("RSRL(P=100) = %v, want %v", got, want)
	}
	// Tiny window on identity masking: only the exact rank matches -> 100.
	narrow := RankIntervalLinkage{P: 0.5}
	if got := narrow.Risk(d, d, attrs); got != 100 {
		t.Fatalf("RSRL(P=0.5, identity) = %v, want 100", got)
	}
}

// TestRSRLHandComputed pins RSRL to its published definition on five
// records and two attributes, worked by hand with P = 20, so the window
// is 20% of 5 records = 1 rank:
//
//	record  orig (x, y)  masked (x, y)
//	0       a p          b p
//	1       a q          a q
//	2       b p          b p
//	3       c q          c p
//	4       c p          a p
//
// Mid-ranks, 0-based (a category of f records starting at rank c sits at
// c + (f-1)/2):
//
//	x orig   a:2 → 0.5  b:1 → 2    c:2 → 3.5
//	x masked a:2 → 0.5  b:2 → 2.5  c:1 → 4
//	y orig   p:3 → 1    q:2 → 3.5
//	y masked p:4 → 1.5  q:1 → 4
//
// A masked category v is admissible for an original category u when
// |rank(u) − rank(v)| ≤ 1:
//
//	x: a → {a} (b is 2 away); b → {b} (a is 1.5 away, c 2);
//	   c → {b, c} (b exactly 1 away: the bound is inclusive)
//	y: p → {p} (q is 3 away); q → {q} (p is 2 away)
//
// So x admits masked records a → {1, 4}, b → {0, 2}, c → {0, 2, 3}, and
// y admits p → {0, 2, 3, 4}, q → {1}. Each original record's candidates
// are the intersection over both attributes:
//
//	record 0 (a, p): {1, 4} ∩ {0, 2, 3, 4} = {4}        misses 0: 0
//	record 1 (a, q): {1, 4} ∩ {1} = {1}                 hits 1: 1
//	record 2 (b, p): {0, 2} ∩ {0, 2, 3, 4} = {0, 2}     hits 2: 1/2
//	record 3 (c, q): {0, 2, 3} ∩ {1} = {}               misses: 0
//	record 4 (c, p): {0, 2, 3} ∩ {0, 2, 3, 4} = {0, 2, 3}  misses 4: 0
//
// RSRL = 100·(1 + 1/2)/5 = 30. This check is independent of
// stats.MidRanks and rsrlSweep, which the pairwise oracle
// (rsrlReference) calls.
func TestRSRLHandComputed(t *testing.T) {
	s := dataset.MustSchema(
		dataset.MustAttribute("x", []string{"a", "b", "c"}, true),
		dataset.MustAttribute("y", []string{"p", "q"}, false),
	)
	orig, _ := dataset.FromRecords(s, [][]string{{"a", "p"}, {"a", "q"}, {"b", "p"}, {"c", "q"}, {"c", "p"}})
	masked, _ := dataset.FromRecords(s, [][]string{{"b", "p"}, {"a", "q"}, {"b", "p"}, {"c", "p"}, {"a", "p"}})
	rl := &RankIntervalLinkage{P: 20}
	attrs := []int{0, 1}
	if got := rl.Risk(orig, masked, attrs); got != 30 {
		t.Fatalf("RSRL = %v, want 30", got)
	}
	st := rl.Prepare(orig, masked, attrs).(*rsrlState)
	if st.window != 1 {
		t.Fatalf("window = %v ranks, want 1", st.window)
	}
	for a, want := range [][]float64{{0.5, 2, 3.5}, {1, 3.5}} {
		if !slices.Equal(st.oRanks[a], want) {
			t.Errorf("attribute %d: original mid-ranks %v, want %v", a, st.oRanks[a], want)
		}
	}
	for a, want := range [][]float64{{0.5, 2.5, 4}, {1.5, 4}} {
		if !slices.Equal(st.mRanks[a], want) {
			t.Errorf("attribute %d: masked mid-ranks %v, want %v", a, st.mRanks[a], want)
		}
	}
	// Admissible masked categories per original category, as [lo, hi].
	for a, want := range [][2][]int{{{0, 1, 1}, {0, 1, 2}}, {{0, 1}, {0, 1}}} {
		if !slices.Equal(st.lo[a], want[0]) || !slices.Equal(st.hi[a], want[1]) {
			t.Errorf("attribute %d: windows lo %v hi %v, want %v %v", a, st.lo[a], st.hi[a], want[0], want[1])
		}
	}
	// The five profiles are distinct, so group g is record g.
	if want := []int32{1, 1, 2, 0, 3}; !slices.Equal(st.counts, want) {
		t.Errorf("candidate counts %v, want %v", st.counts, want)
	}
	if want := []bool{false, true, true, false, false}; !slices.Equal(st.recHit, want) {
		t.Errorf("true-match hits %v, want %v", st.recHit, want)
	}
	if got := rl.Apply(st, nil); got != 30 {
		t.Fatalf("RSRL state = %v, want 30", got)
	}
}

func TestRSRLCatchesRankSwappingWithinWindow(t *testing.T) {
	// Rank swapping with p=5 keeps displacements inside a 15% window, so
	// the true record is almost always among the candidates; heavy PRAM
	// escapes the window more often.
	d, attrs := testData(t)
	rng := rand.New(rand.NewPCG(7, 7))
	swapped, err := protectiontest.Must("rankswap:p=5").Protect(d, attrs, rng)
	if err != nil {
		t.Fatal(err)
	}
	rl := RankIntervalLinkage{P: 15}
	rsRisk := rl.Risk(d, swapped, attrs)
	if rsRisk <= 0 {
		t.Fatalf("RSRL(rankswap) = %v, want > 0", rsRisk)
	}
}

func TestEmptyAttrsAndRows(t *testing.T) {
	d, _ := testData(t)
	empty := dataset.New(d.Schema(), 0)
	for _, m := range Default() {
		if got := m.Risk(d, d, nil); got != 0 {
			t.Errorf("%s with no attrs = %v", m.Name(), got)
		}
		if got := m.Risk(empty, empty, []int{0}); got != 0 {
			t.Errorf("%s with no rows = %v", m.Name(), got)
		}
	}
}

func TestMeasureNames(t *testing.T) {
	want := map[string]bool{"ID": true, "DBRL": true, "PRL": true, "RSRL": true}
	for _, m := range Default() {
		if !want[m.Name()] {
			t.Errorf("unexpected measure %q", m.Name())
		}
		delete(want, m.Name())
	}
	if len(want) != 0 {
		t.Errorf("missing measures: %v", want)
	}
}

func TestMeasuresAreDeterministic(t *testing.T) {
	d, attrs := testData(t)
	masked := scramble(d, attrs, 29)
	for _, m := range Default() {
		a := m.Risk(d, masked, attrs)
		b := m.Risk(d, masked, attrs)
		if a != b {
			t.Errorf("%s is not deterministic: %v vs %v", m.Name(), a, b)
		}
	}
}
