package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestFreq(t *testing.T) {
	col := []int{0, 2, 2, 1, 2, 0}
	got := Freq(col, 4)
	want := []int{2, 1, 3, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Freq = %v, want %v", got, want)
		}
	}
}

func TestFreqIgnoresOutOfRange(t *testing.T) {
	got := Freq([]int{-1, 0, 5, 1}, 2)
	if got[0] != 1 || got[1] != 1 {
		t.Fatalf("Freq with out-of-range = %v, want [1 1]", got)
	}
}

func TestMidRanks(t *testing.T) {
	// counts: cat0 x2, cat1 x0, cat2 x4  -> ranks 0.5, 2, 3.5
	got := MidRanks([]int{2, 0, 4})
	want := []float64{0.5, 2, 3.5}
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-12) {
			t.Fatalf("MidRanks = %v, want %v", got, want)
		}
	}
}

func TestMidRanksMonotone(t *testing.T) {
	f := func(raw []uint8) bool {
		counts := make([]int, len(raw))
		for i, v := range raw {
			counts[i] = int(v)
		}
		ranks := MidRanks(counts)
		for i := 1; i < len(ranks); i++ {
			if ranks[i] < ranks[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMidRanksIntoMatchesMidRanks(t *testing.T) {
	f := func(raw []uint8) bool {
		counts := make([]int, len(raw))
		for i, v := range raw {
			counts[i] = int(v)
		}
		dst := make([]float64, len(counts))
		for i := range dst {
			dst[i] = -1 // stale values must all be overwritten
		}
		MidRanksInto(dst, counts)
		want := MidRanks(counts)
		for i := range want {
			if dst[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFreqShiftMatchesRecount(t *testing.T) {
	column := []int{0, 2, 2, 1, 3, 2, 0, 1}
	counts := Freq(column, 4)
	// Move one value 2 -> 0 and compare against a recount.
	column[1] = 0
	FreqShift(counts, 2, 0)
	want := Freq(column, 4)
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("FreqShift: counts=%v, recount=%v", counts, want)
		}
	}
}

func TestQuantile(t *testing.T) {
	counts := []int{10, 20, 30, 40} // cum: 10,30,60,100
	cases := []struct {
		q    float64
		want int
	}{
		{0, 0}, {0.05, 0}, {0.1, 0}, {0.11, 1}, {0.3, 1},
		{0.5, 2}, {0.6, 2}, {0.61, 3}, {1, 3}, {2, 3}, {-1, 0},
	}
	for _, c := range cases {
		if got := Quantile(counts, c.q); got != c.want {
			t.Errorf("Quantile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
}

func TestQuantileEmpty(t *testing.T) {
	if got := Quantile(nil, 0.5); got != 0 {
		t.Fatalf("Quantile(nil) = %d, want 0", got)
	}
	if got := Quantile([]int{0, 0}, 0.5); got != 0 {
		t.Fatalf("Quantile(zeros) = %d, want 0", got)
	}
}

func TestCombinations(t *testing.T) {
	got := Combinations(4, 2)
	want := [][]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	if len(got) != len(want) {
		t.Fatalf("Combinations(4,2) has %d elems, want %d", len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("Combinations(4,2) = %v, want %v", got, want)
			}
		}
	}
}

func TestCombinationsEdge(t *testing.T) {
	if got := Combinations(3, 0); len(got) != 1 || len(got[0]) != 0 {
		t.Fatalf("Combinations(3,0) = %v, want [[]]", got)
	}
	if got := Combinations(2, 3); got != nil {
		t.Fatalf("Combinations(2,3) = %v, want nil", got)
	}
	if got := Combinations(3, 3); len(got) != 1 {
		t.Fatalf("Combinations(3,3) = %v, want single", got)
	}
}

func TestCombinationsCount(t *testing.T) {
	// C(6,3) = 20
	if got := Combinations(6, 3); len(got) != 20 {
		t.Fatalf("C(6,3) count = %d, want 20", len(got))
	}
}

func TestSubsetsUpTo(t *testing.T) {
	got := SubsetsUpTo(3, 2)
	// size1: {0},{1},{2}; size2: {0,1},{0,2},{1,2} -> 6 subsets
	if len(got) != 6 {
		t.Fatalf("SubsetsUpTo(3,2) count = %d, want 6", len(got))
	}
	if len(got[0]) != 1 || len(got[5]) != 2 {
		t.Fatalf("SubsetsUpTo ordering wrong: %v", got)
	}
}

func TestIntHelpers(t *testing.T) {
	if AbsInt(-3) != 3 || AbsInt(3) != 3 || AbsInt(0) != 0 {
		t.Fatal("AbsInt broken")
	}
}

func TestContingencyTableBasic(t *testing.T) {
	colA := []int{0, 0, 1, 1}
	colB := []int{0, 1, 0, 1}
	tab := NewContingencyTable([]int{0, 1}, [][]int{colA, colB}, []int{2, 2})
	if tab.Total != 4 {
		t.Fatalf("Total = %d, want 4", tab.Total)
	}
	if len(tab.Cells) != 4 {
		t.Fatalf("Cells = %d, want 4", len(tab.Cells))
	}
	for _, c := range tab.Cells {
		if c != 1 {
			t.Fatalf("cell count = %d, want 1", c)
		}
	}
}

func TestContingencyL1SelfZero(t *testing.T) {
	col := []int{0, 1, 2, 1, 0}
	tab := NewContingencyTable([]int{0}, [][]int{col}, []int{3})
	if d := tab.L1Distance(tab); d != 0 {
		t.Fatalf("self L1 = %d, want 0", d)
	}
}

func TestContingencyL1Disjoint(t *testing.T) {
	a := NewContingencyTable([]int{0}, [][]int{{0, 0, 0}}, []int{2})
	b := NewContingencyTable([]int{0}, [][]int{{1, 1, 1}}, []int{2})
	if d := a.L1Distance(b); d != 6 {
		t.Fatalf("disjoint L1 = %d, want 6", d)
	}
}

func TestContingencyL1Symmetric(t *testing.T) {
	f := func(rawA, rawB []uint8) bool {
		colA := make([]int, len(rawA))
		for i, v := range rawA {
			colA[i] = int(v % 5)
		}
		colB := make([]int, len(rawB))
		for i, v := range rawB {
			colB[i] = int(v % 5)
		}
		ta := NewContingencyTable([]int{0}, [][]int{colA}, []int{5})
		tb := NewContingencyTable([]int{0}, [][]int{colB}, []int{5})
		return ta.L1Distance(tb) == tb.L1Distance(ta)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
