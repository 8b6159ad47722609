package pareto

import (
	"math"
	"testing"
	"testing/quick"

	"evoprot/internal/score"
)

// mustHV computes a hypervolume whose reference point the test knows to be
// valid, failing the test if the computation unexpectedly errors.
func mustHV(t *testing.T, pairs []score.Pair, ref score.Pair) float64 {
	t.Helper()
	hv, err := Hypervolume(pairs, ref)
	if err != nil {
		t.Fatalf("Hypervolume(%v, %v): %v", pairs, ref, err)
	}
	return hv
}

func TestFrontBasic(t *testing.T) {
	pairs := []score.Pair{
		{IL: 10, DR: 50}, // front (lowest IL)
		{IL: 20, DR: 30}, // front
		{IL: 25, DR: 35}, // dominated by (20,30)
		{IL: 30, DR: 20}, // front
		{IL: 40, DR: 20}, // dominated by (30,20)
	}
	front := Front(pairs)
	want := []score.Pair{{IL: 10, DR: 50}, {IL: 20, DR: 30}, {IL: 30, DR: 20}}
	if len(front) != len(want) {
		t.Fatalf("front = %v, want %v", front, want)
	}
	for i := range want {
		if front[i] != want[i] {
			t.Fatalf("front = %v, want %v", front, want)
		}
	}
}

func TestFrontEdgeCases(t *testing.T) {
	if got := Front(nil); got != nil {
		t.Fatalf("Front(nil) = %v", got)
	}
	one := []score.Pair{{IL: 5, DR: 5}}
	if got := Front(one); len(got) != 1 || got[0] != one[0] {
		t.Fatalf("Front(single) = %v", got)
	}
	// Duplicates collapse to one.
	dup := []score.Pair{{IL: 5, DR: 5}, {IL: 5, DR: 5}}
	if got := Front(dup); len(got) != 1 {
		t.Fatalf("Front(dup) = %v", got)
	}
	// Equal IL: only the lowest DR survives.
	eq := []score.Pair{{IL: 5, DR: 9}, {IL: 5, DR: 3}}
	if got := Front(eq); len(got) != 1 || got[0].DR != 3 {
		t.Fatalf("Front(equal IL) = %v", got)
	}
}

func TestFrontIsNonDominatedAndComplete(t *testing.T) {
	// Property: every front member is undominated by all pairs, and every
	// non-front pair is dominated by (or duplicates) some front member.
	f := func(raw []uint8) bool {
		if len(raw) < 2 {
			return true
		}
		pairs := make([]score.Pair, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			pairs = append(pairs, score.Pair{IL: float64(raw[i] % 50), DR: float64(raw[i+1] % 50)})
		}
		front := Front(pairs)
		inFront := func(p score.Pair) bool {
			for _, f := range front {
				if f == p {
					return true
				}
			}
			return false
		}
		for _, fp := range front {
			for _, p := range pairs {
				if Dominates(p, fp) {
					return false
				}
			}
		}
		for _, p := range pairs {
			if inFront(p) {
				continue
			}
			dominated := false
			for _, fp := range front {
				if Dominates(fp, p) || fp == p {
					dominated = true
					break
				}
			}
			if !dominated {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDominates(t *testing.T) {
	a := score.Pair{IL: 10, DR: 10}
	b := score.Pair{IL: 20, DR: 10}
	c := score.Pair{IL: 5, DR: 30}
	if !Dominates(a, b) {
		t.Error("a should dominate b")
	}
	if Dominates(b, a) {
		t.Error("b should not dominate a")
	}
	if Dominates(a, c) || Dominates(c, a) {
		t.Error("a and c are incomparable")
	}
	if Dominates(a, a) {
		t.Error("no self-domination")
	}
}

func TestHypervolumeSinglePoint(t *testing.T) {
	// One point at (25, 25) with reference (100, 100): dominated area is
	// the rectangle (100-25)x(100-25) = 5625.
	pairs := []score.Pair{{IL: 25, DR: 25}}
	ref := score.Pair{IL: 100, DR: 100}
	if got := mustHV(t, pairs, ref); math.Abs(got-5625) > 1e-9 {
		t.Fatalf("HV = %v, want 5625", got)
	}
}

func TestHypervolumeStaircase(t *testing.T) {
	// Two points (10,50) and (50,10), ref (100,100):
	// strip [10,50) x [50,100]: 40*50 = 2000
	// strip [50,100] x [10,100]: 50*90 = 4500
	pairs := []score.Pair{{IL: 10, DR: 50}, {IL: 50, DR: 10}}
	ref := score.Pair{IL: 100, DR: 100}
	if got := mustHV(t, pairs, ref); math.Abs(got-6500) > 1e-9 {
		t.Fatalf("HV = %v, want 6500", got)
	}
}

func TestHypervolumeEdgeCases(t *testing.T) {
	ref := score.Pair{IL: 100, DR: 100}
	if got := mustHV(t, nil, ref); got != 0 {
		t.Fatalf("HV(empty) = %v", got)
	}
	// A degenerate reference point bounds no box: error, not a silent 0.
	if _, err := Hypervolume([]score.Pair{{IL: 1, DR: 1}}, score.Pair{}); err == nil {
		t.Fatal("HV with degenerate ref accepted")
	}
	// Point outside the box contributes nothing extra.
	outside := []score.Pair{{IL: 150, DR: 150}}
	if got := mustHV(t, outside, ref); got != 0 {
		t.Fatalf("HV(outside) = %v", got)
	}
	// Ideal point dominates the whole box.
	ideal := []score.Pair{{IL: 0, DR: 0}}
	if got := mustHV(t, ideal, ref); math.Abs(got-10000) > 1e-9 {
		t.Fatalf("HV(ideal) = %v, want 10000", got)
	}
}

func TestHypervolumeMonotoneUnderImprovement(t *testing.T) {
	// Property: adding a point never decreases the hypervolume.
	ref := score.Pair{IL: 100, DR: 100}
	f := func(raw []uint8, extraIL, extraDR uint8) bool {
		pairs := make([]score.Pair, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			pairs = append(pairs, score.Pair{IL: float64(raw[i] % 100), DR: float64(raw[i+1] % 100)})
		}
		before, err1 := Hypervolume(pairs, ref)
		after, err2 := Hypervolume(append(pairs, score.Pair{IL: float64(extraIL % 100), DR: float64(extraDR % 100)}), ref)
		return err1 == nil && err2 == nil && after >= before-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
