package pareto

// Regression tests pinning the package's finiteness contract and the
// hypervolume error/oracle behavior. The non-finite cases fail on the
// pre-fix code: Front's `<`-based sort placed NaN pairs wherever the
// input order left them (poisoning the front and suppressing finite
// points behind a NaN), Dominates let a NaN pair dominate finite points,
// and Hypervolume returned a silent 0 for a reference point that bounds no
// box.

import (
	"math"
	"math/rand/v2"
	"testing"

	"evoprot/internal/score"
)

func TestFrontDropsNonFinite(t *testing.T) {
	nan := math.NaN()
	inf := math.Inf(1)
	// Pre-fix, the NaN pair sorted ahead of (5,5) for this input order and
	// its DR of 1 then suppressed the finite point from the front.
	front := Front([]score.Pair{{IL: nan, DR: 1}, {IL: 5, DR: 5}})
	if len(front) != 1 || front[0] != (score.Pair{IL: 5, DR: 5}) {
		t.Fatalf("front = %v, want [(5,5)]", front)
	}
	// The result must not depend on where the degenerate pairs sit.
	bad := []score.Pair{
		{IL: nan, DR: 1}, {IL: 1, DR: nan}, {IL: nan, DR: nan},
		{IL: inf, DR: 0}, {IL: 0, DR: -inf},
	}
	good := []score.Pair{{IL: 10, DR: 40}, {IL: 20, DR: 20}, {IL: 30, DR: 50}}
	for shift := 0; shift <= len(bad); shift++ {
		mixed := append(append(append([]score.Pair{}, bad[:shift]...), good...), bad[shift:]...)
		front := Front(mixed)
		if len(front) != 2 || front[0] != good[0] || front[1] != good[1] {
			t.Fatalf("shift %d: front = %v, want [(10,40) (20,20)]", shift, front)
		}
	}
	if got := Front([]score.Pair{{IL: nan, DR: nan}}); got != nil {
		t.Fatalf("Front(all non-finite) = %v, want nil", got)
	}
}

func TestDominatesNonFinite(t *testing.T) {
	nan := math.NaN()
	inf := math.Inf(1)
	fin := score.Pair{IL: 5, DR: 5}
	for _, bad := range []score.Pair{
		{IL: nan, DR: 1}, {IL: 1, DR: nan}, {IL: nan, DR: nan},
		{IL: inf, DR: inf}, {IL: -inf, DR: 0},
	} {
		if Dominates(bad, fin) {
			t.Errorf("non-finite %v dominates %v", bad, fin)
		}
		if Dominates(fin, bad) {
			t.Errorf("%v dominates non-finite %v", fin, bad)
		}
		if Dominates(bad, bad) {
			t.Errorf("non-finite %v dominates itself", bad)
		}
	}
}

func TestHypervolumeRejectsBadReference(t *testing.T) {
	pairs := []score.Pair{{IL: 1, DR: 1}}
	for _, ref := range []score.Pair{
		{},
		{IL: 100},
		{DR: 100},
		{IL: -5, DR: 100},
		{IL: math.NaN(), DR: 100},
		{IL: 100, DR: math.Inf(1)},
	} {
		if _, err := Hypervolume(pairs, ref); err == nil {
			t.Errorf("reference %v accepted", ref)
		}
	}
}

func TestHypervolumeIgnoresNonFinitePairs(t *testing.T) {
	ref := score.Pair{IL: 100, DR: 100}
	finite := []score.Pair{{IL: 25, DR: 25}}
	withBad := append([]score.Pair{{IL: math.NaN(), DR: 1}, {IL: 1, DR: math.Inf(-1)}}, finite...)
	if got := mustHV(t, withBad, ref); math.Abs(got-mustHV(t, finite, ref)) > 1e-9 {
		t.Fatalf("HV with non-finite pairs = %v, want %v", got, mustHV(t, finite, ref))
	}
}

// TestHypervolumeOracle pins the staircase sweep — including the
// clamp-to-zero, skip-outside-the-box and on-the-boundary paths — against
// a brute-force unit-grid count. Points and the reference are drawn on
// integer coordinates, so the dominated region is a union of
// integer-aligned rectangles and the grid count is exact, not an
// approximation: cell [i,i+1)x[j,j+1) lies inside the region exactly when
// some point has IL <= i and DR <= j.
func TestHypervolumeOracle(t *testing.T) {
	ref := score.Pair{IL: 100, DR: 100}
	rng := rand.New(rand.NewPCG(7, 11))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.IntN(30)
		pairs := make([]score.Pair, n)
		for i := range pairs {
			// [-10, 130): negatives exercise the clamp, values past 100 the
			// outside-the-box paths, and exact 0/100 hits the boundaries.
			pairs[i] = score.Pair{
				IL: float64(rng.IntN(141) - 10),
				DR: float64(rng.IntN(141) - 10),
			}
		}
		want := 0.0
		for i := 0; i < 100; i++ {
			for j := 0; j < 100; j++ {
				for _, p := range pairs {
					if p.IL <= float64(i) && p.DR <= float64(j) {
						want++
						break
					}
				}
			}
		}
		if got := mustHV(t, pairs, ref); math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: HV(%v) = %v, oracle %v", trial, pairs, got, want)
		}
	}
}
