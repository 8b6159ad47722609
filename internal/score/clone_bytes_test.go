package score_test

import (
	"math/rand/v2"
	"runtime"
	"testing"

	"evoprot/internal/datagen"
	"evoprot/internal/datagen/datagentest"
	"evoprot/internal/infoloss"
	"evoprot/internal/protection/protectiontest"
	"evoprot/internal/racecheck"
	"evoprot/internal/score"
)

// TestDeltaStateCloneBytes gates the bytes one DeltaState.Clone
// allocates on the paper-scale german pair under the pareto-islands
// battery (the paper's plus ML utility on HOUSING). The CTBIL, DBRL and
// PRL states each copy the masked protected cells at the width of their
// attributes' domains, a byte per cell here: about 53 KB per clone in
// all. Copying them as []int columns, eight bytes per cell, costs about
// 117 KB and fails the bound.
func TestDeltaStateCloneBytes(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("the race detector instruments allocations")
	}
	orig := datagentest.MustByName("german", 0, 5)
	names, _ := datagen.ProtectedAttrs("german")
	attrs, err := orig.Schema().Indices(names...)
	if err != nil {
		t.Fatal(err)
	}
	target, err := orig.Schema().Indices("HOUSING")
	if err != nil {
		t.Fatal(err)
	}
	eval, err := score.NewEvaluator(orig, attrs, score.Config{IL: append(infoloss.Default(), &infoloss.MLUtility{Target: target[0]})})
	if err != nil {
		t.Fatal(err)
	}
	masked, err := protectiontest.Must("pram:theta=0.7").Protect(orig, attrs, rand.New(rand.NewPCG(5, 5)))
	if err != nil {
		t.Fatal(err)
	}
	st, err := eval.Prepare(masked)
	if err != nil {
		t.Fatal(err)
	}
	const clones = 200
	keep := make([]*score.DeltaState, clones)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = st.Clone()
	}
	runtime.ReadMemStats(&after)
	perClone := (after.TotalAlloc - before.TotalAlloc) / clones
	t.Logf("%d B per DeltaState.Clone", perClone)
	const bound = 80 << 10
	if perClone > bound {
		t.Fatalf("DeltaState.Clone allocates %d B, want at most %d", perClone, bound)
	}
}
