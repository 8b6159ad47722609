package core

import (
	"testing"

	"evoprot/internal/dataset"
	"evoprot/internal/racecheck"
)

// TestLosingOffspringAllocations pins copy on survive: on a warm engine,
// a losing narrow offspring — the operator, batch scoring and settling,
// with no survivor commit — allocates nothing beyond what scoring its
// change list costs on its own (score.EvaluateEdit called directly on
// the parent's file and state) and one wrapper per offspring. Cloning the
// parent's file per offspring costs two allocations more (the dataset
// and its cells). The offspring leave scoring file-less. Each run
// rewinds the engine's random source, so every run draws the same
// offspring. The counts are compared without the race detector only.
func TestLosingOffspringAllocations(t *testing.T) {
	e := testEngine(t, Config{Generations: 20, Seed: 5})
	mustRun(t, e)
	for _, ind := range e.pop {
		e.ensureState(ind)
	}

	t.Run("mutation", func(t *testing.T) {
		parent := e.pop[len(e.pop)-1]
		saved := *e.pcg
		_, ch := e.mutate(parent)
		changes := [][]dataset.CellChange{append([]dataset.CellChange(nil), ch...)}
		losing := func() {
			*e.pcg = saved
			child, changes := e.mutate(parent)
			e.bParents[0], e.bChildren[0], e.bChanges[0] = parent, child, changes
			e.evaluateStaged(1)
			e.settleStates()
		}
		requireLosingAllocs(t, e, []*Individual{parent}, changes, losing)
	})

	t.Run("crossover", func(t *testing.T) {
		p1, p2 := e.pop[0], e.pop[1]
		// Find a draw whose gene window is narrow but changes something:
		// a wide window's child is built by scoring, and rightly so.
		saved := *e.pcg
		var changes [][]dataset.CellChange
		for attempt := 0; ; attempt++ {
			if attempt == 1000 {
				t.Fatal("no narrow crossover window in 1000 draws")
			}
			saved = *e.pcg
			_, _, ch1, ch2 := e.cross(p1, p2)
			if len(ch1) > 0 && !e.eval.WideEdit(ch1) {
				changes = [][]dataset.CellChange{
					append([]dataset.CellChange(nil), ch1...),
					append([]dataset.CellChange(nil), ch2...),
				}
				break
			}
		}
		losing := func() {
			*e.pcg = saved
			c1, c2, ch1, ch2 := e.cross(p1, p2)
			e.bParents[0], e.bChildren[0], e.bChanges[0] = p1, c1, ch1
			e.bParents[1], e.bChildren[1], e.bChanges[1] = p2, c2, ch2
			e.evaluateStaged(2)
			e.settleStates()
		}
		requireLosingAllocs(t, e, []*Individual{p1, p2}, changes, losing)
	})
}

// requireLosingAllocs compares the allocations of losing (which scores
// one offspring per parent through the engine) against scoring the same
// change lists directly, and checks the offspring losing left in
// e.bChildren have no file.
func requireLosingAllocs(t *testing.T, e *Engine, parents []*Individual, changes [][]dataset.CellChange, losing func()) {
	t.Helper()
	var built [2]*dataset.Dataset
	scoring := func() {
		for i, p := range parents {
			var err error
			if _, built[i], err = e.eval.EvaluateEdit(p.Eval, p.Data, p.state, changes[i]); err != nil {
				t.Fatal(err)
			}
			e.eval.Restore(p.state)
		}
	}
	scoring()
	losing()
	for i := range parents {
		if e.bChildren[i].Data != nil {
			t.Fatalf("offspring %d left scoring with a file", i)
		}
		if built[i] != nil {
			t.Fatalf("scoring built offspring %d's file", i)
		}
	}
	if racecheck.Enabled {
		t.Skip("the race detector's instrumentation changes what escapes to the heap")
	}
	base := testing.AllocsPerRun(100, scoring)
	got := testing.AllocsPerRun(100, losing)
	if extra := got - base; extra > float64(len(parents)) {
		t.Fatalf("a losing offspring generation allocates %v times beyond scoring (%v), want at most %d wrapper(s)",
			extra, base, len(parents))
	}
}
