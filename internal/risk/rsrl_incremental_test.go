package risk

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"evoprot/internal/dataset"
	"evoprot/internal/dataset/datasettest"
)

// rsrlStateDiff describes the first group count, record hit flag or value
// in which st differs from want, a state prepared afresh; "" when none.
func rsrlStateDiff(st, want *rsrlState) string {
	for g := range want.counts {
		if got, w := st.counts[g], want.counts[g]; got != w {
			return fmt.Sprintf("group %d count %d, prepared %d", g, got, w)
		}
	}
	for i := range want.recHit {
		if got, w := st.recHit[i], want.recHit[i]; got != w {
			return fmt.Sprintf("record %d hit %v, prepared %v", i, got, w)
		}
	}
	if got, w := st.value(), want.value(); got != w {
		return fmt.Sprintf("value %v, prepared %v", got, w)
	}
	return ""
}

// TestRSRLStateMatchesPrepare checks the RSRL state itself, not only its
// value: after every step of a chain of single-cell ApplyUndo then Undo
// (or a keeping empty Apply), single-cell Apply commits and multi-cell
// lists, every group's candidate count, every record's hit flag and the
// value must equal those of a state prepared afresh from the edited
// file. The chains run on paper-scale adult and german, and on small
// grids whose narrow windows (small P) slide often. Both routes must run:
// single-cell edits that shift counts, single-cell edits that slide a
// window and re-intersect, and multi-cell lists.
func TestRSRLStateMatchesPrepare(t *testing.T) {
	type fixture struct {
		name         string
		orig, masked *dataset.Dataset
		attrs        []int
		p            float64
		steps        int
	}
	var fixtures []fixture
	for _, name := range []string{"adult", "german"} {
		orig, masked, attrs := benchPairOf(t, name, 1000)
		fixtures = append(fixtures, fixture{name, orig, masked, attrs, 0, 100})
	}
	rng := rand.New(rand.NewPCG(33, 7))
	for k, p := range []float64{1, 3, 8} {
		g, attrs := randomGrid(t, rng, 40+rng.IntN(80), 1+k, 9)
		fixtures = append(fixtures, fixture{fmt.Sprintf("grid%d/P=%v", k, p), g, scramble(g, attrs, uint64(k)), attrs, p, 300})
	}
	var shifted, slid, multi int
	for _, fx := range fixtures {
		rl := &RankIntervalLinkage{P: fx.p}
		work := fx.masked.Clone()
		st := rl.Prepare(fx.orig, work.Clone(), fx.attrs).(*rsrlState)
		check := func(step int, what string, d *dataset.Dataset, got float64) {
			t.Helper()
			want := rl.Prepare(fx.orig, d, fx.attrs).(*rsrlState)
			if diff := rsrlStateDiff(st, want); diff != "" {
				t.Fatalf("%s step %d, %s: %s", fx.name, step, what, diff)
			}
			if w := want.value(); got != w {
				t.Fatalf("%s step %d, %s returned %v, prepared %v", fx.name, step, what, got, w)
			}
		}
		for step := range fx.steps {
			op := step % 5
			width := 1
			if op >= 3 {
				width = 2 + rng.IntN(6)
			}
			next := work.Clone()
			changes := make([]dataset.CellChange, width)
			for i := range changes {
				changes[i] = datasettest.RandomChange(rng, next, fx.attrs)
			}
			if op == 2 || op == 4 {
				check(step, "Apply", next, rl.Apply(st, changes))
				work = next
				continue
			}
			check(step, "ApplyUndo", next, rl.ApplyUndo(st, changes))
			switch {
			case width > 1 && len(st.undoRefresh) > 0:
				multi++
			case width == 1 && len(st.undoRefresh) > 0:
				slid++ // a single cell re-intersects only past a slid window
			case width == 1 && len(st.undoShifts) > 0:
				shifted++
			}
			if op == 1 && step%2 == 0 {
				check(step, "keeping Apply", next, rl.Apply(st, nil))
				work = next
				continue
			}
			rl.Undo(st)
			check(step, "Undo", work, rl.Apply(st, nil))
		}
	}
	if shifted == 0 || slid == 0 || multi == 0 {
		t.Fatalf("%d single-cell edits shifted counts, %d slid a window, %d multi-cell lists re-intersected; every route must run", shifted, slid, multi)
	}
}

// TestRSRLSingleCellAllocs gates the single-cell route on paper-scale
// adult: once warm, ApplyUndo+Undo of one cell, and an Apply of a cell
// then of its inverse, allocate nothing, so the journal of shifted
// counts and the moved record's flag is reused. A clone taken while an
// edit is pending keeps journals of its own: its edits must leave the
// parent's pending journal intact for the parent's Undo.
func TestRSRLSingleCellAllocs(t *testing.T) {
	orig, masked, attrs := benchPairOf(t, "adult", 1000)
	cells := singleChanges(masked, attrs, 64, 5)
	rl := &RankIntervalLinkage{}
	st := rl.Prepare(orig, masked, attrs)
	k := 0
	speculate := func() {
		rl.ApplyUndo(st, cells[k:k+1])
		rl.Undo(st)
		k = (k + 1) % len(cells)
	}
	edit := make([]dataset.CellChange, 1)
	commit := func() {
		edit[0] = cells[k]
		rl.Apply(st, edit)
		edit[0] = cells[k].Inverted()
		rl.Apply(st, edit)
		k = (k + 1) % len(cells)
	}
	for range cells {
		speculate()
		commit()
	}
	if allocs := testing.AllocsPerRun(2*len(cells), speculate); allocs != 0 {
		t.Errorf("single-cell ApplyUndo+Undo allocates %v times", allocs)
	}
	if allocs := testing.AllocsPerRun(2*len(cells), commit); allocs != 0 {
		t.Errorf("single-cell Apply allocates %v times", allocs)
	}

	prepared := rl.Prepare(orig, masked, attrs).(*rsrlState)
	rl.ApplyUndo(st, cells[:1])
	clone := st.CloneState()
	for i := range cells[1:] {
		rl.ApplyUndo(clone, cells[1+i:2+i])
		rl.Undo(clone)
	}
	if diff := rsrlStateDiff(clone.(*rsrlState), rl.Prepare(orig, edited(masked, cells[:1]), attrs).(*rsrlState)); diff != "" {
		t.Fatalf("clone of a pending edit: %s", diff)
	}
	rl.Undo(st)
	if diff := rsrlStateDiff(st.(*rsrlState), prepared); diff != "" {
		t.Fatalf("parent Undo after the clone's edits: %s", diff)
	}
}
