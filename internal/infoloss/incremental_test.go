package infoloss

import (
	"math/rand/v2"
	"slices"
	"testing"

	"evoprot/internal/dataset"
	"evoprot/internal/dataset/datasettest"
	"evoprot/internal/racecheck"
)

// reversibleBattery is the default battery plus ML utility predicting an
// unprotected column and a protected one, so both routes of its state
// (feature edits only, and class moves) run.
func reversibleBattery(attrs []int) []Measure {
	unprotected := 0
	for slices.Contains(attrs, unprotected) {
		unprotected++
	}
	return append(Default(), &MLUtility{Target: unprotected}, &MLUtility{Target: attrs[1]})
}

// TestIncrementalMatchesFullLoss drives each incremental measure through
// long randomized change sequences — single-cell steps and multi-cell
// batches — and demands bit-identical agreement with a full Loss recompute
// at every step.
func TestIncrementalMatchesFullLoss(t *testing.T) {
	for _, seed := range []uint64{1, 17, 99} {
		d, attrs := testData(t)
		rng := rand.New(rand.NewPCG(seed, 5))
		masked := scramble(d, attrs, seed)
		for _, m := range reversibleBattery(attrs) {
			inc, ok := m.(Incremental)
			if !ok {
				t.Fatalf("%s does not implement Incremental", m.Name())
			}
			work := masked.Clone()
			st := inc.Prepare(d, work, attrs)
			if st == nil {
				t.Fatalf("%s: Prepare returned nil", m.Name())
			}
			if got, want := inc.Apply(st, nil), m.Loss(d, work, attrs); got != want {
				t.Fatalf("%s: Apply(nil) = %v, Prepare-time Loss = %v", m.Name(), got, want)
			}
			for step := 0; step < 120; step++ {
				batch := 1 + rng.IntN(4)
				changes := make([]dataset.CellChange, batch)
				for i := range changes {
					changes[i] = datasettest.RandomChange(rng, work, attrs)
				}
				got := inc.Apply(st, changes)
				want := m.Loss(d, work, attrs)
				if got != want {
					t.Fatalf("%s seed %d step %d: delta %v != full %v", m.Name(), seed, step, got, want)
				}
			}
		}
	}
}

// TestIncrementalCloneIsolation branches a state, applies divergent
// changes to the branch, and checks the original still tracks its own
// file exactly.
func TestIncrementalCloneIsolation(t *testing.T) {
	d, attrs := testData(t)
	rng := rand.New(rand.NewPCG(3, 9))
	for _, m := range reversibleBattery(attrs) {
		inc := m.(Incremental)
		work := scramble(d, attrs, 7)
		st := inc.Prepare(d, work, attrs)

		branchData := work.Clone()
		branch := st.CloneState()
		for i := 0; i < 25; i++ {
			ch := datasettest.RandomChange(rng, branchData, attrs)
			inc.Apply(branch, []dataset.CellChange{ch})
		}
		// The original state must still describe `work`, untouched by the
		// branch's evolution.
		if got, want := inc.Apply(st, nil), m.Loss(d, work, attrs); got != want {
			t.Fatalf("%s: original state corrupted by clone: %v != %v", m.Name(), got, want)
		}
		if got, want := inc.Apply(branch, nil), m.Loss(d, branchData, attrs); got != want {
			t.Fatalf("%s: branch state wrong: %v != %v", m.Name(), got, want)
		}
	}
}

// TestIncrementalRevertRoundTrip applies a change and its inverse and
// expects the exact original value back — the integer-state property that
// underpins long delta chains.
func TestIncrementalRevertRoundTrip(t *testing.T) {
	d, attrs := testData(t)
	rng := rand.New(rand.NewPCG(11, 2))
	for _, m := range reversibleBattery(attrs) {
		inc := m.(Incremental)
		work := scramble(d, attrs, 21)
		st := inc.Prepare(d, work, attrs)
		before := inc.Apply(st, nil)
		for i := 0; i < 30; i++ {
			ch := datasettest.RandomChange(rng, work, attrs)
			inc.Apply(st, []dataset.CellChange{ch})
			inv := dataset.CellChange{Row: ch.Row, Col: ch.Col, Old: ch.New, New: ch.Old}
			work.Set(ch.Row, ch.Col, ch.Old)
			if got := inc.Apply(st, []dataset.CellChange{inv}); got != before {
				t.Fatalf("%s: revert %d drifted: %v != %v", m.Name(), i, got, before)
			}
		}
	}
}

// TestCTBILPrepareRespectsMaxDim checks the incremental state enumerates
// the same table set as Loss for non-default dimensions.
func TestCTBILPrepareRespectsMaxDim(t *testing.T) {
	d, attrs := testData(t)
	rng := rand.New(rand.NewPCG(13, 4))
	for _, maxDim := range []int{1, 2, 3} {
		c := &CTBIL{MaxDim: maxDim}
		work := scramble(d, attrs, 31)
		st := c.Prepare(d, work, attrs)
		for i := 0; i < 20; i++ {
			ch := datasettest.RandomChange(rng, work, attrs)
			if got, want := c.Apply(st, []dataset.CellChange{ch}), c.Loss(d, work, attrs); got != want {
				t.Fatalf("MaxDim=%d: delta %v != full %v", maxDim, got, want)
			}
		}
	}
}

// TestReversibleApplyUndo drives every reversible info-loss state through
// speculative ApplyUndo/Undo rounds interleaved with committed Applies —
// the exact access pattern of generation-batch evaluation — and demands
// (a) each speculative value equals the full recompute of the edited
// file, (b) the undone state still tracks the unedited file bit for bit,
// and (c) a control state advanced only by committed Applies agrees at
// every step.
func TestReversibleApplyUndo(t *testing.T) {
	d, attrs := testData(t)
	for _, m := range reversibleBattery(attrs) {
		rev, ok := m.(Reversible)
		if !ok {
			t.Fatalf("%s lacks a reversible implementation", m.Name())
		}
		rng := rand.New(rand.NewPCG(13, 41))
		work := scramble(d, attrs, 9)
		st := rev.Prepare(d, work, attrs)
		if st == nil {
			t.Fatalf("%s: Prepare returned nil", m.Name())
		}
		control := st.CloneState()
		for step := 0; step < 40; step++ {
			// A speculative offspring: edits against a scratch copy.
			spec := work.Clone()
			changes := make([]dataset.CellChange, 1+rng.IntN(4))
			for i := range changes {
				changes[i] = datasettest.RandomChange(rng, spec, attrs)
			}
			got := rev.ApplyUndo(st, changes)
			if want := m.Loss(d, spec, attrs); got != want {
				t.Fatalf("%s step %d: ApplyUndo %v != full %v", m.Name(), step, got, want)
			}
			rev.Undo(st)
			if got, want := rev.Apply(st, nil), m.Loss(d, work, attrs); got != want {
				t.Fatalf("%s step %d: state after Undo %v != full %v", m.Name(), step, got, want)
			}
			// Undo twice is a no-op.
			rev.Undo(st)
			// Every third round, commit the offspring for real.
			if step%3 == 0 {
				for _, ch := range changes {
					work.Set(ch.Row, ch.Col, ch.New)
				}
				if got, want := rev.Apply(st, changes), rev.Apply(control, changes); got != want {
					t.Fatalf("%s step %d: committed %v != control %v", m.Name(), step, got, want)
				}
			}
		}
	}
}

// TestEBILLossAllocatesOnlyJointTables gates EBIL's full evaluation: it
// tabulates each attribute's joint table straight from the two files'
// cells, so its only allocations are that table's backing array and row
// headers — no column copies. The race detector's instrumentation
// allocates, so the gate runs without it.
func TestEBILLossAllocatesOnlyJointTables(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	d, attrs := testData(t)
	work := scramble(d, attrs, 3)
	tables := 0
	for _, c := range attrs {
		if d.Schema().Attr(c).Cardinality() >= 2 {
			tables++
		}
	}
	e := &EBIL{}
	if allocs := testing.AllocsPerRun(20, func() { e.Loss(d, work, attrs) }); allocs != float64(2*tables) {
		t.Errorf("EBIL Loss allocates %v times, want %d (two per joint table)", allocs, 2*tables)
	}
}

// TestJointCounts: the joint table read from the files' cells counts
// every record once, in the cell of its (original, masked) category pair
// — the same table a tabulation of copied columns gives.
func TestJointCounts(t *testing.T) {
	d, attrs := testData(t)
	work := scramble(d, attrs, 5)
	for _, c := range attrs {
		card := d.Schema().Attr(c).Cardinality()
		want := make([][]int, card)
		for u := range want {
			want[u] = make([]int, card)
		}
		oc, mc := d.Column(c), work.Column(c)
		for r := range oc {
			want[oc[r]][mc[r]]++
		}
		if got := jointCounts(d, work, c, card); !slices.EqualFunc(got, want, slices.Equal) {
			t.Fatalf("attribute %d: jointCounts = %v, want %v", c, got, want)
		}
	}
}

// TestEBILReadsAllocateNothing gates EBIL's delta reads: once warm, a
// speculative ApplyUndo+Undo and a committed Apply (of a change list and
// then of its inverse) recompute the touched attributes' terms without
// allocating. The race detector's instrumentation allocates, so the gate
// runs without it.
func TestEBILReadsAllocateNothing(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	d, attrs := testData(t)
	work := scramble(d, attrs, 3)
	rng := rand.New(rand.NewPCG(7, 8))
	spec := work.Clone()
	forward := make([]dataset.CellChange, 6)
	for i := range forward {
		forward[i] = datasettest.RandomChange(rng, spec, attrs)
	}
	back := make([]dataset.CellChange, len(forward))
	for i, ch := range forward {
		back[len(back)-1-i] = ch.Inverted()
	}
	e := &EBIL{}
	st := e.Prepare(d, work, attrs)
	speculate := func() {
		e.ApplyUndo(st, forward)
		e.Undo(st)
	}
	commit := func() {
		e.Apply(st, forward)
		e.Apply(st, back)
	}
	speculate()
	commit()
	if allocs := testing.AllocsPerRun(20, speculate); allocs != 0 {
		t.Errorf("EBIL ApplyUndo+Undo allocates %v times", allocs)
	}
	if allocs := testing.AllocsPerRun(20, commit); allocs != 0 {
		t.Errorf("EBIL Apply allocates %v times", allocs)
	}
	if got, want := e.Apply(st, nil), e.Loss(d, work, attrs); got != want {
		t.Fatalf("after the gated rounds EBIL reads %v, full Loss %v", got, want)
	}
}
