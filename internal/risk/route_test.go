package risk

import (
	"math/rand/v2"
	"testing"

	"evoprot/internal/dataset"
	"evoprot/internal/dataset/datasettest"
	"evoprot/internal/racecheck"
)

// linkageWide reports whether a DBRL or PRL state routes changes to a
// full re-link.
func linkageWide(t testing.TB, st State, changes []dataset.CellChange) bool {
	t.Helper()
	switch s := st.(type) {
	case *dbrlState:
		return s.wide(changes)
	case *prlState:
		return s.wide(changes)
	}
	t.Fatalf("%T is not a linkage state", st)
	return false
}

// breakEven returns the shortest prefix of changes that st routes to a
// full re-link, or 0 when even the whole list is patched.
func breakEven(t testing.TB, st State, changes []dataset.CellChange) int {
	t.Helper()
	lo, hi := 1, len(changes)+1 // the answer lies in [lo, hi]; hi means none
	for lo < hi {
		mid := (lo + hi) / 2
		if linkageWide(t, st, changes[:mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo > len(changes) {
		return 0
	}
	return lo
}

// edited returns a copy of d with changes applied.
func edited(d *dataset.Dataset, changes []dataset.CellChange) *dataset.Dataset {
	out := d.Clone()
	for _, ch := range changes {
		out.Set(ch.Row, ch.Col, ch.New)
	}
	return out
}

// TestLinkageRouteAcrossBreakEven drives the DBRL and PRL states with
// change lists of one cell, just below and just above each state's own
// break-even, and rows/2, on the paper-scale flare file and the small
// german test file. Every ApplyUndo must equal
// full Risk of the edited file bit for bit, Undo must leave the state
// describing the unedited file, and a wide list committed by Apply —
// which patches whatever the width — followed by narrow commits must
// match a control state that patched every commit cell by cell; so must
// a clone taken while a wide ApplyUndo is pending, and a plain Apply that
// commits one, re-linking the stale state. Both routes must run on every
// fixture and measure.
func TestLinkageRouteAcrossBreakEven(t *testing.T) {
	flare, flareMasked, flareAttrs := benchPairOf(t, "flare", 0)
	german, germanAttrs := testData(t)
	fixtures := []linkageCase{
		{name: "flare", orig: flare, masked: flareMasked, attrs: flareAttrs},
		{name: "german", orig: german, masked: scramble(german, germanAttrs, 3), attrs: germanAttrs},
	}
	for _, fx := range fixtures {
		for _, m := range []Reversible{&DistanceLinkage{}, &ProbabilisticLinkage{}} {
			checkRouteAcrossBreakEven(t, fx.name+"/"+m.Name(), m, fx)
		}
	}
}

func checkRouteAcrossBreakEven(t *testing.T, name string, m Reversible, fx linkageCase) {
	rng := rand.New(rand.NewPCG(uint64(fx.orig.Rows()), 47))
	work := fx.masked.Clone()
	st := m.Prepare(fx.orig, work.Clone(), fx.attrs)
	control := st.CloneState()
	routes := map[bool]int{}
	for round := 0; round < 3; round++ {
		// Past rows/2, the list runs on until it crosses the break-even.
		long := make([]dataset.CellChange, fx.orig.Rows()*len(fx.attrs))
		scratch := work.Clone()
		for i := range long {
			long[i] = datasettest.RandomChange(rng, scratch, fx.attrs)
		}
		k := breakEven(t, st, long)
		if k <= 1 {
			t.Fatalf("%s round %d: break-even at %d cells of %d", name, round, k, len(long))
		}
		half := fx.orig.Rows() / 2
		for _, w := range []int{1, k - 1, k, half} {
			changes := long[:w]
			routes[linkageWide(t, st, changes)]++
			want := m.Risk(fx.orig, edited(work, changes), fx.attrs)
			if got := m.ApplyUndo(st, changes); got != want {
				t.Fatalf("%s round %d width %d: ApplyUndo %v != full %v", name, round, w, got, want)
			}
			// A clone taken mid-speculation describes the edited file.
			if got := m.Apply(st.CloneState(), nil); got != want {
				t.Fatalf("%s round %d width %d: clone of the speculative state %v != full %v", name, round, w, got, want)
			}
			m.Undo(st)
			if got, want := m.Apply(st, nil), m.Risk(fx.orig, work, fx.attrs); got != want {
				t.Fatalf("%s round %d width %d: after Undo %v != full %v", name, round, w, got, want)
			}
		}
		// Commit a wide list, in odd rounds as a pending wide ApplyUndo
		// that a plain Apply of the rest commits; the control patches it
		// cell by cell.
		long = long[:max(k, half)]
		work = edited(work, long)
		var got float64
		if round%2 == 1 {
			m.ApplyUndo(st, long[:k])
			got = m.Apply(st, long[k:])
		} else {
			got = m.Apply(st, long)
		}
		for i := range long {
			m.Apply(control, long[i:i+1])
		}
		if want := m.Risk(fx.orig, work, fx.attrs); got != want || m.Apply(control, nil) != want {
			t.Fatalf("%s round %d: wide commit %v, control %v, full %v", name, round, got, m.Apply(control, nil), want)
		}
		for step := 0; step < 4; step++ {
			changes := make([]dataset.CellChange, 1+rng.IntN(3))
			for i := range changes {
				changes[i] = datasettest.RandomChange(rng, work, fx.attrs)
			}
			if got, want := m.Apply(st, changes), m.Apply(control, changes); got != want {
				t.Fatalf("%s round %d step %d: narrow commit %v != control %v", name, round, step, got, want)
			}
		}
	}
	if routes[true] == 0 || routes[false] == 0 {
		t.Fatalf("%s: %d wide and %d narrow lists; both routes must run", name, routes[true], routes[false])
	}
}

// TestStaleCloneStaysStale: a clone of a state holding a pending wide
// ApplyUndo — wide for the state, though far narrower than the rows/2
// at which the battery gives up on states — starts stale, its rows or
// histograms lagging its masked columns. A wide ApplyUndo and Undo on the
// clone must leave it stale, so that a narrow Apply then re-links before
// it patches and equals full Risk of the edited file.
func TestStaleCloneStaysStale(t *testing.T) {
	orig, masked, attrs := benchPairOf(t, "flare", 0)
	rng := rand.New(rand.NewPCG(3, 47))
	for _, m := range []Reversible{&DistanceLinkage{}, &ProbabilisticLinkage{}} {
		st := m.Prepare(orig, masked, attrs)
		// wideList returns the shortest prefix of a random change list
		// from d that st routes to a re-link.
		wideList := func(st State, d *dataset.Dataset) []dataset.CellChange {
			long := make([]dataset.CellChange, orig.Rows()/2)
			scratch := d.Clone()
			for i := range long {
				long[i] = datasettest.RandomChange(rng, scratch, attrs)
			}
			k := breakEven(t, st, long)
			if k == 0 {
				t.Fatalf("%s: no list of up to rows/2 = %d cells is wide", m.Name(), len(long))
			}
			return long[:k]
		}
		first := wideList(st, masked)
		child := edited(masked, first)
		m.ApplyUndo(st, first)
		clone := st.CloneState()
		m.Undo(st)

		second := wideList(clone, child)
		m.ApplyUndo(clone, second)
		m.Undo(clone)
		third := []dataset.CellChange{datasettest.RandomChange(rng, child.Clone(), attrs)}
		if got, want := m.Apply(clone, third), m.Risk(orig, edited(child, third), attrs); got != want {
			t.Fatalf("%s: narrow Apply on the clone %v != full Risk %v", m.Name(), got, want)
		}
		if got, want := m.Apply(st, nil), m.Risk(orig, masked, attrs); got != want {
			t.Fatalf("%s: parent after Undo %v != full Risk %v", m.Name(), got, want)
		}
	}
}

// FuzzLinkageRoute drives the DBRL and PRL states of a random grid
// through change lists whose widths the input draws, so that lists land
// on both sides of each state's break-even, and demands every value equal
// the pairwise oracle of the edited file. The RSRL state runs the same
// lists after them: a one-cell list shifts the counts of the profiles
// whose candidate union only flipped the moved record's bit, and any
// other list re-intersects the profiles it touches. The seed picks the
// grid and the cells; each width byte is one list of
// 1 + (byte&0x7f)·rows/32 cells, committed when its high bit is set and
// applied then undone otherwise, so 0x00 and 0x80 are one-cell
// ApplyUndo and Apply at any grid size.
func FuzzLinkageRoute(f *testing.F) {
	f.Add(uint64(1), []byte{1, 0x90, 40, 0xff, 3})
	f.Add(uint64(7), []byte{0x7f, 2, 0x81, 64})
	f.Add(uint64(12), []byte{0xc0, 0x40, 1, 1, 0x85})
	f.Add(uint64(3), []byte{0x00, 0x80, 0x00, 0x00, 0x80, 0x00, 0x80, 0x80})
	f.Add(uint64(5), []byte{0x80, 0x00, 0x00, 0x80, 0x10, 0x00, 0x80, 0x00})
	f.Add(uint64(10), []byte{0x00, 0x00, 0x80, 0x00, 0x90, 0x00, 0x80})
	f.Fuzz(func(t *testing.T, seed uint64, widths []byte) {
		rng := rand.New(rand.NewPCG(seed, 3))
		shapes := []string{"dup", "mixed", "unique"}
		fx := linkageGrid(rng, 2+rng.IntN(120), 1+rng.IntN(5), shapes[seed%3])
		for _, gr := range groupedReferences() {
			st := gr.m.Prepare(fx.orig, fx.masked.Clone(), fx.attrs)
			if st == nil {
				continue // PRL declines more patterns than records
			}
			work := fx.masked.Clone()
			for step, b := range widths[:min(len(widths), 16)] {
				changes := make([]dataset.CellChange, 1+int(b&0x7f)*fx.orig.Rows()/32)
				scratch := work.Clone()
				for i := range changes {
					changes[i] = datasettest.RandomChange(rng, scratch, fx.attrs)
				}
				want := gr.ref(fx.orig, scratch, fx.attrs)
				if b&0x80 != 0 {
					if got := gr.m.Apply(st, changes); got != want {
						t.Fatalf("%s %s step %d width %d: Apply %v != pairwise %v", fx.name, gr.m.Name(), step, len(changes), got, want)
					}
					work = scratch
					continue
				}
				if got := gr.m.ApplyUndo(st, changes); got != want {
					t.Fatalf("%s %s step %d width %d: ApplyUndo %v != pairwise %v", fx.name, gr.m.Name(), step, len(changes), got, want)
				}
				gr.m.Undo(st)
				if got, want := gr.m.Apply(st, nil), gr.ref(fx.orig, work, fx.attrs); got != want {
					t.Fatalf("%s %s step %d width %d: after Undo %v != pairwise %v", fx.name, gr.m.Name(), step, len(changes), got, want)
				}
			}
		}
	})
}

// TestLinkageWideRouteAllocs gates the allocations of the wide route on
// the paper-scale flare file: once warm, a wide ApplyUndo+Undo, and an
// Apply committing the same list cell by cell, allocate nothing on either
// state, and full Risk reads both files' cells in place — PRL allocates
// nothing and DBRL only its distance tables, and bound (the evaluator's
// route for a wide edit) neither allocates at all. The pooled scratch is
// dropped at random under the race detector, so the gate runs without it.
func TestLinkageWideRouteAllocs(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	orig, masked, attrs := benchPairOf(t, "flare", 0)
	forward := randomChanges(masked, attrs, orig.Rows()/2, 9)
	back := make([]dataset.CellChange, len(forward))
	for i, ch := range forward {
		back[len(back)-1-i] = ch.Inverted()
	}
	for _, m := range []Reversible{&DistanceLinkage{}, &ProbabilisticLinkage{}} {
		st := m.Prepare(orig, masked.Clone(), attrs)
		if !linkageWide(t, st, forward) || !linkageWide(t, st, back) {
			t.Fatalf("%s: a %d-cell list is patched, not re-linked", m.Name(), len(forward))
		}
		speculate := func() {
			m.ApplyUndo(st, forward)
			m.Undo(st)
		}
		commit := func() {
			m.Apply(st, forward)
			m.Apply(st, back)
		}
		speculate()
		commit()
		if allocs := testing.AllocsPerRun(20, speculate); allocs != 0 {
			t.Errorf("%s: wide ApplyUndo+Undo allocates %v times", m.Name(), allocs)
		}
		if allocs := testing.AllocsPerRun(20, commit); allocs != 0 {
			t.Errorf("%s: wide Apply allocates %v times", m.Name(), allocs)
		}
		want := 0
		if _, ok := m.(*DistanceLinkage); ok {
			want = 1 + len(attrs) // distanceTables
		}
		m.Risk(orig, masked, attrs)
		if allocs := testing.AllocsPerRun(20, func() { m.Risk(orig, masked, attrs) }); allocs > float64(want) {
			t.Errorf("%s: full Risk allocates %v times, want at most %d: it reads cells in place and keeps its grouping scratch pooled", m.Name(), allocs, want)
		}
		b := m.(Binder).Bind(orig, attrs)
		b.Risk(orig, masked, attrs)
		if allocs := testing.AllocsPerRun(20, func() { b.Risk(orig, masked, attrs) }); allocs != 0 {
			t.Errorf("%s: bound full Risk allocates %v times: it reads the bound grouping and tables", m.Name(), allocs)
		}
	}
}
