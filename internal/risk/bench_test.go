package risk

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"evoprot/internal/datagen"
	"evoprot/internal/datagen/datagentest"
	"evoprot/internal/dataset"
	"evoprot/internal/dataset/datasettest"
	"evoprot/internal/protection/protectiontest"
)

func benchPair(b *testing.B, rows int) (*dataset.Dataset, *dataset.Dataset, []int) {
	return benchPairOf(b, "flare", rows)
}

// benchPairOf generates the named dataset and a PRAM masking of its
// protected attributes.
func benchPairOf(tb testing.TB, name string, rows int) (*dataset.Dataset, *dataset.Dataset, []int) {
	tb.Helper()
	d := datagentest.MustByName(name, rows, 5)
	names, _ := datagen.ProtectedAttrs(name)
	attrs, err := d.Schema().Indices(names...)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(5, 5))
	masked, err := protectiontest.Must("pram:theta=0.7").Protect(d, attrs, rng)
	if err != nil {
		tb.Fatal(err)
	}
	return d, masked, attrs
}

func benchMeasure(b *testing.B, m Measure, rows int) {
	b.Helper()
	orig, masked, attrs := benchPair(b, rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Risk(orig, masked, attrs)
	}
}

func BenchmarkIntervalDisclosure(b *testing.B)   { benchMeasure(b, &IntervalDisclosure{}, 500) }
func BenchmarkDistanceLinkage(b *testing.B)      { benchMeasure(b, &DistanceLinkage{}, 500) }
func BenchmarkProbabilisticLinkage(b *testing.B) { benchMeasure(b, &ProbabilisticLinkage{}, 500) }
func BenchmarkRankIntervalLinkage(b *testing.B)  { benchMeasure(b, &RankIntervalLinkage{}, 500) }

// BenchmarkLinkagePaperScale times full DBRL, PRL and RSRL Risk and
// Prepare on 1000-record files: flare and german, whose protected tuples
// repeat heavily, and adult, the paper's dataset with the most distinct
// tuples. These are the kernels that group records through tupleGroups
// (grouped.go); a return to record-pair scans, or to a second grouping
// for RSRL, costs several times their ns/op. Each sub-benchmark runs its
// operation once before timing, so the pooled grouping scratch is warm
// and allocs/op does not depend on what ran before.
func BenchmarkLinkagePaperScale(b *testing.B) {
	for _, name := range []string{"flare", "german", "adult"} {
		orig, masked, attrs := benchPairOf(b, name, 1000)
		for _, m := range []Incremental{&DistanceLinkage{}, &ProbabilisticLinkage{}, &RankIntervalLinkage{}} {
			b.Run(m.Name()+"/Risk/"+name, func(b *testing.B) {
				b.ReportAllocs()
				m.Risk(orig, masked, attrs)
				for b.Loop() {
					m.Risk(orig, masked, attrs)
				}
			})
			b.Run(m.Name()+"/Prepare/"+name, func(b *testing.B) {
				b.ReportAllocs()
				m.Prepare(orig, masked, attrs)
				for b.Loop() {
					m.Prepare(orig, masked, attrs)
				}
			})
		}
	}
}

// BenchmarkLinkageDeltaWidth times one speculative offspring on the DBRL
// and PRL states of the paper-scale flare file: ApplyUndo of a change
// list of the given width, then Undo. Narrow lists are patched cell by
// cell; past each state's own break-even the state re-links in full with
// the grouped kernel, so the cost levels off near one full Risk instead
// of growing with the width. A return to per-cell patching of wide lists
// multiplies the ns/op of the wide sub-benchmarks.
func BenchmarkLinkageDeltaWidth(b *testing.B) {
	orig, masked, attrs := benchPair(b, 0)
	for _, m := range []Reversible{&DistanceLinkage{}, &ProbabilisticLinkage{}} {
		st := m.Prepare(orig, masked, attrs)
		for _, width := range []int{1, 16, 64, 256, orig.Rows() / 2} {
			changes := randomChanges(masked, attrs, width, uint64(width))
			b.Run(fmt.Sprintf("%s/width=%d", m.Name(), width), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					m.ApplyUndo(st, changes)
					m.Undo(st)
				}
			})
		}
	}
}

// BenchmarkLinkageDeltaPaperScale times the narrow route of every
// mutation offspring on the DBRL, PRL and RSRL states of 1000-record
// flare, german and adult files: a single-cell ApplyUndo then Undo (an
// offspring that loses), ApplyUndo then an empty Apply (Commit: the
// winner keeping its pending edit), and the CloneState that hands a
// surviving child its own state. The DBRL and PRL patches scale with the
// state's distinct original tuples, not its records, so a return to
// per-record rows multiplies their ns/op; Commit re-running PRL's EM
// shows in its ns/op too. Their CloneState copies the per-tuple rows,
// the per-record true-match summary and the masked cells, one byte each
// here: 14–26 KB, of which a return to []int columns, eight bytes per
// cell, would add 21 KB. An RSRL single-cell edit that only flips the
// moved record's bit in a candidate union shifts the counts of the
// profiles holding it by bit tests; a return to re-intersecting every
// such profile over n/64 words makes its ApplyUndo three to four times
// slower. Its CloneState copies the per-category bitsets and rows:
// 14–34 KB.
func BenchmarkLinkageDeltaPaperScale(b *testing.B) {
	for _, name := range []string{"flare", "german", "adult"} {
		orig, masked, attrs := benchPairOf(b, name, 1000)
		cells := singleChanges(masked, attrs, 64, 3)
		for _, m := range []Reversible{&DistanceLinkage{}, &ProbabilisticLinkage{}, &RankIntervalLinkage{}} {
			st := m.Prepare(orig, masked, attrs)
			if st == nil {
				b.Fatalf("%s/%s: Prepare returned nil", m.Name(), name)
			}
			b.Run(m.Name()+"/ApplyUndo/"+name, func(b *testing.B) {
				b.ReportAllocs()
				k := 0
				for b.Loop() {
					m.ApplyUndo(st, cells[k:k+1])
					m.Undo(st)
					k = (k + 1) % len(cells)
				}
			})
			b.Run(m.Name()+"/Commit/"+name, func(b *testing.B) {
				b.ReportAllocs()
				k, back := 0, false
				edit := make([]dataset.CellChange, 1)
				for b.Loop() {
					// Commit a cell, then commit it back, so the state
					// keeps describing masked.
					edit[0] = cells[k]
					if back {
						edit[0] = cells[k].Inverted()
						k = (k + 1) % len(cells)
					}
					back = !back
					m.ApplyUndo(st, edit)
					m.Apply(st, nil)
				}
			})
			b.Run(m.Name()+"/CloneState/"+name, func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					st.CloneState()
				}
			})
		}
	}
}

// singleChanges draws k random one-cell edits of the protected cells of
// d, each an edit of d itself, so any one of them is a valid change list
// from d. d is left unedited.
func singleChanges(d *dataset.Dataset, attrs []int, k int, seed uint64) []dataset.CellChange {
	work := d.Clone()
	rng := rand.New(rand.NewPCG(seed, 22))
	changes := make([]dataset.CellChange, k)
	for i := range changes {
		changes[i] = datasettest.RandomChange(rng, work, attrs)
		work.Set(changes[i].Row, changes[i].Col, changes[i].Old)
	}
	return changes
}

// randomChanges draws width random edits of the protected cells of d,
// chained as a change list from d, without editing d.
func randomChanges(d *dataset.Dataset, attrs []int, width int, seed uint64) []dataset.CellChange {
	work := d.Clone()
	rng := rand.New(rand.NewPCG(seed, 21))
	changes := make([]dataset.CellChange, width)
	for i := range changes {
		changes[i] = datasettest.RandomChange(rng, work, attrs)
	}
	return changes
}

// BenchmarkRankIntervalLinkageDelta times one mutation offspring scored
// by patching the RSRL state, against BenchmarkRankIntervalLinkage, whose
// full Risk prepares that state afresh. Steady-state Apply calls reuse
// the state's scratch buffers and should report ~zero allocations.
func BenchmarkRankIntervalLinkageDelta(b *testing.B) {
	orig, masked, attrs := benchPair(b, 500)
	rl := &RankIntervalLinkage{}
	st := rl.Prepare(orig, masked, attrs)
	if st == nil {
		b.Fatal("Prepare returned nil")
	}
	// Pregenerate an edit/undo cycle so the loop measures Apply alone:
	// each even step applies a random change, each odd step reverts it, so
	// the state never drifts from the pregenerated chain.
	work := masked.Clone()
	rng := rand.New(rand.NewPCG(11, 11))
	cycle := make([]dataset.CellChange, 1024)
	for i := 0; i < len(cycle); i += 2 {
		ch := datasettest.RandomChange(rng, work, attrs)
		cycle[i] = ch
		cycle[i+1] = dataset.CellChange{Row: ch.Row, Col: ch.Col, Old: ch.New, New: ch.Old}
		work.Set(ch.Row, ch.Col, ch.Old)
	}
	changes := make([]dataset.CellChange, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		changes[0] = cycle[i%len(cycle)]
		rl.Apply(st, changes)
	}
	b.StopTimer()
	if b.N%2 == 1 { // leave the state consistent for -count > 1 runs
		changes[0] = cycle[b.N%len(cycle)]
		rl.Apply(st, changes)
	}
}

// BenchmarkRankIntervalLinkageDeltaSpeedup reports the measured full/delta
// ratio for a single-cell mutation directly as a custom metric — the
// acceptance bar for the incremental state is >= 5x.
func BenchmarkRankIntervalLinkageDeltaSpeedup(b *testing.B) {
	orig, masked, attrs := benchPair(b, 500)
	rl := &RankIntervalLinkage{}
	st := rl.Prepare(orig, masked, attrs)
	work := masked.Clone()
	rng := rand.New(rand.NewPCG(12, 12))
	changes := make([]dataset.CellChange, 1)
	var full, delta time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		changes[0] = datasettest.RandomChange(rng, work, attrs)
		start := time.Now()
		rl.Apply(st, changes)
		delta += time.Since(start)
		start = time.Now()
		rl.Risk(orig, work, attrs)
		full += time.Since(start)
	}
	if delta > 0 {
		b.ReportMetric(float64(full)/float64(delta), "full/delta_ratio")
	}
}

// BenchmarkRankIntervalLinkageDeltaClone measures the per-offspring branch
// cost: cloning the parent state, patching one cell and discarding it —
// the exact shape of the engine's survival tournament.
func BenchmarkRankIntervalLinkageDeltaClone(b *testing.B) {
	orig, masked, attrs := benchPair(b, 500)
	rl := &RankIntervalLinkage{}
	st := rl.Prepare(orig, masked, attrs).(*rsrlState)
	work := masked.Clone()
	rng := rand.New(rand.NewPCG(13, 13))
	changes := make([]dataset.CellChange, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		child := st.CloneState()
		changes[0] = datasettest.RandomChange(rng, work, attrs)
		rl.Apply(child, changes)
		// Undo the edit so the parent state keeps describing work.
		work.Set(changes[0].Row, changes[0].Col, changes[0].Old)
	}
}

func BenchmarkFullBattery(b *testing.B) {
	orig, masked, attrs := benchPair(b, 500)
	ms := Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range ms {
			m.Risk(orig, masked, attrs)
		}
	}
}
