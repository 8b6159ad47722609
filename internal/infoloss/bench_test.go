package infoloss

import (
	"math/rand/v2"
	"slices"
	"testing"

	"evoprot/internal/datagen"
	"evoprot/internal/datagen/datagentest"
	"evoprot/internal/dataset"
	"evoprot/internal/dataset/datasettest"
	"evoprot/internal/protection/protectiontest"
)

func benchPair(b *testing.B, rows int) (*dataset.Dataset, *dataset.Dataset, []int) {
	b.Helper()
	return benchPairOf(b, "adult", rows)
}

// benchPairOf generates rows records of the named dataset and masks its
// protected attributes by rank swapping.
func benchPairOf(b *testing.B, name string, rows int) (*dataset.Dataset, *dataset.Dataset, []int) {
	b.Helper()
	d := datagentest.MustByName(name, rows, 5)
	names, _ := datagen.ProtectedAttrs(name)
	attrs, err := d.Schema().Indices(names...)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(5, 5))
	masked, err := protectiontest.Must("rankswap:p=10").Protect(d, attrs, rng)
	if err != nil {
		b.Fatal(err)
	}
	return d, masked, attrs
}

func benchMeasure(b *testing.B, m Measure, rows int) {
	b.Helper()
	orig, masked, attrs := benchPair(b, rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Loss(orig, masked, attrs)
	}
}

func BenchmarkCTBILDim1(b *testing.B) { benchMeasure(b, &CTBIL{MaxDim: 1}, 1000) }
func BenchmarkCTBILDim2(b *testing.B) { benchMeasure(b, &CTBIL{MaxDim: 2}, 1000) }
func BenchmarkCTBILDim3(b *testing.B) { benchMeasure(b, &CTBIL{MaxDim: 3}, 1000) }
func BenchmarkDBIL(b *testing.B)      { benchMeasure(b, &DBIL{}, 1000) }
func BenchmarkEBIL(b *testing.B)      { benchMeasure(b, &EBIL{}, 1000) }

func BenchmarkFullBattery(b *testing.B) {
	orig, masked, attrs := benchPair(b, 1000)
	ms := Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range ms {
			m.Loss(orig, masked, attrs)
		}
	}
}

// BenchmarkMLUtilityDelta times the ML-utility state on a 1000-record
// german file, predicting HOUSING (unprotected, the benchmark's Pareto
// workload) and SAVINGS (protected, so some edits move rows between
// classes): a full Loss for scale, single-cell ApplyUndo+Undo, Commit
// (ApplyUndo then the empty Apply that keeps a winner's pending edit)
// and CloneState.
func BenchmarkMLUtilityDelta(b *testing.B) {
	orig, masked, attrs := benchPairOf(b, "german", 1000)
	rng := rand.New(rand.NewPCG(3, 22))
	cells := make([]dataset.CellChange, 64) // each a one-cell edit of masked
	work := masked.Clone()
	for i := range cells {
		cells[i] = datasettest.RandomChange(rng, work, attrs)
		work.Set(cells[i].Row, cells[i].Col, cells[i].Old)
	}
	for _, name := range []string{"HOUSING", "SAVINGS"} {
		target, err := orig.Schema().Indices(name)
		if err != nil {
			b.Fatal(err)
		}
		m := &MLUtility{Target: target[0]}
		edits := cells
		if name == "SAVINGS" { // re-point a quarter of the edits at the target
			edits = slices.Clone(cells)
			for i := 0; i < len(edits); i += 4 {
				ch := &edits[i]
				ch.Col, ch.Old = target[0], masked.At(ch.Row, target[0])
				ch.New = (ch.Old + 1) % orig.Schema().Attr(target[0]).Cardinality()
			}
		}
		st := m.Prepare(orig, masked, attrs)
		b.Run(name+"/Loss", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				m.Loss(orig, masked, attrs)
			}
		})
		b.Run(name+"/ApplyUndo", func(b *testing.B) {
			b.ReportAllocs()
			k := 0
			for b.Loop() {
				m.ApplyUndo(st, edits[k:k+1])
				m.Undo(st)
				k = (k + 1) % len(edits)
			}
		})
		b.Run(name+"/Commit", func(b *testing.B) {
			b.ReportAllocs()
			k, back := 0, false
			edit := make([]dataset.CellChange, 1)
			for b.Loop() {
				// Commit a cell, then commit it back, so the state
				// keeps describing masked.
				edit[0] = edits[k]
				if back {
					edit[0] = edits[k].Inverted()
					k = (k + 1) % len(edits)
				}
				back = !back
				m.ApplyUndo(st, edit)
				m.Apply(st, nil)
			}
		})
		b.Run(name+"/CloneState", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				st.CloneState()
			}
		})
	}
}
