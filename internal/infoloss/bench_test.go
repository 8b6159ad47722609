package infoloss

import (
	"math/rand/v2"
	"testing"

	"evoprot/internal/datagen"
	"evoprot/internal/dataset"
	"evoprot/internal/protection"
)

func benchPair(b *testing.B, rows int) (*dataset.Dataset, *dataset.Dataset, []int) {
	b.Helper()
	d := datagen.MustByName("adult", rows, 5)
	names, _ := datagen.ProtectedAttrs("adult")
	attrs, err := d.Schema().Indices(names...)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(5, 5))
	masked, err := protection.Must("rankswap:p=10").Protect(d, attrs, rng)
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
