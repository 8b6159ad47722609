package protection

import (
	"math/rand/v2"
	"testing"

	"evoprot/internal/datagen"
	"evoprot/internal/datagen/datagentest"
	"evoprot/internal/dataset"
)

func benchData(b *testing.B, rows int) (*dataset.Dataset, []int) {
	b.Helper()
	d := datagentest.MustByName("flare", rows, 5)
	names, _ := datagen.ProtectedAttrs("flare")
	attrs, err := d.Schema().Indices(names...)
	if err != nil {
		b.Fatal(err)
	}
	return d, attrs
}

func benchMethod(b *testing.B, spec string) {
	b.Helper()
	d, attrs := benchData(b, 1000)
	m := mustParse(b, spec)
	rng := rand.New(rand.NewPCG(5, 5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Protect(d, attrs, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicroaggregation(b *testing.B) { benchMethod(b, "micro:k=5,config=0") }
func BenchmarkTopCoding(b *testing.B)        { benchMethod(b, "top:q=0.15") }
func BenchmarkBottomCoding(b *testing.B)     { benchMethod(b, "bottom:q=0.15") }
func BenchmarkGlobalRecoding(b *testing.B)   { benchMethod(b, "recode:depth=2") }
func BenchmarkRankSwapping(b *testing.B)     { benchMethod(b, "rankswap:p=10") }
func BenchmarkPRAM(b *testing.B)             { benchMethod(b, "pram:theta=0.8") }

// BenchmarkPaperGrid measures the cost of building one full initial
// population (the flare composition: 104 maskings).
func BenchmarkPaperGrid(b *testing.B) {
	d, attrs := benchData(b, 1000)
	comp, err := PaperComposition("flare")
	if err != nil {
		b.Fatal(err)
	}
	methods := comp.Grid(len(attrs))
	rng := rand.New(rand.NewPCG(7, 7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range methods {
			if _, err := m.Protect(d, attrs, rng); err != nil {
				b.Fatal(err)
			}
		}
	}
}
