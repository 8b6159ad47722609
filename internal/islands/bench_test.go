package islands

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"testing"

	"evoprot/internal/core"
	"evoprot/internal/datagen"
	"evoprot/internal/protection"
	"evoprot/internal/protection/protectiontest"
	"evoprot/internal/score"
)

// benchSetup builds a paper-scale flare population (the paper's 1389
// records when rows is 0) once per benchmark.
func benchSetup(b *testing.B, rows int) (*score.Evaluator, []*core.Individual) {
	b.Helper()
	d, err := datagen.ByName("flare", rows, 5)
	if err != nil {
		b.Fatal(err)
	}
	names, _ := datagen.ProtectedAttrs("flare")
	attrs, err := d.Schema().Indices(names...)
	if err != nil {
		b.Fatal(err)
	}
	eval, err := score.NewEvaluator(d, attrs, score.Config{})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(5, 5))
	var pop []*core.Individual
	for _, spec := range []string{
		"micro:k=3", "micro:k=6", "top:q=0.1", "bottom:q=0.1", "recode:depth=2",
		"rankswap:p=8", "rankswap:p=16", "pram:theta=0.8", "pram:theta=0.5", "micro:k=9",
	} {
		m := protectiontest.Must(spec)
		masked, err := m.Protect(d, attrs, rng)
		if err != nil {
			b.Fatal(err)
		}
		pop = append(pop, core.NewIndividual(masked, protection.String(m)))
	}
	return eval, pop
}

// BenchmarkIslands measures best-score search throughput against island
// count on paper-scale data: each sub-benchmark evolves N islands for a
// fixed per-island budget, so the work per iteration grows linearly with N
// while — on a multi-core machine — the wall clock should stay near flat,
// i.e. generations/second (reported) scales with the island count. The
// final best score is reported alongside to show search quality does not
// degrade.
func BenchmarkIslands(b *testing.B) {
	const gensPerIsland = 200
	for _, n := range []int{1, 2, 4, 8} {
		if n > 2*runtime.GOMAXPROCS(0) {
			// Oversubscribing far past the machine stops being informative.
			continue
		}
		b.Run(fmt.Sprintf("islands=%d", n), func(b *testing.B) {
			eval, pop := benchSetup(b, 0)
			var best float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := New(context.Background(), eval, pop, Config{
					Islands:      n,
					MigrateEvery: 50,
					Migrants:     2,
					Engine:       core.Config{Generations: gensPerIsland, Seed: 42},
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := r.Run(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				best = res.Best.Eval.Score
			}
			b.StopTimer()
			totalGens := float64(gensPerIsland*n) * float64(b.N)
			b.ReportMetric(totalGens/b.Elapsed().Seconds(), "gens/s")
			b.ReportMetric(best, "best_score")
		})
	}
}

// BenchmarkRunnerSnapshot times one checkpoint document of a paper-scale
// flare run on 2 islands after 40 generations, written into a reused
// buffer; a warm-up encode before the loop leaves allocs/op at its steady
// state even at -benchtime 1x.
func BenchmarkRunnerSnapshot(b *testing.B) {
	eval, pop := benchSetup(b, 0)
	r, err := New(context.Background(), eval, pop, Config{
		Islands:      2,
		MigrateEvery: 10,
		Migrants:     2,
		Engine:       core.Config{Generations: 40, Seed: 42},
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := r.Run(context.Background()); err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.Snapshot(&buf); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := r.Snapshot(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len()), "bytes/snapshot")
}
