// Custom fitness: the paper's §4 claims the approach "can be easily
// adapted to other fitness functions ... by just providing a different
// fitness evaluation function". This example demonstrates exactly that at
// the library level, twice over:
//
//  1. a custom Aggregator — a risk-averse weighted maximum that penalizes
//     disclosure risk 2x harder than information loss, and
//  2. a custom disclosure-risk Measure — a worst-case uniqueness measure —
//     added to the standard battery.
//
// go run ./examples/customfitness
package main

import (
	"context"
	"fmt"
	"log"
	"runtime"

	"evoprot"
	"evoprot/internal/core"
	"evoprot/internal/dataset"
	"evoprot/internal/experiment"
	"evoprot/internal/risk"
	"evoprot/internal/score"
)

// riskAverse scores a protection by max(IL, 2·DR): a statistical agency
// that fears re-identification twice as much as analytic damage.
type riskAverse struct{}

func (riskAverse) Name() string { return "risk-averse" }

func (riskAverse) Combine(il, dr float64) float64 {
	if 2*dr > il {
		return 2 * dr
	}
	return il
}

// uniqueness is an extra DR measure: the percentage of masked records
// whose protected-attribute combination is unique in the masked file —
// unique records are the classic re-identification targets.
type uniqueness struct{}

func (uniqueness) Name() string { return "UNIQ" }

func (uniqueness) Risk(orig, masked *dataset.Dataset, attrs []int) float64 {
	n := masked.Rows()
	if n == 0 || len(attrs) == 0 {
		return 0
	}
	counts := make(map[string]int, n)
	key := make([]byte, 0, 3*len(attrs))
	for r := 0; r < n; r++ {
		key = key[:0]
		for _, c := range attrs {
			v := masked.At(r, c)
			key = append(key, byte(c), byte(v>>8), byte(v))
		}
		counts[string(key)]++
	}
	unique := 0
	for _, c := range counts {
		if c == 1 {
			unique++
		}
	}
	return 100 * float64(unique) / float64(n)
}

func main() {
	orig, err := evoprot.GenerateDataset("german", 300, 7)
	if err != nil {
		log.Fatal(err)
	}
	attrNames, _ := evoprot.ProtectedAttributes("german")
	attrs, _ := orig.Schema().Indices(attrNames...)

	// Build an evaluator with the custom aggregator AND the extended
	// disclosure-risk battery.
	eval, err := score.NewEvaluator(orig, attrs, score.Config{
		DR:         append(risk.Default(), uniqueness{}),
		Aggregator: riskAverse{},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Seed with the paper's German grid and evolve — nothing else changes.
	pop, err := experiment.BuildPopulation(orig, attrs, "german", 7)
	if err != nil {
		log.Fatal(err)
	}
	engine, err := core.NewEngine(eval, pop, core.Config{
		Generations: 150,
		Seed:        7,
		InitWorkers: runtime.GOMAXPROCS(0),
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := engine.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	best := res.Best
	fmt.Printf("custom fitness %q over %d individuals, %d generations\n",
		eval.Aggregator().Name(), len(res.Population), res.Generations)
	fmt.Printf("best: IL=%.2f DR=%.2f score=%.2f (origin %s)\n",
		best.Eval.IL, best.Eval.DR, best.Eval.Score, best.Origin)
	fmt.Printf("  disclosure-risk breakdown: ")
	for _, name := range []string{"ID", "DBRL", "PRL", "RSRL", "UNIQ"} {
		fmt.Printf("%s=%.1f ", name, best.Eval.DRParts[name])
	}
	fmt.Println()

	// Under a risk-averse fitness the winning protections have DR well
	// below IL — compare with a symmetric run.
	symmetric, err := evoprot.Run(context.Background(), orig, attrNames,
		evoprot.WithGrid("german"),
		evoprot.WithAggregator("max"),
		evoprot.WithGenerations(150),
		evoprot.WithSeed(7),
		evoprot.WithWorkers(runtime.GOMAXPROCS(0)),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsymmetric max(IL,DR) best:    IL=%.2f DR=%.2f\n",
		symmetric.Best.Eval.IL, symmetric.Best.Eval.DR)
	fmt.Printf("risk-averse max(IL,2DR) best: IL=%.2f DR=%.2f  <- pushed toward lower DR\n",
		best.Eval.IL, best.Eval.DR)
}
