// Islands: heterogeneous multi-population evolution through the Runner
// API.
//
// Four islands evolve the same initial population concurrently, each from
// its own derived seed — but not identically: per-island overrides spread
// mutation rates, leader fractions and selection pressures across them,
// so exploitative and explorative searches run side by side. Every 25
// generations each island broadcasts its two best protections to all the
// others. A progress callback streams per-island statistics, Ctrl-C
// cancels gracefully (best-so-far still reported), and the whole
// heterogeneous run is reproducible: the one top-level seed fixes every
// island's trajectory and every migration.
//
//	go run ./examples/islands
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sync"

	"evoprot"
)

func main() {
	orig, err := evoprot.GenerateDataset("flare", 0, 42) // paper scale
	if err != nil {
		log.Fatal(err)
	}
	attrs, err := evoprot.ProtectedAttributes("flare")
	if err != nil {
		log.Fatal(err)
	}

	// Ctrl-C cancels between generations; the partial result survives.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// Progress: one line per island every 50 generations. The callback is
	// serialized by the runner, but guard shared state anyway — island
	// order interleaves.
	var mu sync.Mutex
	lastBest := map[int]float64{}
	progress := func(ev evoprot.Event) {
		mu.Lock()
		defer mu.Unlock()
		if ev.Done {
			fmt.Printf("island %d done after %d generations (stop: %s)\n", ev.Island, ev.Stats.Gen, ev.Stop)
			return
		}
		if ev.Stats.Gen%50 == 0 || ev.Stats.Min != lastBest[ev.Island] {
			if ev.Stats.Gen%50 == 0 {
				fmt.Printf("island %d gen %4d: best %6.2f mean %6.2f\n",
					ev.Island, ev.Stats.Gen, ev.Stats.Min, ev.Stats.Mean)
			}
			lastBest[ev.Island] = ev.Stats.Min
		}
	}

	res, err := evoprot.Run(ctx, orig, attrs,
		evoprot.WithGrid("flare"),
		evoprot.WithGenerations(400),
		evoprot.WithSeed(42),
		evoprot.WithWorkers(8),
		evoprot.WithIslands(4),
		// Island 0 keeps the shared setup; islands 1..3 grow more explorative.
		evoprot.WithPerIsland(
			evoprot.IslandConfig{},
			evoprot.IslandConfig{MutationRate: 0.4, LeaderFraction: 0.1},
			evoprot.IslandConfig{MutationRate: 0.6, LeaderFraction: 0.2, Selection: "rank"},
			evoprot.IslandConfig{MutationRate: 0.75, LeaderFraction: 0.25, Selection: "uniform"},
		),
		evoprot.WithMigration(25, 2),
		evoprot.WithTopology(evoprot.Broadcast),
		evoprot.WithProgress(progress),
	)
	if err != nil {
		// A cancelled context still yields the best-so-far result.
		if res == nil {
			log.Fatal(err)
		}
		fmt.Printf("run ended early: %v\n", err)
	}

	fmt.Printf("\n%d islands, %d migrations accepted, stop: %s\n",
		len(res.Islands), res.Migrations, res.StopReason)
	for i, ir := range res.Islands {
		marker := "  "
		if i == res.BestIsland {
			marker = "->"
		}
		fmt.Printf("%s island %d: best %6.2f after %d generations\n",
			marker, i, ir.Best.Eval.Score, ir.Generations)
	}
	best := res.Best
	fmt.Printf("\nbest protection (island %d, from %s): IL=%.2f DR=%.2f score=%.2f\n",
		res.BestIsland, best.Origin, best.Eval.IL, best.Eval.DR, best.Eval.Score)
}
