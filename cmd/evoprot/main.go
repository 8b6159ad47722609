// Command evoprot runs the evolutionary optimizer end to end: build or
// load an initial population of protections, evolve it — optionally as
// several concurrent islands exchanging elites, optionally checkpointing
// so long runs survive restarts — and report the best protection found.
// Ctrl-C (or -timeout) cancels gracefully: the run stops at the next
// generation boundary and still reports (and saves) the best so far.
//
// Islands may be heterogeneous (-niches spreads a preset of search
// behaviors across them, -per-island overrides single islands as JSON)
// and the migration schedule may adapt to cross-island divergence
// (-adaptive); both stay bit-reproducible from -seed.
//
//	evoprot -dataset adult -gens 400 -seed 42 -plots
//	evoprot -dataset flare -gens 2000 -islands 4 -migrate-every 50
//	evoprot -dataset flare -gens 2000 -islands 4 -niches explore-exploit -adaptive
//	evoprot -orig mydata.csv -attrs A,B,C -grid flare -gens 200 -best best.csv
//	evoprot -dataset flare -gens 5000 -checkpoint run.ckpt -checkpoint-every 500
//	evoprot -dataset flare -gens 5000 -resume run.ckpt -timeout 2m
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"

	"evoprot"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "evoprot:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("evoprot", flag.ContinueOnError)
	var (
		name      = fs.String("dataset", "", "built-in dataset: housing|german|flare|adult")
		origCSV   = fs.String("orig", "", "original CSV (alternative to -dataset)")
		attrCSV   = fs.String("attrs", "", "attributes to protect when using -orig")
		grid      = fs.String("grid", "", "masking grid for -orig runs (defaults to -dataset, else flare)")
		rows      = fs.Int("rows", 0, "records when generating (0 = paper scale)")
		agg       = fs.String("agg", "max", "fitness aggregation: mean | max | euclidean | weighted:<w>")
		objective = fs.String("objective", "", "selection objective: scalar (default) | pareto (NSGA-II over raw IL/DR)")
		paretoRef = fs.String("pareto-ref", "", `hypervolume reference point for -objective pareto as "il,dr" (default 100,100)`)
		mlTarget  = fs.String("ml-target", "", "append the ML-utility measure: naive Bayes accuracy drop predicting this attribute")
		gens      = fs.Int("gens", 400, "generations per island")
		seed      = fs.Uint64("seed", 42, "run seed")
		workers   = fs.Int("workers", runtime.GOMAXPROCS(0), "initial-evaluation workers")
		stall     = fs.Int("stall", 0, "stop an island after N generations without improvement (0 = off)")
		nIslands  = fs.Int("islands", 0, "concurrently evolving islands (0 = one, or one per -per-island override)")
		migEvery  = fs.Int("migrate-every", 0, "generations between island migrations (0 = default 25)")
		migrants  = fs.Int("migrants", 0, "elite individuals exchanged per migration (0 = default 2)")
		topoName  = fs.String("topology", "ring", "migration topology: ring | broadcast")
		niches    = fs.String("niches", "", "heterogeneous-island preset: "+strings.Join(evoprot.NicheNames(), " | "))
		perIsland = fs.String("per-island", "", `per-island engine overrides as a JSON array, e.g. '[{},{"selection":"rank","mutation_rate":0.7}]'`)
		adaptive  = fs.Bool("adaptive", false, "adapt the migration schedule to cross-island divergence (default bounds)")
		timeout   = fs.Duration("timeout", 0, "overall run deadline, e.g. 90s or 5m (0 = none)")
		best      = fs.String("best", "", "write the best protection to this CSV")
		plots     = fs.Bool("plots", false, "print dispersion and evolution plots")
		ckpt      = fs.String("checkpoint", "", "write engine snapshots to this path")
		ckptEvery = fs.Int("checkpoint-every", 500, "snapshot interval in generations")
		resume    = fs.String("resume", "", "resume from a snapshot written by -checkpoint")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	orig, attrNames, gridName, err := resolveInput(*name, *origCSV, *attrCSV, *grid, *rows, *seed)
	if err != nil {
		return err
	}
	topo, err := evoprot.TopologyByName(*topoName)
	if err != nil {
		return err
	}
	options := []evoprot.Option{
		evoprot.WithGrid(gridName),
		evoprot.WithAggregator(*agg),
		evoprot.WithGenerations(*gens),
		evoprot.WithSeed(*seed),
		evoprot.WithWorkers(*workers),
		evoprot.WithEarlyStop(*stall),
		evoprot.WithMigration(*migEvery, *migrants),
		evoprot.WithTopology(topo),
	}
	if *objective != "" {
		options = append(options, evoprot.WithObjective(*objective))
	}
	if *mlTarget != "" {
		options = append(options, evoprot.WithMLUtility(*mlTarget))
	}
	if *paretoRef != "" {
		var il, dr float64
		if _, err := fmt.Sscanf(*paretoRef, "%f,%f", &il, &dr); err != nil {
			return fmt.Errorf(`parsing -pareto-ref: want "il,dr", got %q`, *paretoRef)
		}
		options = append(options, evoprot.WithParetoRef(il, dr))
	}
	if *nIslands != 0 {
		// Left unset, -per-island implies one island per override (and a
		// single island otherwise); forcing WithIslands(1) here would
		// defeat that. Non-zero values — including invalid negatives —
		// pass through to validation.
		options = append(options, evoprot.WithIslands(*nIslands))
	}
	if *niches != "" {
		options = append(options, evoprot.WithNiches(*niches))
	}
	if *perIsland != "" {
		var overrides []evoprot.IslandConfig
		if err := json.Unmarshal([]byte(*perIsland), &overrides); err != nil {
			return fmt.Errorf("parsing -per-island: %w", err)
		}
		options = append(options, evoprot.WithPerIsland(overrides...))
	}
	if *adaptive {
		options = append(options, evoprot.WithAdaptiveMigration(evoprot.AdaptiveMigration{}))
	}
	if *ckpt != "" {
		options = append(options, evoprot.WithCheckpoint(*ckpt, *ckptEvery))
	}
	runner, err := evoprot.NewRunner(orig, attrNames, options...)
	if err != nil {
		return err
	}
	if *resume != "" {
		f, err := os.Open(*resume)
		if err != nil {
			return err
		}
		err = runner.Resume(f)
		f.Close()
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "resumed %d island(s) at generation %d\n", runner.Islands(), runner.Generation())
	}

	res, runErr := runner.Run(ctx)
	ckptFailed := errors.Is(runErr, evoprot.ErrCheckpoint)
	var exitErr error
	switch {
	case runErr == nil:
	case errors.Is(runErr, context.Canceled):
		fmt.Fprintln(stdout, "interrupted; reporting best so far")
	case errors.Is(runErr, context.DeadlineExceeded):
		fmt.Fprintln(stdout, "timeout reached; reporting best so far")
	default:
		if res == nil {
			return runErr
		}
		// The run itself finished but something else failed (e.g. the
		// final checkpoint write); still report the result below.
	}
	if runErr != nil && (ckptFailed || (res != nil && ctx.Err() == nil)) {
		// Surface non-context failures after the report.
		exitErr = runErr
	}
	if res == nil {
		fmt.Fprintln(stdout, "cancelled before any evolution")
		return exitErr
	}
	if *ckpt != "" {
		if ckptFailed {
			fmt.Fprintf(stdout, "final checkpoint write FAILED; %s may be stale\n", *ckpt)
		} else {
			fmt.Fprintf(stdout, "final checkpoint written to %s\n", *ckpt)
		}
	}
	if *adaptive {
		every, mig := runner.EffectiveMigration()
		fmt.Fprintf(stdout, "adaptive migration settled at every %d generations, %d migrant(s)\n", every, mig)
	}
	report(stdout, res, *plots)
	if *best != "" {
		if err := evoprot.SaveCSV(res.Best.Data, *best); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "best protection written to %s\n", *best)
	}
	return exitErr
}

// report prints the run summary: the best island's trajectory plus, for
// multi-island runs, one line per island.
func report(w io.Writer, res *evoprot.RunResult, plots bool) {
	lead := res.Islands[res.BestIsland]
	if len(lead.History) == 0 {
		fmt.Fprintln(w, "no generations executed")
		return
	}
	first := lead.History[0]
	last := lead.History[len(lead.History)-1]
	fmt.Fprintf(w, "evolved %d individuals for %d generations (%d evaluations, stop: %s)\n",
		len(lead.Population), res.Generations, res.Evaluations, res.StopReason)
	if len(res.Islands) > 1 {
		fmt.Fprintf(w, "%d islands, %d accepted migrations; per-island best:\n", len(res.Islands), res.Migrations)
		for i, ir := range res.Islands {
			marker := " "
			if i == res.BestIsland {
				marker = "*"
			}
			fmt.Fprintf(w, " %s island %d: best %7.2f after %d generations (%d/%d offspring accepted, stop: %s)\n",
				marker, i, ir.Best.Eval.Score, ir.Generations, ir.AcceptedOffspring, ir.TotalOffspring, ir.StopReason)
		}
	} else {
		fmt.Fprintf(w, "  offspring accepted: %d/%d\n", lead.AcceptedOffspring, lead.TotalOffspring)
	}
	fmt.Fprintf(w, "  max score:  %7.2f -> %7.2f\n", first.Max, last.Max)
	fmt.Fprintf(w, "  mean score: %7.2f -> %7.2f\n", first.Mean, last.Mean)
	fmt.Fprintf(w, "  min score:  %7.2f -> %7.2f\n", first.Min, last.Min)
	fmt.Fprintf(w, "best protection: origin=%s IL=%.2f DR=%.2f score=%.2f\n",
		res.Best.Origin, res.Best.Eval.IL, res.Best.Eval.DR, res.Best.Eval.Score)
	if front := last.Front; front != nil {
		fmt.Fprintf(w, "pareto front: %d point(s), hypervolume %.2f\n", front.Size, front.Hypervolume)
	}
	if plots {
		printPlots(w, lead)
	}
}

// resolveInput loads or generates the original dataset and resolves the
// protected attributes and masking grid.
func resolveInput(name, origCSV, attrCSV, grid string, rows int, seed uint64) (*evoprot.Dataset, []string, string, error) {
	switch {
	case name != "":
		orig, err := evoprot.GenerateDataset(name, rows, seed)
		if err != nil {
			return nil, nil, "", err
		}
		attrNames, err := evoprot.ProtectedAttributes(name)
		if err != nil {
			return nil, nil, "", err
		}
		if grid == "" {
			grid = name
		}
		return orig, attrNames, grid, nil
	case origCSV != "":
		orig, err := evoprot.LoadCSV(origCSV)
		if err != nil {
			return nil, nil, "", err
		}
		if attrCSV == "" {
			return nil, nil, "", fmt.Errorf("-attrs is required with -orig")
		}
		if grid == "" {
			grid = "flare" // the 3-attribute grid with the smallest domains
		}
		return orig, strings.Split(attrCSV, ","), grid, nil
	default:
		return nil, nil, "", fmt.Errorf("one of -dataset or -orig is required")
	}
}

func printPlots(w io.Writer, res *evoprot.Result) {
	fmt.Fprintln(w)
	maxS := make([]float64, len(res.History))
	meanS := make([]float64, len(res.History))
	minS := make([]float64, len(res.History))
	for i, gs := range res.History {
		maxS[i], meanS[i], minS[i] = gs.Max, gs.Mean, gs.Min
	}
	fmt.Fprintln(w, evoprot.RenderEvolution(maxS, meanS, minS, 72, 18))
	fmt.Fprintln(w, evoprot.RenderDispersion(res.Population, 72, 18))
	if len(res.History) > 0 {
		if front := res.History[len(res.History)-1].Front; front != nil {
			fmt.Fprintln(w, evoprot.RenderFront(res.Population, front.Pairs, 72, 18))
		}
	}
}
