// Command evoprot runs the evolutionary optimizer end to end: build or
// load an initial population of protections, evolve it — optionally as
// several concurrent islands exchanging elites, optionally checkpointing
// so long runs survive restarts — and report the best protection found.
// Ctrl-C (or -timeout) cancels gracefully: the run stops at the next
// generation boundary and still reports (and saves) the best so far.
//
// The flags fill one evoprot.JobSpec — the same run description the
// evoprotd job service accepts as JSON — so the CLI validates and
// resolves inputs exactly as the service does: exactly one of -dataset
// or -orig, and -attrs naming the protected attributes (required with
// -orig, overriding the built-in dataset's protected set otherwise).
//
// Islands may be heterogeneous (-per-island overrides single islands as
// JSON) and exchange elites over a ring or by broadcast (-topology); every
// run stays bit-reproducible from -seed.
//
//	evoprot -dataset adult -gens 400 -seed 42 -plots
//	evoprot -dataset flare -gens 2000 -islands 4 -migrate-every 50
//	evoprot -dataset flare -gens 2000 -islands 4 -topology broadcast -per-island '[{},{"selection":"rank"},{"mutation_rate":0.75},{"aggregator":"mean"}]'
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
		attrCSV   = fs.String("attrs", "", "comma-separated attributes to protect (required with -orig; defaults to the -dataset's protected set)")
		grid      = fs.String("grid", "", "masking grid (defaults to -dataset, else flare)")
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
		perIsland = fs.String("per-island", "", `per-island overrides as a JSON array, one object per island; omitted fields inherit the shared setup, set ones (selection, crowding, mutation_rate, leader_fraction, aggregator, objective, pareto_ref, generations, early_stop) replace it, e.g. '[{},{"selection":"rank","mutation_rate":0.7}]'`)
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

	spec := evoprot.JobSpec{
		Dataset:      *name,
		DatasetPath:  *origCSV,
		Rows:         *rows,
		Grid:         *grid,
		Aggregator:   *agg,
		Objective:    *objective,
		MLTarget:     *mlTarget,
		Generations:  *gens,
		Seed:         *seed,
		Workers:      *workers,
		EarlyStop:    *stall,
		Islands:      *nIslands,
		MigrateEvery: *migEvery,
		Migrants:     *migrants,
		Topology:     *topoName,
	}
	if *attrCSV != "" {
		spec.Attributes = strings.Split(*attrCSV, ",")
	}
	if *paretoRef != "" {
		spec.ParetoRef = new(evoprot.ParetoRef)
		if _, err := fmt.Sscanf(*paretoRef, "%f,%f", &spec.ParetoRef.IL, &spec.ParetoRef.DR); err != nil {
			return fmt.Errorf(`parsing -pareto-ref: want "il,dr", got %q`, *paretoRef)
		}
	}
	if *perIsland != "" {
		if err := json.Unmarshal([]byte(*perIsland), &spec.PerIsland); err != nil {
			return fmt.Errorf("parsing -per-island: %w", err)
		}
	}
	orig, err := spec.Materialize()
	if err != nil {
		return err
	}
	options, err := spec.Options()
	if err != nil {
		return err
	}
	if *ckpt != "" {
		options = append(options, evoprot.WithCheckpoint(*ckpt, *ckptEvery))
	}
	runner, err := evoprot.NewRunner(orig, spec.Attributes, options...)
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
	if front := lead.Front; front != nil {
		fmt.Fprintf(w, "pareto front: %d point(s), hypervolume %.2f\n", front.Size, front.Hypervolume)
	}
	if plots {
		printPlots(w, lead)
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
	if front := res.Front; front != nil {
		fmt.Fprintln(w, evoprot.RenderFront(res.Population, front.Pairs, 72, 18))
	}
}
