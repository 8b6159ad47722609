// Package experiment reproduces the paper's evaluation (§3): it rebuilds
// the four initial populations from the §3 masking grids, runs the
// evolutionary algorithm under the two fitness aggregations (Eq. 1 mean,
// Eq. 2 max) and the robustness variants (best 5%/10% withheld), and
// reports everything behind the paper's figures and in-text tables —
// initial/final (IL, DR) dispersions, max/mean/min score evolutions,
// improvement percentages, and generation timing.
package experiment

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sort"
	"time"

	"evoprot/internal/core"
	"evoprot/internal/datagen"
	"evoprot/internal/dataset"
	"evoprot/internal/pareto"
	"evoprot/internal/protection"
	"evoprot/internal/score"
)

// Spec identifies one experiment run. The zero value is not valid: Dataset
// is required.
type Spec struct {
	// Dataset is one of housing, german, flare, adult.
	Dataset string
	// Rows overrides the paper's record count (0 keeps it). Tests and
	// benchmarks shrink this; the algorithms are unchanged.
	Rows int
	// Aggregator is "mean" (Eq. 1, experiment 1) or "max" (Eq. 2,
	// experiments 2 and 3). Empty means "max".
	Aggregator string
	// RemoveBestFrac withholds this fraction of the best initial
	// individuals (experiment 3 uses 0.05 and 0.10). Zero keeps everyone.
	RemoveBestFrac float64
	// Generations is the evolution budget; 0 means 400.
	Generations int
	// Seed drives dataset synthesis, masking and evolution; a fixed seed
	// reproduces the run bit-for-bit.
	Seed uint64
	// InitWorkers parallelizes initial-population evaluation (0 =
	// sequential).
	InitWorkers int
	// Selection names the selection policy ("" = inverse-proportional).
	Selection string
	// NoImprovementWindow enables early stopping (0 = disabled).
	NoImprovementWindow int
}

func (s Spec) withDefaults() Spec {
	if s.Aggregator == "" {
		s.Aggregator = score.DefaultAggregatorName
	}
	if s.Generations == 0 {
		s.Generations = core.DefaultGenerations
	}
	return s
}

// Name returns a compact identifier like "flare/max-5%".
func (s Spec) Name() string {
	s = s.withDefaults()
	name := fmt.Sprintf("%s/%s", s.Dataset, s.Aggregator)
	if s.RemoveBestFrac > 0 {
		name += fmt.Sprintf("-%.0f%%", s.RemoveBestFrac*100)
	}
	return name
}

// Report is the full outcome of one experiment run.
type Report struct {
	// Spec is the (defaulted) specification that produced the report.
	Spec Spec
	// Composition is the §3 masking-grid composition used for the initial
	// population.
	Composition protection.Composition
	// Labels holds the origin label of each initial individual, aligned
	// with Initial.
	Labels []string
	// Initial and Final are the populations' (IL, DR) pairs — the data of
	// the dispersion figures.
	Initial []score.Pair
	Final   []score.Pair
	// Gen0 summarizes the initial population; Series has one entry per
	// generation — the data of the evolution figures.
	Gen0   core.GenStats
	Series []core.GenStats
	// InitMin/.../FinalMax are population score summaries.
	InitMin, InitMean, InitMax    float64
	FinalMin, FinalMean, FinalMax float64
	// ImpMin/Mean/Max are the improvement percentages the paper reports in
	// the §3.1/§3.2 text, e.g. ImpMax = 100·(InitMax−FinalMax)/InitMax.
	ImpMin, ImpMean, ImpMax float64
	// FrontInit/FrontFinal are the Pareto-front sizes of the initial and
	// final populations; HVInit/HVFinal the hypervolumes dominated within
	// [0,100]² (larger = closer to the ideal (0,0) protection). These
	// extend the paper's single-score summaries with the standard
	// multi-objective view.
	FrontInit, FrontFinal int
	HVInit, HVFinal       float64
	// AcceptedOffspring/TotalOffspring expose the elitist replacement's
	// acceptance rate.
	AcceptedOffspring, TotalOffspring int
	// AvgMutationGen and AvgCrossoverGen are mean wall-clock times per
	// generation by operator; EvalShare is the fraction of generation time
	// spent in fitness evaluation (the paper's §3.2 timing table).
	AvgMutationGen  time.Duration
	AvgCrossoverGen time.Duration
	EvalShare       float64
	// Evaluations counts fitness evaluations including the initial
	// population (and the pre-run evaluation when RemoveBestFrac > 0).
	Evaluations int
	// StopReason records why the evolution ended (budget or stagnation;
	// cancelled experiments return an error instead of a report).
	StopReason core.StopReason
	// Duration is the end-to-end wall time of the run.
	Duration time.Duration
}

// BuildPopulation reconstructs the §3 initial population for the dataset:
// every masking method of the paper's composition applied to orig over the
// protected attributes.
func BuildPopulation(orig *dataset.Dataset, attrs []int, datasetName string, seed uint64) ([]*core.Individual, error) {
	comp, err := protection.PaperComposition(datasetName)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(seed, 0xda3e39cb94b95bdb))
	methods := comp.Grid(len(attrs))
	pop := make([]*core.Individual, 0, len(methods))
	for _, m := range methods {
		masked, err := m.Protect(orig, attrs, rng)
		if err != nil {
			return nil, fmt.Errorf("experiment: %s: %w", protection.String(m), err)
		}
		pop = append(pop, core.NewIndividual(masked, protection.String(m)))
	}
	return pop, nil
}

// Run executes the experiment described by spec.
func Run(spec Spec) (*Report, error) { return RunContext(context.Background(), spec) }

// RunContext executes the experiment described by spec under ctx. The
// context is checked between generations; a cancelled or expired context
// aborts the experiment and returns the context's error (experiments are
// all-or-nothing: a partial report would mis-state the paper's figures).
func RunContext(ctx context.Context, spec Spec) (*Report, error) {
	spec = spec.withDefaults()
	start := time.Now()

	orig, err := datagen.ByName(spec.Dataset, spec.Rows, spec.Seed)
	if err != nil {
		return nil, err
	}
	names, err := datagen.ProtectedAttrs(spec.Dataset)
	if err != nil {
		return nil, err
	}
	attrs, err := orig.Schema().Indices(names...)
	if err != nil {
		return nil, err
	}
	agg, err := score.AggregatorByName(spec.Aggregator)
	if err != nil {
		return nil, err
	}
	eval, err := score.NewEvaluator(orig, attrs, score.Config{Aggregator: agg})
	if err != nil {
		return nil, err
	}
	comp, err := protection.PaperComposition(spec.Dataset)
	if err != nil {
		return nil, err
	}
	pop, err := BuildPopulation(orig, attrs, spec.Dataset, spec.Seed)
	if err != nil {
		return nil, err
	}

	extraEvals := 0
	if spec.RemoveBestFrac > 0 {
		pop, err = removeBest(ctx, eval, pop, spec.RemoveBestFrac, spec.InitWorkers)
		if err != nil {
			return nil, err
		}
		extraEvals = len(pop) // the pre-run evaluation pass
	}

	sel, err := core.SelectionByName(spec.Selection)
	if err != nil {
		return nil, err
	}
	engine, err := core.NewEngine(eval, pop, core.Config{
		Generations:         spec.Generations,
		Seed:                spec.Seed + 1,
		Selection:           sel,
		InitWorkers:         spec.InitWorkers,
		NoImprovementWindow: spec.NoImprovementWindow,
	})
	if err != nil {
		return nil, err
	}

	rep := &Report{
		Spec:        spec,
		Composition: comp,
		Gen0:        engine.Stats(),
	}
	initial := engine.Population()
	rep.Labels = make([]string, len(initial))
	rep.Initial = make([]score.Pair, len(initial))
	for i, ind := range initial {
		rep.Labels[i] = ind.Origin
		rep.Initial[i] = ind.Eval.Pair()
	}
	rep.InitMin, rep.InitMean, rep.InitMax = rep.Gen0.Min, rep.Gen0.Mean, rep.Gen0.Max

	res, err := engine.Run(ctx)
	if err != nil {
		return nil, err
	}
	rep.StopReason = res.StopReason
	rep.Series = res.History
	rep.Final = make([]score.Pair, len(res.Population))
	for i, ind := range res.Population {
		rep.Final[i] = ind.Eval.Pair()
	}
	last := res.History[len(res.History)-1]
	rep.FinalMin, rep.FinalMean, rep.FinalMax = last.Min, last.Mean, last.Max
	rep.ImpMin = improvement(rep.InitMin, rep.FinalMin)
	rep.ImpMean = improvement(rep.InitMean, rep.FinalMean)
	rep.ImpMax = improvement(rep.InitMax, rep.FinalMax)
	rep.Evaluations = res.Evaluations + extraEvals
	rep.AcceptedOffspring = res.AcceptedOffspring
	rep.TotalOffspring = res.TotalOffspring
	ref := score.Pair{IL: 100, DR: 100}
	rep.FrontInit = len(pareto.Front(rep.Initial))
	rep.FrontFinal = len(pareto.Front(rep.Final))
	if rep.HVInit, err = pareto.Hypervolume(rep.Initial, ref); err != nil {
		return nil, err
	}
	if rep.HVFinal, err = pareto.Hypervolume(rep.Final, ref); err != nil {
		return nil, err
	}

	mutTime, mutN := time.Duration(0), 0
	crossTime, crossN := time.Duration(0), 0
	evalTime, totalTime := time.Duration(0), time.Duration(0)
	for _, gs := range res.History {
		if gs.Op == "mutation" {
			mutTime += gs.TotalTime
			mutN++
		} else {
			crossTime += gs.TotalTime
			crossN++
		}
		evalTime += gs.EvalTime
		totalTime += gs.TotalTime
	}
	if mutN > 0 {
		rep.AvgMutationGen = mutTime / time.Duration(mutN)
	}
	if crossN > 0 {
		rep.AvgCrossoverGen = crossTime / time.Duration(crossN)
	}
	if totalTime > 0 {
		rep.EvalShare = float64(evalTime) / float64(totalTime)
	}
	rep.Duration = time.Since(start)
	return rep, nil
}

// removeBest evaluates the population and drops the best frac of it —
// experiment 3's handicap.
func removeBest(ctx context.Context, eval *score.Evaluator, pop []*core.Individual, frac float64, workers int) ([]*core.Individual, error) {
	if frac < 0 || frac >= 1 {
		return nil, fmt.Errorf("experiment: RemoveBestFrac %v outside [0,1)", frac)
	}
	data := make([]*dataset.Dataset, len(pop))
	for i, ind := range pop {
		data[i] = ind.Data
	}
	evs, err := eval.EvaluateAll(ctx, data, workers)
	if err != nil {
		return nil, err
	}
	idx := make([]int, len(pop))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return evs[idx[a]].Score < evs[idx[b]].Score })
	drop := int(frac * float64(len(pop)))
	if drop >= len(pop)-1 {
		return nil, fmt.Errorf("experiment: removing %d of %d individuals leaves no population", drop, len(pop))
	}
	kept := make([]*core.Individual, 0, len(pop)-drop)
	for _, i := range idx[drop:] {
		kept = append(kept, pop[i])
	}
	return kept, nil
}

// improvement returns the percentage decrease from init to final, the
// quantity the paper reports ("a decrement from 41.95 to 36.6, 12.75% of
// improvement").
func improvement(init, final float64) float64 {
	if init == 0 {
		return 0
	}
	return 100 * (init - final) / init
}

// Balance returns the mean |IL−DR| of a population's pairs — the
// equilibrium statistic behind the paper's §3.2 observation that Eq. 2
// yields more balanced protections than Eq. 1.
func Balance(pairs []score.Pair) float64 {
	if len(pairs) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range pairs {
		d := p.IL - p.DR
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum / float64(len(pairs))
}
