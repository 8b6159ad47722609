// Package score turns the information-loss and disclosure-risk batteries
// into the single fitness value that guides the evolutionary algorithm
// (paper §2.3): IL is the average of the information-loss measures, DR the
// average of the disclosure-risk measures, and an Aggregator combines the
// two. Lower scores are better throughout; 0 would be a masking that loses
// nothing and discloses nothing.
package score

import (
	"context"
	"fmt"
	"sync"

	"evoprot/internal/dataset"
	"evoprot/internal/infoloss"
	"evoprot/internal/measure"
	"evoprot/internal/risk"
)

// Aggregator folds the (IL, DR) pair into one score. The paper studies two:
// Mean (Eq. 1) and Max (Eq. 2). Implementations must be pure.
type Aggregator interface {
	// Name identifies the aggregator, e.g. "mean".
	Name() string
	// Combine returns the score for the given information loss and
	// disclosure risk, both in [0,100].
	Combine(il, dr float64) float64
}

// Mean is the paper's Eq. 1: Score = (IL + DR) / 2. It allows perfect
// trade-offs — an individual with IL=0, DR=40 scores like one with 20/20 —
// which §3.1 shows produces unbalanced protections.
type Mean struct{}

// Name implements Aggregator.
func (Mean) Name() string { return "mean" }

// Combine implements Aggregator.
func (Mean) Combine(il, dr float64) float64 { return (il + dr) / 2 }

// Max is the paper's Eq. 2: Score = max(IL, DR). One bad component alone
// makes the score bad, so optimization is pushed toward balanced (IL, DR)
// pairs — the behaviour §3.2 demonstrates.
type Max struct{}

// Name implements Aggregator.
func (Max) Name() string { return "max" }

// Combine implements Aggregator.
func (Max) Combine(il, dr float64) float64 {
	if il > dr {
		return il
	}
	return dr
}

// DefaultAggregatorName names the aggregation selected when a caller does
// not choose one: "max" (Eq. 2), the aggregation the paper concludes works
// better for categorical data. Facade and core layers resolve their empty
// aggregator values against this single constant.
const DefaultAggregatorName = "max"

// Pair is an (IL, DR) point, e.g. one individual in a dispersion plot.
type Pair struct {
	IL float64
	DR float64
}

// Evaluation is the full fitness breakdown of one protected dataset.
type Evaluation struct {
	// IL is the average information loss in [0,100].
	IL float64
	// DR is the average disclosure risk in [0,100].
	DR float64
	// Score is Aggregator.Combine(IL, DR); lower is better.
	Score float64
	// ILParts and DRParts hold each underlying measure's value by name.
	ILParts map[string]float64
	DRParts map[string]float64
}

// Pair returns the evaluation's (IL, DR) point.
func (e Evaluation) Pair() Pair { return Pair{IL: e.IL, DR: e.DR} }

// Config parameterizes an Evaluator. Zero values select the paper's
// defaults.
type Config struct {
	// IL is the information-loss battery; nil selects infoloss.Default().
	IL []infoloss.Measure
	// DR is the disclosure-risk battery; nil selects risk.Default().
	DR []risk.Measure
	// Aggregator combines IL and DR; nil selects Max (Eq. 2), the
	// aggregation the paper concludes works better for categorical data.
	Aggregator Aggregator
}

// Evaluator computes evaluations of masked datasets against one fixed
// original file. It is safe for concurrent use.
type Evaluator struct {
	orig  *dataset.Dataset
	attrs []int
	agg   Aggregator
	// slots is the battery resolved once: the IL measures, then the DR
	// measures, which is the order every route sums them in.
	slots []slot
	numIL int
}

// slot is one measure of the resolved battery.
type slot struct {
	name string
	// full is the measure's full recompute, Loss or Risk.
	full func(orig, masked *dataset.Dataset, attrs []int) float64
	// rev is the measure's delta-state contract; nil when it has none,
	// and the slot is then recomputed in full on every route.
	rev measure.Reversible
}

// NewEvaluator builds an evaluator for the given original dataset and
// protected attribute indices.
func NewEvaluator(orig *dataset.Dataset, attrs []int, cfg Config) (*Evaluator, error) {
	if orig == nil {
		return nil, fmt.Errorf("score: nil original dataset")
	}
	if len(attrs) == 0 {
		return nil, fmt.Errorf("score: no protected attributes")
	}
	// A repeated index would give the measures' delta states two copies
	// of one column to keep in step, and they track only one.
	seen := make([]bool, orig.Cols())
	for _, a := range attrs {
		if a < 0 || a >= orig.Cols() {
			return nil, fmt.Errorf("score: attribute index %d out of range [0,%d)", a, orig.Cols())
		}
		if seen[a] {
			return nil, fmt.Errorf("score: protected attribute %q listed twice", orig.Schema().Attr(a).Name())
		}
		seen[a] = true
	}
	if cfg.IL == nil {
		cfg.IL = infoloss.Default()
	}
	if cfg.DR == nil {
		cfg.DR = risk.Default()
	}
	if len(cfg.IL) == 0 || len(cfg.DR) == 0 {
		return nil, fmt.Errorf("score: empty measure battery")
	}
	for _, m := range cfg.DR {
		if _, ok := m.(*risk.ProbabilisticLinkage); ok && len(attrs) > risk.MaxPRLAttrs {
			return nil, fmt.Errorf("score: probabilistic record linkage supports at most %d protected attributes, got %d",
				risk.MaxPRLAttrs, len(attrs))
		}
	}
	if cfg.Aggregator == nil {
		cfg.Aggregator = Max{}
	}
	own := make([]int, len(attrs))
	copy(own, attrs)
	slots := make([]slot, 0, len(cfg.IL)+len(cfg.DR))
	for _, m := range cfg.IL {
		rev, _ := m.(measure.Reversible)
		slots = append(slots, slot{name: m.Name(), full: m.Loss, rev: rev})
	}
	for _, m := range cfg.DR {
		rev, _ := m.(measure.Reversible)
		slots = append(slots, slot{name: m.Name(), full: m.Risk, rev: rev})
	}
	return &Evaluator{orig: orig, attrs: own, agg: cfg.Aggregator, slots: slots, numIL: len(cfg.IL)}, nil
}

// Orig returns the original dataset the evaluator compares against.
func (e *Evaluator) Orig() *dataset.Dataset { return e.orig }

// Attrs returns a copy of the protected attribute indices.
func (e *Evaluator) Attrs() []int {
	out := make([]int, len(e.attrs))
	copy(out, e.attrs)
	return out
}

// Aggregator returns the configured aggregator.
func (e *Evaluator) Aggregator() Aggregator { return e.agg }

// WithAggregator returns a copy of the evaluator using a different
// aggregator; measure batteries are shared.
func (e *Evaluator) WithAggregator(agg Aggregator) *Evaluator {
	out := *e
	out.agg = agg
	return &out
}

// Evaluate computes the full evaluation of a masked dataset. The masked
// dataset must have the same shape as the original.
func (e *Evaluator) Evaluate(masked *dataset.Dataset) (Evaluation, error) {
	if err := e.checkShape(masked); err != nil {
		return Evaluation{}, err
	}
	return e.evaluation(func(i int) float64 { return e.slots[i].full(e.orig, masked, e.attrs) }), nil
}

// checkShape reports a nil masked dataset or one shaped unlike the
// original.
func (e *Evaluator) checkShape(masked *dataset.Dataset) error {
	if masked == nil {
		return fmt.Errorf("score: nil masked dataset")
	}
	if masked.Rows() != e.orig.Rows() || masked.Cols() != e.orig.Cols() {
		return fmt.Errorf("score: masked dataset is %dx%d, original is %dx%d",
			masked.Rows(), masked.Cols(), e.orig.Rows(), e.orig.Cols())
	}
	return nil
}

// evaluation walks the battery once, reading slot i's value from value,
// and assembles the paper's fitness (§2.3): IL and DR are the averages of
// their measures, and the aggregator combines the two. Every scoring
// route goes through it, so all of them sum in the same order and agree
// bit for bit.
func (e *Evaluator) evaluation(value func(i int) float64) Evaluation {
	ev := Evaluation{
		ILParts: make(map[string]float64, e.numIL),
		DRParts: make(map[string]float64, len(e.slots)-e.numIL),
	}
	for i, s := range e.slots {
		v := value(i)
		if i < e.numIL {
			ev.ILParts[s.name] = v
			ev.IL += v
		} else {
			ev.DRParts[s.name] = v
			ev.DR += v
		}
	}
	ev.IL /= float64(e.numIL)
	ev.DR /= float64(len(e.slots) - e.numIL)
	ev.Score = e.agg.Combine(ev.IL, ev.DR)
	return ev
}

// EvaluateAll evaluates many masked datasets with the given worker-pool
// width (<=1 means sequential; never more workers than datasets),
// preserving order. The context is checked
// between datasets, so a whole-population evaluation — the startup cost of
// an engine — honours cancellation.
func (e *Evaluator) EvaluateAll(ctx context.Context, masked []*dataset.Dataset, workers int) ([]Evaluation, error) {
	evs, _, err := e.evaluateAll(ctx, masked, workers, false)
	return evs, err
}

// EvaluateAllPrepared is EvaluateAll for a population entering the
// engine: the worker that takes a dataset builds its delta state (see
// Prepare) and reads each stateful measure's value from that state with
// an empty Apply, which equals the full Loss or Risk bit for bit; only
// measures without a state are recomputed in full. The returned states
// are aligned with the evaluations.
func (e *Evaluator) EvaluateAllPrepared(ctx context.Context, masked []*dataset.Dataset, workers int) ([]Evaluation, []*DeltaState, error) {
	return e.evaluateAll(ctx, masked, workers, true)
}

// evaluateAll runs the shared evaluation pool behind EvaluateAll and
// EvaluateAllPrepared.
func (e *Evaluator) evaluateAll(ctx context.Context, masked []*dataset.Dataset, workers int, prepare bool) ([]Evaluation, []*DeltaState, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]Evaluation, len(masked))
	var states []*DeltaState
	if prepare {
		states = make([]*DeltaState, len(masked))
	}
	one := func(idx int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !prepare {
			ev, err := e.Evaluate(masked[idx])
			if err != nil {
				return fmt.Errorf("score: evaluating dataset %d: %w", idx, err)
			}
			out[idx] = ev
			return nil
		}
		st, err := e.Prepare(masked[idx])
		if err != nil {
			return fmt.Errorf("score: preparing dataset %d: %w", idx, err)
		}
		out[idx] = e.evaluation(func(i int) float64 {
			if s := st.states[i]; s != nil {
				return e.slots[i].rev.Apply(s, nil)
			}
			return e.slots[i].full(e.orig, masked[idx], e.attrs)
		})
		states[idx] = st
		return nil
	}
	// The width comes from callers' specs; cap it at one worker per
	// dataset so an outsized value cannot spawn idle goroutines.
	workers = min(workers, len(masked))
	if workers <= 1 {
		for i := range masked {
			if err := one(i); err != nil {
				return nil, nil, err
			}
		}
		return out, states, nil
	}
	// Pre-fill the job queue so a worker that stops on error can never
	// deadlock the producer.
	jobs := make(chan int, len(masked))
	for i := range masked {
		jobs <- i
	}
	close(jobs)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				if err := one(idx); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		return nil, nil, err
	default:
	}
	return out, states, nil
}
