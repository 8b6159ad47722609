// Package core implements the paper's contribution: an evolutionary
// algorithm whose individuals are entire protected versions of one
// categorical microdata file (paper §2, Algorithm 1).
//
// Each generation flips a fair coin between the two genetic operators
// (§2.2): mutation replaces one random gene — a single categorical value —
// of one score-selected individual; crossover performs 2-point crossing at
// the category level between a leader-group individual and a
// score-selected one. Replacement is elitist: a mutated child competes
// with its parent; crossover children compete with their respective
// parents under the paper's deterministic-crowding scheme (§2.4). The
// engine records the max/mean/min score trajectory and the evaluation
// timings the paper reports.
//
// An offspring is its parent's file plus a change list until it survives:
// the operators read the parents' files and report exactly which cells
// they change, without building a file. score.Evaluator.EvaluateEdit
// applies that change list to the parent's cached per-measure state and
// reads the value instead of rescanning the whole file — bit-identical
// results at a fraction of the cost (see batcheval.go and
// internal/score). Only offspring that survive replacement receive a file
// of their own, the parent's with the changes applied, and a delta state,
// keeping the edit scoring left pending; every other state is rolled
// back, so a losing offspring costs memory proportional to its edit.
package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"time"

	"evoprot/internal/dataset"
	"evoprot/internal/pareto"
	"evoprot/internal/score"
)

// Individual is one member of the population: a protected dataset plus its
// cached fitness evaluation.
type Individual struct {
	// Data is the protected file; the chromosome. Genes are the category
	// values of the protected attributes. Files are never modified once
	// built, so individuals and engines share them freely. An offspring
	// has none until it survives replacement (unless scoring it already
	// built one); every population member, emigrant, snapshot and result
	// has one.
	Data *dataset.Dataset
	// Eval is the cached fitness breakdown of Data.
	Eval score.Evaluation
	// Origin describes where the individual came from: a masking-method
	// label for seeds, or "mutation"/"crossover" for offspring.
	Origin string

	// state is the incremental-evaluation state describing Data. Engine
	// construction prepares it for the initial population, and a
	// surviving offspring inherits its parent's, which already holds the
	// offspring's edit from scoring it. It is nil on individuals loaded
	// from a snapshot and on wide-edit offspring; such an individual
	// rebuilds it the first time it parents a narrow edit.
	state *score.DeltaState

	// rank and crowd are the NSGA-II non-domination rank (0 = first
	// front) and crowding distance of Pareto mode. They are derived data:
	// re-derived from the (IL, DR) pairs by every ranking (see nsga2.go)
	// and never serialized — a resumed engine re-derives them
	// deterministically. Unused (zero) in scalar mode.
	rank  int
	crowd float64
}

// NewIndividual wraps a protected dataset as an unevaluated individual.
func NewIndividual(data *dataset.Dataset, origin string) *Individual {
	return &Individual{Data: data, Origin: origin}
}

// SelectionPolicy decides how individuals are drawn from the population
// for reproduction. Scores are lower-is-better.
type SelectionPolicy int

const (
	// SelectInverseProportional draws with probability proportional to
	// 1/Score — the paper's *described* semantics ("better individuals
	// have a greater probability of being selected"). Default.
	SelectInverseProportional SelectionPolicy = iota
	// SelectRawProportional draws with probability proportional to Score,
	// the literal reading of the paper's Eq. 3 (which favours bad
	// individuals; kept for the ablation study, BenchmarkAblationSelection).
	SelectRawProportional
	// SelectRank draws with probability proportional to N-rank, a
	// scale-free alternative.
	SelectRank
	// SelectUniform draws uniformly.
	SelectUniform
)

// String returns the policy name.
func (p SelectionPolicy) String() string {
	switch p {
	case SelectInverseProportional:
		return "inverse-proportional"
	case SelectRawProportional:
		return "raw-proportional"
	case SelectRank:
		return "rank"
	case SelectUniform:
		return "uniform"
	default:
		return fmt.Sprintf("SelectionPolicy(%d)", int(p))
	}
}

// SelectionByName resolves a policy name.
func SelectionByName(name string) (SelectionPolicy, error) {
	switch name {
	case "inverse-proportional", "inverse", "":
		return SelectInverseProportional, nil
	case "raw-proportional", "raw":
		return SelectRawProportional, nil
	case "rank":
		return SelectRank, nil
	case "uniform":
		return SelectUniform, nil
	default:
		return 0, fmt.Errorf("core: unknown selection policy %q", name)
	}
}

// CrowdingPolicy decides how crossover children are paired against parents
// for the survival tournament.
type CrowdingPolicy int

const (
	// CrowdParentIndex pairs child k with parent k — the paper's "each
	// newcomer Xjk maintains a proximity relation with its parent Xik".
	// Default.
	CrowdParentIndex CrowdingPolicy = iota
	// CrowdNearestParent pairs children with parents minimizing total
	// genotype distance (classic deterministic crowding, Mahfoud 1992).
	CrowdNearestParent
)

// String returns the policy name.
func (p CrowdingPolicy) String() string {
	switch p {
	case CrowdParentIndex:
		return "parent-index"
	case CrowdNearestParent:
		return "nearest-parent"
	default:
		return fmt.Sprintf("CrowdingPolicy(%d)", int(p))
	}
}

// CrowdingByName resolves a crowding-policy name.
func CrowdingByName(name string) (CrowdingPolicy, error) {
	switch name {
	case "parent-index", "":
		return CrowdParentIndex, nil
	case "nearest-parent", "nearest":
		return CrowdNearestParent, nil
	default:
		return 0, fmt.Errorf("core: unknown crowding policy %q", name)
	}
}

// AllCrossover is the MutationRate sentinel requesting an effective rate
// of 0.0 — every generation performs crossover. It exists because the
// zero value of Config.MutationRate selects the paper's default of 0.5,
// so a literal 0.0 cannot be expressed directly.
const AllCrossover = -1.0

// DefaultGenerations is the evolution budget selected when
// Config.Generations is zero — the paper's 400-generation setup. It is the
// single source of truth for the default; the facade and experiment layers
// pass zero through instead of re-stating the number.
const DefaultGenerations = 400

// StopReason records why a run ended.
type StopReason string

const (
	// StopCompleted: the configured generation budget was exhausted.
	StopCompleted StopReason = "completed"
	// StopStagnated: the best score did not improve for
	// NoImprovementWindow generations.
	StopStagnated StopReason = "stagnated"
	// StopCancelled: the run's context was cancelled.
	StopCancelled StopReason = "cancelled"
	// StopDeadline: the run's context deadline expired.
	StopDeadline StopReason = "deadline"
)

// StopReasonForContext maps a context error to the stop reason it implies.
func StopReasonForContext(err error) StopReason {
	if errors.Is(err, context.DeadlineExceeded) {
		return StopDeadline
	}
	return StopCancelled
}

// Config parameterizes the engine. Zero values select the paper's setup.
type Config struct {
	// Generations is the number of generations Run executes. Zero selects
	// DefaultGenerations; negative values are rejected.
	Generations int
	// MutationRate is the probability a generation performs mutation
	// rather than crossover; the paper fixes it at 0.5 (§2.2). Zero means
	// 0.5; use the AllCrossover sentinel for an explicit rate of 0.0.
	MutationRate float64
	// LeaderFraction sets the leader-group size Nb as a fraction of the
	// population (§2.4). Zero means 0.1; Nb is at least 2.
	LeaderFraction float64
	// Selection is the reproduction-selection policy.
	Selection SelectionPolicy
	// Crowding is the crossover replacement policy. Crossover itself is
	// always the paper's 2-point scheme (§2.2.2).
	Crowding CrowdingPolicy
	// Aggregator optionally names a per-engine fitness aggregation — "mean",
	// "max", "euclidean" or "weighted:<w>" — overriding the evaluator's.
	// Empty keeps the evaluator's aggregator. The engine then re-scores the
	// shared initial evaluations and all offspring under its own
	// aggregation, which is how heterogeneous islands explore the
	// risk/information-loss trade-off from different biases at once.
	Aggregator string
	// Objective selects the optimization mode: ObjectiveScalar (the
	// default — the paper's single aggregated score) or ObjectivePareto
	// (NSGA-II-style non-dominated sorting + crowding distance over the
	// raw (IL, DR) pairs; see nsga2.go). Scores are still computed under
	// the aggregator in Pareto mode — statistics, migration to scalarized
	// islands and tie-breaking stay meaningful — but selection and
	// replacement ignore them.
	Objective string
	// ParetoRef is the hypervolume reference point of Pareto mode; each
	// generation's front is scored as the trade-off-plane area it
	// dominates within [0, ParetoRef.IL] x [0, ParetoRef.DR]. The zero
	// value selects DefaultParetoRef; set components must be finite and
	// positive. Ignored in scalar mode (but still validated when set, so
	// misconfigurations surface at admission regardless of mode).
	ParetoRef score.Pair
	// Seed drives all stochastic decisions; a fixed seed reproduces a run
	// exactly.
	Seed uint64
	// NoImprovementWindow stops Run early when the best score has not
	// improved for this many generations. Zero disables early stopping.
	NoImprovementWindow int
	// ForceOp pins every generation to one operator: "mutation",
	// "crossover", or "" for the paper's fair coin. Used by the timing
	// benchmarks.
	ForceOp string
	// InitWorkers sets the worker-pool width for evaluating the initial
	// population. Zero means sequential.
	InitWorkers int
	// EvalWorkers sets how many offspring a generation scores at once:
	// when it is at least 2, a crossover's two children are scored
	// concurrently unless a parent was crossed with itself. Zero inherits
	// InitWorkers; negative values force sequential offspring evaluation.
	// Results are identical at any width — only wall-clock changes.
	EvalWorkers int
}

func (c *Config) withDefaults() (Config, error) {
	out := *c
	if out.Generations == 0 {
		out.Generations = DefaultGenerations
	}
	if out.Generations < 0 {
		return out, fmt.Errorf("core: Generations must be positive, got %d", out.Generations)
	}
	switch {
	case out.MutationRate == 0:
		out.MutationRate = 0.5
	case out.MutationRate == AllCrossover:
		out.MutationRate = 0
	}
	if out.MutationRate < 0 || out.MutationRate > 1 {
		return out, fmt.Errorf("core: MutationRate %v outside [0,1] (use core.AllCrossover for an explicit 0.0)", out.MutationRate)
	}
	if out.LeaderFraction == 0 {
		out.LeaderFraction = 0.1
	}
	if out.LeaderFraction < 0 || out.LeaderFraction > 1 {
		return out, fmt.Errorf("core: LeaderFraction %v outside [0,1]", out.LeaderFraction)
	}
	switch out.ForceOp {
	case "", "mutation", "crossover":
	default:
		return out, fmt.Errorf("core: ForceOp %q (want mutation|crossover|empty)", out.ForceOp)
	}
	if out.Aggregator != "" {
		if _, err := score.AggregatorByName(out.Aggregator); err != nil {
			return out, err
		}
	}
	switch out.Objective {
	case "", ObjectiveScalar:
	case ObjectivePareto:
		if out.ParetoRef == (score.Pair{}) {
			out.ParetoRef = DefaultParetoRef
		}
	default:
		return out, fmt.Errorf("core: unknown objective %q (want scalar|pareto)", out.Objective)
	}
	if ref := out.ParetoRef; ref != (score.Pair{}) {
		if !pareto.Finite(ref) || ref.IL <= 0 || ref.DR <= 0 {
			return out, fmt.Errorf("core: ParetoRef (%v, %v) must have finite positive components", ref.IL, ref.DR)
		}
	}
	if out.EvalWorkers == 0 {
		out.EvalWorkers = out.InitWorkers
	}
	return out, nil
}

// Validate checks the configuration the way engine construction would,
// without building anything — the admission-time gate services run on
// submitted job specs.
func (c Config) Validate() error {
	_, err := c.withDefaults()
	return err
}

// GenStats is one generation's record in the evolution history — the data
// behind the paper's max/mean/min evolution figures.
type GenStats struct {
	// Gen is the 1-based generation number.
	Gen int
	// Op is the operator the generation performed.
	Op string
	// Min, Mean and Max summarize the population's scores after the
	// generation.
	Min, Mean, Max float64
	// BestIL and BestDR are the components of the best individual.
	BestIL, BestDR float64
	// Evals is the number of fitness evaluations performed.
	Evals int
	// Accepted is the number of offspring that survived replacement this
	// generation (0..1 for mutation, 0..2 for crossover).
	Accepted int
	// EvalTime is the wall time spent in fitness evaluation; TotalTime is
	// the whole generation. The paper's timing table (§3.2) reports that
	// EvalTime dominates. Both stay in memory only: wall-clock time would
	// make checkpoints, event feeds and results differ between two runs
	// of one seed, so they are never serialized.
	EvalTime  time.Duration `json:"-"`
	TotalTime time.Duration `json:"-"`
	// Improved reports whether the best score improved this generation —
	// in Pareto mode, whether the front's hypervolume strictly grew.
	Improved bool
	// Front summarizes the generation's non-dominated front in Pareto
	// mode; nil in scalar mode, so scalarized histories and event feeds
	// are byte-identical to pre-Pareto builds.
	Front *FrontStats `json:",omitempty"`
}

// Result is the outcome of a Run.
type Result struct {
	// Population is the final population, sorted best (lowest score)
	// first.
	Population []*Individual
	// History holds one GenStats per executed generation.
	History []GenStats
	// Generations is the number of generations actually executed since the
	// engine was constructed or resumed (early stopping or cancellation may
	// cut a run short).
	Generations int
	// StopReason records why the run ended: budget exhausted, stagnation,
	// cancellation, or deadline.
	StopReason StopReason
	// Evaluations counts all fitness evaluations including the initial
	// population.
	Evaluations int
	// AcceptedOffspring and TotalOffspring count how many generated
	// children survived the elitist replacement across the run — the
	// operator acceptance rate the elitism scheme induces.
	AcceptedOffspring, TotalOffspring int
	// Best is the best individual of the final population.
	Best *Individual
	// Front summarizes the final population's non-dominated front in
	// Pareto mode; nil in scalar mode. It can differ from the last
	// History entry's: an island model migrates after the final
	// generation too.
	Front *FrontStats `json:",omitempty"`
}

// Engine runs the evolutionary algorithm over a population of protections
// of one original dataset.
type Engine struct {
	eval      *score.Evaluator
	cfg       Config
	rng       *rand.Rand
	pcg       *rand.PCG     // the rng's source, kept for snapshotting
	pop       []*Individual // sorted by Eval.Score ascending
	attrs     []int
	mutable   []int // protected columns with cardinality > 1; mutation draws from these
	history   []GenStats
	evals     int
	gen       int
	startGen  int // generation count at construction or resume
	accepted  int
	offspring int

	// chBuf1/chBuf2 are the operators' change-list buffers, reused across
	// generations: the delta-evaluation chain consumes change lists
	// without retaining them, so each Step may overwrite the previous
	// one's lists instead of allocating fresh slices.
	chBuf1, chBuf2 []dataset.CellChange
	// nsga is Pareto mode's ranking state and scratch, and poolBuf stages
	// environmental selection's population + offspring pool; both reused
	// across generations. hv is the hypervolume of the current
	// population's front when hvValid: Step records it, and anything else
	// that changes the population clears hvValid.
	nsga    nsgaSort
	poolBuf []*Individual
	hv      float64
	hvValid bool

	// bParents/bChildren/bChanges stage one generation's offspring for
	// evaluation, reused across Steps (a generation has at most two
	// offspring); settleStates restores the parents' states.
	bParents  [2]*Individual
	bChildren [2]*Individual
	bChanges  [2][]dataset.CellChange
}

// NewEngine builds an engine and evaluates the initial population. The
// initial individuals' Data must share the original dataset's schema and
// shape; their Eval is computed here (any existing value is ignored).
// Each individual's incremental state is built alongside its evaluation
// in the same InitWorkers pool, so every parent enters reproduction ready
// for delta evaluation.
func NewEngine(eval *score.Evaluator, initial []*Individual, cfg Config) (*Engine, error) {
	engines, err := NewEngines(context.Background(), eval, initial, []Config{cfg})
	if err != nil {
		return nil, err
	}
	return engines[0], nil
}

// NewEngines builds several engines over one shared evaluator and initial
// population — the island-model constructor. The population is evaluated
// and delta-prepared exactly once; engine i receives its own individual
// wrappers under cfgs[i], with the datasets shared (files are never
// modified once built) and the prepared states cloned per engine so
// concurrent islands never share mutable evaluation state. The context
// bounds the initial evaluation — the expensive part of construction — so
// cancellation works during startup, not just between generations.
func NewEngines(ctx context.Context, eval *score.Evaluator, initial []*Individual, cfgs []Config) ([]*Engine, error) {
	if eval == nil {
		return nil, fmt.Errorf("core: nil evaluator")
	}
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("core: no engine configs")
	}
	resolved := make([]Config, len(cfgs))
	for i, cfg := range cfgs {
		c, err := cfg.withDefaults()
		if err != nil {
			return nil, err
		}
		resolved[i] = c
	}
	if len(initial) < 2 {
		return nil, fmt.Errorf("core: population of %d, need at least 2", len(initial))
	}
	data := make([]*dataset.Dataset, len(initial))
	for i, ind := range initial {
		if ind == nil || ind.Data == nil {
			return nil, fmt.Errorf("core: nil individual at position %d", i)
		}
		data[i] = ind.Data
	}
	workers := 0
	for _, c := range resolved {
		if c.InitWorkers > workers {
			workers = c.InitWorkers
		}
	}
	evs, states, err := eval.EvaluateAllPrepared(ctx, data, workers)
	if err != nil {
		return nil, err
	}
	mutable, err := mutableAttrs(eval)
	if err != nil {
		return nil, err
	}
	engines := make([]*Engine, len(resolved))
	for k, c := range resolved {
		engEval, err := engineEvaluator(eval, c)
		if err != nil {
			return nil, err
		}
		pop := make([]*Individual, len(initial))
		for i, ind := range initial {
			pop[i] = &Individual{Data: ind.Data, Origin: ind.Origin, Eval: evs[i]}
			if engEval != eval {
				// The shared evaluation carries the shared aggregator's
				// score; re-combine the (IL, DR) pair under this engine's
				// own aggregation. The parts maps stay shared — they are
				// aggregator-independent.
				pop[i].Eval.Score = engEval.Aggregator().Combine(evs[i].IL, evs[i].DR)
			}
			if k == len(resolved)-1 {
				pop[i].state = states[i] // last engine takes ownership
			} else {
				pop[i].state = states[i].Clone()
			}
		}
		pcg := rand.NewPCG(c.Seed, 0x853c49e6748fea9b)
		e := &Engine{
			eval:    engEval,
			cfg:     c,
			rng:     rand.New(pcg),
			pcg:     pcg,
			pop:     pop,
			attrs:   eval.Attrs(),
			mutable: mutable,
		}
		e.evals = len(pop)
		e.sortPop()
		engines[k] = e
	}
	return engines, nil
}

// engineEvaluator resolves the evaluator an engine scores with: the shared
// one, or — when the config names its own aggregation — a derived copy
// sharing the measure batteries (so delta states remain interchangeable
// across engines) but combining (IL, DR) its own way.
func engineEvaluator(eval *score.Evaluator, c Config) (*score.Evaluator, error) {
	if c.Aggregator == "" {
		return eval, nil
	}
	agg, err := score.AggregatorByName(c.Aggregator)
	if err != nil {
		return nil, err
	}
	return eval.WithAggregator(agg), nil
}

// mutableAttrs returns the protected columns whose domain has more than
// one category — the only genes mutation can actually change. It errors
// when none exist: every protected domain then has a single category, no
// gene can ever take a different value, and neither operator can move the
// search.
func mutableAttrs(eval *score.Evaluator) ([]int, error) {
	orig := eval.Orig()
	var mutable []int
	for _, col := range eval.Attrs() {
		if orig.Schema().Attr(col).Cardinality() > 1 {
			mutable = append(mutable, col)
		}
	}
	if len(mutable) == 0 {
		return nil, fmt.Errorf("core: no protected attribute has more than one category; nothing can mutate")
	}
	return mutable, nil
}

// Population returns the current population, sorted best-first. The slice
// is a copy; the individuals are shared.
func (e *Engine) Population() []*Individual {
	out := make([]*Individual, len(e.pop))
	copy(out, e.pop)
	return out
}

// Best returns the current best individual.
func (e *Engine) Best() *Individual { return e.pop[0] }

// Generation returns the number of generations executed so far.
func (e *Engine) Generation() int { return e.gen }

// MaxGenerations returns the configured generation budget (after
// defaulting), the most generations a Run will execute.
func (e *Engine) MaxGenerations() int { return e.cfg.Generations }

// ExecutedGenerations returns the generations executed since the engine
// was constructed or resumed.
func (e *Engine) ExecutedGenerations() int { return e.gen - e.startGen }

// Evaluations returns the total number of fitness evaluations so far.
func (e *Engine) Evaluations() int { return e.evals }

// History returns the per-generation statistics recorded so far.
func (e *Engine) History() []GenStats {
	out := make([]GenStats, len(e.history))
	copy(out, e.history)
	return out
}

// Stats summarizes the current population as a GenStats snapshot (without
// operator and timing fields) — used for the "generation 0" point of the
// paper's evolution figures.
func (e *Engine) Stats() GenStats {
	return e.popStats(GenStats{Gen: e.gen})
}

func (e *Engine) popStats(gs GenStats) GenStats {
	min, max, sum := e.pop[0].Eval.Score, e.pop[0].Eval.Score, 0.0
	for _, ind := range e.pop {
		s := ind.Eval.Score
		if s < min {
			min = s
		}
		if s > max {
			max = s
		}
		sum += s
	}
	gs.Min, gs.Max, gs.Mean = min, max, sum/float64(len(e.pop))
	gs.BestIL, gs.BestDR = e.pop[0].Eval.IL, e.pop[0].Eval.DR
	return gs
}

// Step executes one generation: operator choice, selection, offspring
// creation, evaluation, and elitist replacement (Algorithm 1 body).
func (e *Engine) Step() GenStats {
	start := time.Now()
	prevBest := e.pop[0].Eval.Score
	var prevHV float64
	if e.paretoMode() {
		if !e.hvValid {
			e.hv = e.frontStats().Hypervolume
		}
		prevHV = e.hv
	}
	e.gen++
	gs := GenStats{Gen: e.gen}

	op := e.cfg.ForceOp
	if op == "" {
		if e.rng.Float64() < e.cfg.MutationRate {
			op = "mutation"
		} else {
			op = "crossover"
		}
	}
	gs.Op = op

	var evalTime time.Duration
	if op == "mutation" {
		evalTime, gs.Accepted = e.stepMutation()
		gs.Evals = 1
	} else {
		evalTime, gs.Accepted = e.stepCrossover()
		gs.Evals = 2
	}
	e.settleStates()
	e.evals += gs.Evals
	e.accepted += gs.Accepted
	e.offspring += gs.Evals
	if e.paretoMode() {
		e.sortRanked() // paretoReplace left the survivors ranked and crowded
	} else {
		e.sortPop()
	}

	gs = e.popStats(gs)
	gs.EvalTime = evalTime
	gs.TotalTime = time.Since(start)
	if e.paretoMode() {
		fs := e.frontStats()
		gs.Front = &fs
		gs.Improved = fs.Hypervolume > prevHV
		e.hv, e.hvValid = fs.Hypervolume, true
	} else {
		gs.Improved = e.pop[0].Eval.Score < prevBest
	}
	e.history = append(e.history, gs)
	return gs
}

// Run executes up to cfg.Generations generations under ctx, stopping early
// when the best score stagnates past NoImprovementWindow. The context is
// checked between generations; on cancellation or deadline expiry the
// partial result — with its stop reason recorded — is returned together
// with the context's error. Generations already executed are never
// discarded.
func (e *Engine) Run(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	sinceImprove := 0
	reason := StopCompleted
	var runErr error
	for g := 0; g < e.cfg.Generations; g++ {
		if err := ctx.Err(); err != nil {
			reason, runErr = StopReasonForContext(err), err
			break
		}
		gs := e.Step()
		if gs.Improved {
			sinceImprove = 0
		} else {
			sinceImprove++
		}
		if e.cfg.NoImprovementWindow > 0 && sinceImprove >= e.cfg.NoImprovementWindow {
			reason = StopStagnated
			break
		}
	}
	return e.MakeResult(reason), runErr
}

// MakeResult assembles the engine's current state into a Result with the
// given stop reason — the builder Run uses, exported so coordinators that
// drive the engine through Step (the island model) can report results in
// the same shape.
func (e *Engine) MakeResult(reason StopReason) *Result {
	res := &Result{
		Population:        e.Population(),
		History:           e.History(),
		Generations:       e.ExecutedGenerations(),
		StopReason:        reason,
		Evaluations:       e.evals,
		AcceptedOffspring: e.accepted,
		TotalOffspring:    e.offspring,
		Best:              e.Best(),
	}
	if e.paretoMode() {
		fs := e.frontStats()
		res.Front = &fs
	}
	return res
}

// Emigrants returns copies of the k best individuals for injection into
// another engine. The wrappers are new; the datasets are shared (files are
// never modified once built), the evaluations copied, and the delta states
// shared too: an emigrant's state is its source's own, read-only. That is
// safe because migration runs while every island is quiescent, and
// Immigrate clones the state of each migrant it accepts, so no receiving
// engine ever evolves a state this one owns.
func (e *Engine) Emigrants(k int) []*Individual {
	if k > len(e.pop) {
		k = len(e.pop)
	}
	if k < 0 {
		k = 0
	}
	out := make([]*Individual, k)
	for i := 0; i < k; i++ {
		src := e.pop[i]
		out[i] = &Individual{Data: src.Data, Eval: src.Eval, Origin: src.Origin, state: src.state}
	}
	return out
}

// Immigrate offers migrant individuals to the population: each migrant
// strictly better than the current worst replaces it (the standard
// worst-replacement acceptance, preserving elitism — the best can only
// improve). Returns how many migrants were accepted. The migrants' cached
// (IL, DR) pairs are trusted, but their Score is re-combined under this
// engine's own aggregator, so heterogeneous islands judge arrivals on
// their own fitness scale; with a shared aggregator the re-combination is
// a pure recomputation of the identical value, so homogeneous runs are
// bit-for-bit unchanged. The wrappers are copied, and any carried delta
// state is cloned, so the caller may offer the same slice to several
// engines: broadcast migration hands one migrant to every island, and
// offspring evaluation advances and rolls back states in place — a
// shared state would be mutated concurrently by engines that accepted the
// same migrant.
//
// A Pareto-mode engine judges arrivals by dominance instead: the migrant
// joins NSGA-II environmental selection over population + migrant and is
// accepted exactly when it survives the truncation. The re-combined Score
// still matters as the in-front tie-breaker, so a scalarized island's
// migrant is ranked by its raw (IL, DR) pair on arrival at a Pareto
// island — and a Pareto island's emigrants carry pairs a scalarized
// island re-scores under its own aggregator — which is what lets the
// scalarized-vs-Pareto niche split exchange individuals meaningfully.
func (e *Engine) Immigrate(migrants []*Individual) int {
	accepted := 0
	agg := e.eval.Aggregator()
	e.hvValid = false
	for _, m := range migrants {
		if m == nil || m.Data == nil {
			continue
		}
		ev := m.Eval
		ev.Score = agg.Combine(ev.IL, ev.DR)
		if e.paretoMode() {
			imm := &Individual{Data: m.Data, Eval: ev, Origin: m.Origin}
			pool := append(append(e.poolBuf[:0], e.pop...), imm)
			e.poolBuf = pool
			kept := e.nsga.envSelect(pool, len(e.pop))
			if containsIndividual(kept, imm) {
				if m.state != nil {
					imm.state = m.state.Clone()
				}
				e.pop = append(e.pop[:0], kept...)
				e.sortPop()
				accepted++
			} else {
				// envSelect ranked the pool including the rejected migrant;
				// re-derive rank and crowding over the population alone so
				// the next tournament sees the same state a resumed engine
				// would.
				e.refreshPareto()
			}
			continue
		}
		worst := len(e.pop) - 1
		if ev.Score < e.pop[worst].Eval.Score {
			var st *score.DeltaState
			if m.state != nil {
				st = m.state.Clone()
			}
			e.pop[worst] = &Individual{Data: m.Data, Eval: ev, Origin: m.Origin, state: st}
			e.sortPop()
			accepted++
		}
	}
	return accepted
}

// stepMutation is the mutation branch of Algorithm 1: select one
// individual by score, mutate one gene, keep the better of parent and
// child (elitism).
func (e *Engine) stepMutation() (evalTime time.Duration, accepted int) {
	idx := e.selectIndex()
	parent := e.pop[idx]
	child, changes := e.mutate(parent)
	e.bParents[0], e.bChildren[0], e.bChanges[0] = parent, child, changes
	evalStart := time.Now()
	e.evaluateStaged(1)
	evalTime = time.Since(evalStart)
	if e.paretoMode() {
		accepted = e.paretoReplace(e.bParents[:1], e.bChildren[:1], e.bChanges[:1])
		return evalTime, accepted
	}
	if child.Eval.Score < parent.Eval.Score {
		e.pop[idx] = child
		accepted++
		e.commitSurvivor(child, parent, changes, true)
	}
	return evalTime, accepted
}

// stepCrossover is the crossover branch of Algorithm 1: one parent from
// the leader group, one from the whole population, 2-point crossing,
// deterministic-crowding replacement.
func (e *Engine) stepCrossover() (evalTime time.Duration, accepted int) {
	nb := e.leaderSize()
	i1 := e.rng.IntN(nb)
	i2 := e.selectIndex()
	for attempt := 0; i2 == i1 && attempt < 8; attempt++ {
		// Crossing an individual with itself yields identical offspring;
		// redraw a few times (bounded so tiny populations cannot spin).
		i2 = e.selectIndex()
	}
	p1, p2 := e.pop[i1], e.pop[i2]
	c1, c2, ch1, ch2 := e.cross(p1, p2)
	e.bParents[0], e.bChildren[0], e.bChanges[0] = p1, c1, ch1
	e.bParents[1], e.bChildren[1], e.bChanges[1] = p2, c2, ch2

	evalStart := time.Now()
	e.evaluateStaged(2)
	evalTime = time.Since(evalStart)

	if e.paretoMode() {
		// Global NSGA-II replacement over population + both children; the
		// crowding pairing below is a scalar-mode concept (children compete
		// for their parents' slots) and does not apply.
		accepted = e.paretoReplace(e.bParents[:2], e.bChildren[:2], e.bChanges[:2])
		return evalTime, accepted
	}

	// b1/b2 track each child's biological parent (and its change list)
	// through the crowding swap: a survivor's delta state derives from the
	// parent it was crossed from, not from the slot it competes for.
	b1, b2 := p1, p2
	if e.cfg.Crowding == CrowdNearestParent {
		// Classic deterministic crowding: pair children with the parents
		// they are genotypically closest to (minimal total distance). A
		// change list holds exactly the genes where its child differs
		// from its parent, and there the child takes the other parent's
		// gene, so the distances follow from the lists' lengths and the
		// parents' distance m without reading a child's file.
		m := p1.Data.Mismatches(p2.Data, e.attrs)
		d11, d22 := len(ch1), len(ch2)
		d12, d21 := m-len(ch1), m-len(ch2)
		if d11+d22 > d12+d21 {
			c1, c2 = c2, c1
			b1, b2 = b2, b1
			ch1, ch2 = ch2, ch1
		}
	}
	// Tournament: child k replaces parent k only when strictly better.
	win1 := c1.Eval.Score < p1.Eval.Score
	win2 := c2.Eval.Score < p2.Eval.Score
	if win1 {
		e.pop[i1] = c1
		accepted++
	}
	if win2 {
		e.pop[i2] = c2
		accepted++
	}
	// Hand the survivors their files and states. A biological parent is
	// gone from the population when a winning child took its slot (with
	// i1 == i2 both children fought the same occupant); its state can
	// then transfer without a clone. Skip a child that won its tournament
	// but was itself overwritten by the other child.
	evicted := func(b *Individual) bool {
		return (win1 && b == p1) || (win2 && b == p2)
	}
	if win1 && !(i1 == i2 && win2) {
		e.commitSurvivor(c1, b1, ch1, evicted(b1))
	}
	if win2 {
		e.commitSurvivor(c2, b2, ch2, evicted(b2))
	}
	return evalTime, accepted
}

// leaderSize returns Nb, the size of the leader group (§2.4).
func (e *Engine) leaderSize() int {
	nb := int(e.cfg.LeaderFraction * float64(len(e.pop)))
	if nb < 2 {
		nb = 2
	}
	if nb > len(e.pop) {
		nb = len(e.pop)
	}
	return nb
}

// selectIndex draws one population index under the configured selection
// policy. The population is sorted best-first. Pareto mode replaces the
// score-based policies with NSGA-II's crowded binary tournament.
func (e *Engine) selectIndex() int {
	if e.paretoMode() {
		return e.selectIndexPareto()
	}
	n := len(e.pop)
	switch e.cfg.Selection {
	case SelectUniform:
		return e.rng.IntN(n)
	case SelectRank:
		// weight(rank r) = n - r.
		total := n * (n + 1) / 2
		u := e.rng.IntN(total)
		cum := 0
		for i := 0; i < n; i++ {
			cum += n - i
			if u < cum {
				return i
			}
		}
		return n - 1
	case SelectRawProportional:
		total := 0.0
		for _, ind := range e.pop {
			total += ind.Eval.Score
		}
		if total <= 0 {
			return e.rng.IntN(n)
		}
		u := e.rng.Float64() * total
		cum := 0.0
		for i, ind := range e.pop {
			cum += ind.Eval.Score
			if u < cum {
				return i
			}
		}
		return n - 1
	default: // SelectInverseProportional
		const eps = 1e-9
		total := 0.0
		for _, ind := range e.pop {
			total += 1 / (ind.Eval.Score + eps)
		}
		u := e.rng.Float64() * total
		cum := 0.0
		for i, ind := range e.pop {
			cum += 1 / (ind.Eval.Score + eps)
			if u < cum {
				return i
			}
		}
		return n - 1
	}
}

// geneCount returns the chromosome length: one gene per (record,
// protected attribute) cell.
func (e *Engine) geneCount() int { return e.eval.Orig().Rows() * len(e.attrs) }

// genePos maps a flattened gene index to its (row, column) cell.
func (e *Engine) genePos(g int) (row, col int) {
	return g / len(e.attrs), e.attrs[g%len(e.attrs)]
}

// mutate replaces one random gene of the parent with a different
// uniformly-drawn valid category (§2.2.1). It returns a file-less
// offspring and the one-cell change list that derives it from the
// parent's file, which it only reads. The gene is drawn uniformly over
// the cells of attributes with more than one category (NewEngine
// guarantees at least one exists), so a mutation is never a silent no-op;
// when every protected attribute is mutable this is the same draw as over
// the whole chromosome.
func (e *Engine) mutate(parent *Individual) (*Individual, []dataset.CellChange) {
	data := parent.Data
	g := e.rng.IntN(data.Rows() * len(e.mutable))
	row, col := g/len(e.mutable), e.mutable[g%len(e.mutable)]
	card := data.Schema().Attr(col).Cardinality()
	old := data.At(row, col)
	// Draw among the card-1 other categories.
	v := e.rng.IntN(card - 1)
	if v >= old {
		v++
	}
	e.chBuf1 = append(e.chBuf1[:0], dataset.CellChange{Row: row, Col: col, Old: old, New: v})
	return &Individual{Origin: "mutation"}, e.chBuf1
}

// cross recombines two parents at the category level with the paper's
// 2-point crossover (§2.2.2): positions s..r (inclusive) of the gene
// string are exchanged; when s == r exactly one value swaps. The children
// are returned file-less: the change lists record each child's cells that
// differ from its parent (positions where the parents agree swap to the
// same value and are omitted), and the parents' files are only read.
// Every gene is swapped at most once, so each list holds a cell at most
// once.
func (e *Engine) cross(p1, p2 *Individual) (c1, c2 *Individual, ch1, ch2 []dataset.CellChange) {
	d1, d2 := p1.Data, p2.Data
	length := e.geneCount()
	ch1, ch2 = e.chBuf1[:0], e.chBuf2[:0]
	s := e.rng.IntN(length)
	r := s + e.rng.IntN(length-s) // uniform in [s, length-1]
	for g := s; g <= r; g++ {
		row, col := e.genePos(g)
		v1, v2 := d1.At(row, col), d2.At(row, col)
		if v1 == v2 {
			continue
		}
		ch1 = append(ch1, dataset.CellChange{Row: row, Col: col, Old: v1, New: v2})
		ch2 = append(ch2, dataset.CellChange{Row: row, Col: col, Old: v2, New: v1})
	}
	e.chBuf1, e.chBuf2 = ch1, ch2 // keep any grown capacity for later steps
	return &Individual{Origin: "crossover"}, &Individual{Origin: "crossover"}, ch1, ch2
}

// sortPop keeps the population sorted by ascending score; ties preserve
// the previous order (stable), matching §2.4's sorted-population model.
// Pareto mode sorts by (rank, score) instead — recomputing rank and
// crowding first, so every caller (construction, Resume, migration)
// leaves the population with fresh NSGA-II state and pop[0] is the first
// front's best-compromise member. Step needs no recomputation: its
// environmental selection already ranked the survivors (see envSelect).
func (e *Engine) sortPop() {
	if e.paretoMode() {
		e.refreshPareto()
		e.sortRanked()
		return
	}
	sort.SliceStable(e.pop, func(i, j int) bool {
		return e.pop[i].Eval.Score < e.pop[j].Eval.Score
	})
}

// sortRanked stably sorts a ranked Pareto population by (rank, score).
func (e *Engine) sortRanked() {
	slices.SortStableFunc(e.pop, func(a, b *Individual) int {
		if a.rank != b.rank {
			return lessCmp(a.rank < b.rank)
		}
		return lessCmp(a.Eval.Score < b.Eval.Score)
	})
}
