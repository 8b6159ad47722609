package evoprot

// The context-aware Runner API: the package's primary entry point since
// the island-model redesign. A Runner owns a prepared evaluator and
// initial population and executes cancellable, observable optimization
// runs — single-engine or island-model — configured through functional
// options instead of zero-value-overloaded structs.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"

	"evoprot/internal/core"
	"evoprot/internal/experiment"
	"evoprot/internal/infoloss"
	"evoprot/internal/islands"
	"evoprot/internal/protection"
	"evoprot/internal/score"
)

// Re-exported island-model types.
type (
	// Event is one entry of a run's streamed progress feed: a generation's
	// statistics tagged with the island that produced it, or an island's
	// final Done summary with its stop reason.
	Event = islands.Event
	// EpochInfo describes one migration barrier of an adaptive run: the
	// divergence observed and the effective schedule going forward. Found
	// on Island -1 events when WithAdaptiveMigration is configured.
	EpochInfo = islands.EpochInfo
	// Topology selects which islands exchange individuals when migrating.
	Topology = islands.Topology
	// RunResult is the outcome of a Runner.Run: the best individual across
	// islands plus every island's own Result.
	RunResult = islands.Result
	// EpochBarrier executes island epochs and rendezvouses them between
	// migrations — the pluggable seam WithEpochBarrier installs. The
	// default runs epochs on in-process goroutines; a distributed runner
	// substitutes a barrier that dispatches them to remote workers. A
	// conforming barrier never changes a run's trajectory.
	EpochBarrier = islands.EpochBarrier
	// StopReason records why a run ended.
	StopReason = core.StopReason
)

// Migration topologies.
const (
	// Ring sends each island's elites to its clockwise neighbour.
	Ring = islands.Ring
	// Broadcast offers every island's elites to every other island.
	Broadcast = islands.Broadcast
)

// Stop reasons.
const (
	StopCompleted = core.StopCompleted
	StopStagnated = core.StopStagnated
	StopCancelled = core.StopCancelled
	StopDeadline  = core.StopDeadline
)

// runnerOptions collects everything the functional options configure.
type runnerOptions struct {
	grid            string
	seeds           []*Dataset
	aggregatorName  string
	aggregator      Aggregator
	objective       string
	paretoRef       Pair
	mlTarget        string
	generations     int
	seed            uint64
	workers         int
	evalWorkers     int
	window          int
	selection       string
	islands         int
	migrateEvery    int
	migrants        int
	topology        Topology
	perIsland       []IslandConfig
	niches          string
	adaptive        *AdaptiveMigration
	onEvent         func(Event)
	events          chan<- Event
	checkpointPath  string
	checkpointSink  func(snapshot []byte) error
	checkpointEvery int
	firstSeq        uint64
	barrier         islands.EpochBarrier
}

// IslandConfig overrides engine knobs for one island of a heterogeneous
// run. Zero-valued fields inherit the shared run configuration; set
// fields replace it for that island only. It doubles as the JSON shape of
// JobSpec.PerIsland, so the same overrides travel through the evoprotd
// wire format.
type IslandConfig struct {
	// Selection names the island's reproduction-selection policy:
	// "inverse-proportional", "raw-proportional", "rank" or "uniform".
	// Note that the default policy resolves to the zero value, which the
	// override layer reads as "inherit": an explicit
	// "inverse-proportional" cannot override a run whose shared selection
	// is non-default — configure the shared run with the policy most
	// islands want and override the exceptions.
	Selection string `json:"selection,omitempty"`
	// Crowding names the island's crossover replacement policy:
	// "parent-index" or "nearest-parent". As with Selection, the default
	// "parent-index" resolves to "inherit".
	Crowding string `json:"crowding,omitempty"`
	// MutationRate is the island's probability of mutating rather than
	// crossing per generation; use AllCrossover for an explicit 0.0.
	MutationRate float64 `json:"mutation_rate,omitempty"`
	// LeaderFraction sets the island's leader-group size as a population
	// fraction.
	LeaderFraction float64 `json:"leader_fraction,omitempty"`
	// CrossoverPoints sets the island's crossover cut count (2 = the
	// paper's scheme).
	CrossoverPoints int `json:"crossover_points,omitempty"`
	// Aggregator names the island's own fitness aggregation ("mean",
	// "max", "euclidean", "weighted:<w>"), overriding the run's — niched
	// search over the risk/information-loss trade-off.
	Aggregator string `json:"aggregator,omitempty"`
	// Objective selects the island's selection objective: "scalar"
	// (aggregated single-score search) or "pareto" (NSGA-II non-dominated
	// search over raw (IL, DR)). Empty inherits the run's objective.
	Objective string `json:"objective,omitempty"`
	// ParetoRef overrides the island's hypervolume reference point; nil
	// inherits the run's.
	ParetoRef *ParetoRef `json:"pareto_ref,omitempty"`
	// Generations overrides the island's per-Run budget.
	Generations int `json:"generations,omitempty"`
	// EarlyStop overrides the island's stagnation window.
	EarlyStop int `json:"early_stop,omitempty"`
}

// ParetoRef is the wire shape of a hypervolume reference point: the
// worst corner of the (IL, DR) box hypervolume is measured against. Both
// components must be finite and positive.
type ParetoRef struct {
	IL float64 `json:"il"`
	DR float64 `json:"dr"`
}

// toCore resolves the override's symbolic names into a core.Config
// override for islands.Config.PerIsland.
func (c IslandConfig) toCore() (core.Config, error) {
	sel, err := core.SelectionByName(c.Selection)
	if err != nil {
		return core.Config{}, err
	}
	crowd, err := core.CrowdingByName(c.Crowding)
	if err != nil {
		return core.Config{}, err
	}
	if c.Aggregator != "" {
		if _, err := AggregatorByName(c.Aggregator); err != nil {
			return core.Config{}, err
		}
	}
	obj, err := core.ObjectiveByName(c.Objective)
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.Config{
		Selection:           sel,
		Crowding:            crowd,
		MutationRate:        c.MutationRate,
		LeaderFraction:      c.LeaderFraction,
		CrossoverPoints:     c.CrossoverPoints,
		Aggregator:          c.Aggregator,
		Objective:           obj,
		Generations:         c.Generations,
		NoImprovementWindow: c.EarlyStop,
	}
	if c.ParetoRef != nil {
		cfg.ParetoRef = Pair{IL: c.ParetoRef.IL, DR: c.ParetoRef.DR}
	}
	return cfg, nil
}

// AdaptiveMigration bounds the divergence-driven migration controller
// enabled by WithAdaptiveMigration. Zero-valued fields select defaults
// derived from the configured schedule (see islands.Adaptive). It doubles
// as the JSON shape of JobSpec.Adaptive.
type AdaptiveMigration struct {
	// MinEvery and MaxEvery bound the effective migration interval;
	// defaults max(1, every/4) and every*4.
	MinEvery int `json:"min_every,omitempty"`
	MaxEvery int `json:"max_every,omitempty"`
	// MinMigrants and MaxMigrants bound the per-island exchange size;
	// defaults 1 and migrants*4.
	MinMigrants int `json:"min_migrants,omitempty"`
	MaxMigrants int `json:"max_migrants,omitempty"`
	// LowDivergence and HighDivergence are the controller's thresholds;
	// defaults 0.02 and 0.10.
	LowDivergence  float64 `json:"low_divergence,omitempty"`
	HighDivergence float64 `json:"high_divergence,omitempty"`
}

// toIslands maps the bounds onto the enabled islands controller config.
func (a AdaptiveMigration) toIslands() islands.Adaptive {
	return islands.Adaptive{
		Enabled:        true,
		MinEvery:       a.MinEvery,
		MaxEvery:       a.MaxEvery,
		MinMigrants:    a.MinMigrants,
		MaxMigrants:    a.MaxMigrants,
		LowDivergence:  a.LowDivergence,
		HighDivergence: a.HighDivergence,
	}
}

// resolveIslandSetup is the single resolution of the heterogeneity
// surface, shared by the functional options and the JobSpec wire format
// so admission-time validation can never drift from run-time behavior:
// it returns the effective island count (per-island overrides imply one
// island each when no count is given), the resolved override configs
// (niche preset or explicit overrides — mutually exclusive), and the
// adaptive controller config.
func resolveIslandSetup(nIslands int, perIsland []IslandConfig, niches string, adaptive *AdaptiveMigration) (int, []core.Config, islands.Adaptive, error) {
	var zero islands.Adaptive
	if niches != "" && len(perIsland) > 0 {
		return 0, nil, zero, fmt.Errorf("evoprot: niches and per-island overrides are mutually exclusive")
	}
	if nIslands == 0 && len(perIsland) > 0 {
		nIslands = len(perIsland)
	}
	var overrides []core.Config
	switch {
	case niches != "":
		if nIslands < 2 {
			// One implied island would make every preset a silent no-op;
			// demand the count the niches should spread over.
			return 0, nil, zero, fmt.Errorf("evoprot: niches %q needs an island count of at least 2 (set WithIslands / islands)", niches)
		}
		var err error
		overrides, err = islands.NichesByName(niches, nIslands)
		if err != nil {
			return 0, nil, zero, err
		}
	case len(perIsland) > 0:
		overrides = make([]core.Config, len(perIsland))
		for i, ov := range perIsland {
			oc, err := ov.toCore()
			if err != nil {
				return 0, nil, zero, fmt.Errorf("evoprot: island %d override: %w", i, err)
			}
			overrides[i] = oc
		}
	}
	var a islands.Adaptive
	if adaptive != nil {
		a = adaptive.toIslands()
	}
	return nIslands, overrides, a, nil
}

// Option configures a Runner. Zero/omitted options select the paper's
// defaults (400 generations, max aggregation, a single island).
type Option func(*runnerOptions)

// WithGrid seeds the initial population from a paper masking grid:
// "housing", "german", "flare" or "adult". One of WithGrid / WithSeeds is
// required.
func WithGrid(name string) Option { return func(o *runnerOptions) { o.grid = name } }

// WithSeeds supplies a ready-made initial population of masked datasets
// (at least 2); overrides WithGrid.
func WithSeeds(seeds ...*Dataset) Option { return func(o *runnerOptions) { o.seeds = seeds } }

// WithAggregator selects the fitness aggregation by name: "mean" (Eq. 1),
// "max" (Eq. 2, default), "euclidean", or "weighted:<w>".
func WithAggregator(name string) Option { return func(o *runnerOptions) { o.aggregatorName = name } }

// WithCustomAggregator installs an Aggregator value directly — custom
// fitness shapes beyond the named ones. Overrides WithAggregator.
func WithCustomAggregator(agg Aggregator) Option {
	return func(o *runnerOptions) { o.aggregator = agg }
}

// WithObjective selects the selection objective: "scalar" (the paper's
// aggregated single-score search, the default) or "pareto" (NSGA-II
// non-dominated sorting with crowding-distance selection over the raw
// (IL, DR) pairs). In Pareto mode every generation's event and the final
// result carry the current non-dominated front and its hypervolume; the
// configured aggregation keeps scoring individuals for statistics,
// in-front tie-breaking and cross-mode migration.
func WithObjective(name string) Option { return func(o *runnerOptions) { o.objective = name } }

// WithParetoRef sets the hypervolume reference point of Pareto-mode runs:
// the worst corner of the (IL, DR) box fronts are measured against. Both
// components must be finite and positive; the zero value selects the
// (100, 100) corner of the measures' natural range.
func WithParetoRef(il, dr float64) Option {
	return func(o *runnerOptions) { o.paretoRef = Pair{IL: il, DR: dr} }
}

// WithMLUtility appends a machine-learning-utility measure to the
// information-loss battery: a naive Bayes proxy classifier predicting the
// named target attribute, scoring the held-out accuracy drop of a model
// trained on the protected file instead of the original. The target may
// be any schema attribute; when it is itself protected it is excluded
// from the classifier's features. The measure has no incremental state, so
// it is recomputed in full for every offspring while the rest of the
// battery stays incremental.
func WithMLUtility(target string) Option { return func(o *runnerOptions) { o.mlTarget = target } }

// WithGenerations sets each island's evolution budget per Run call (0
// selects the paper's 400).
func WithGenerations(n int) Option { return func(o *runnerOptions) { o.generations = n } }

// WithSeed fixes the top-level run seed; a fixed seed reproduces the full
// run — islands, migrations and all — bit for bit.
func WithSeed(seed uint64) Option { return func(o *runnerOptions) { o.seed = seed } }

// WithWorkers parallelizes initial-population evaluation (0 = sequential).
func WithWorkers(n int) Option { return func(o *runnerOptions) { o.workers = n } }

// WithEvalWorkers sets the worker-pool width for generation-batch
// offspring evaluation (0 inherits WithWorkers, negative forces
// sequential). Results are identical at any width — only wall-clock
// changes.
func WithEvalWorkers(n int) Option { return func(o *runnerOptions) { o.evalWorkers = n } }

// WithEarlyStop stops an island after window stagnant generations
// (0 = disabled).
func WithEarlyStop(window int) Option { return func(o *runnerOptions) { o.window = window } }

// WithSelection names the reproduction-selection policy
// ("inverse-proportional" default, "raw-proportional", "rank", "uniform").
func WithSelection(name string) Option { return func(o *runnerOptions) { o.selection = name } }

// WithIslands evolves n islands concurrently, exchanging elites under the
// configured migration schedule (0 or 1 = a single island).
func WithIslands(n int) Option { return func(o *runnerOptions) { o.islands = n } }

// WithMigration sets the migration schedule: islands synchronize every
// `every` generations and each emits `migrants` elites (zeros select the
// defaults of 25 and 2).
func WithMigration(every, migrants int) Option {
	return func(o *runnerOptions) { o.migrateEvery, o.migrants = every, migrants }
}

// WithTopology selects the migration topology (Ring default, Broadcast).
func WithTopology(t Topology) Option { return func(o *runnerOptions) { o.topology = t } }

// WithPerIsland specializes islands: override i applies to island i on
// top of the run's shared configuration (zero-valued fields inherit), so
// different islands can run different selection pressures, mutation
// rates, crossover disruption or fitness aggregations. The override count
// must equal the island count; without WithIslands it implies one island
// per override. All-zero overrides reproduce the homogeneous run bit for
// bit. Mutually exclusive with WithNiches.
func WithPerIsland(overrides ...IslandConfig) Option {
	return func(o *runnerOptions) { o.perIsland = overrides }
}

// WithNiches spreads a named heterogeneity preset across the islands:
// "explore-exploit" (mutation rates, leader fractions, selection
// pressures and crossover disruption from exploitative to explorative),
// "selection-sweep", "aggregator-sweep" (islands optimize different
// points of the risk/information-loss trade-off), or "scalar-pareto"
// (alternating islands run NSGA-II Pareto selection — see WithObjective —
// while the rest keep the scalarized search). Island 0 always keeps
// the shared configuration, and WithIslands must ask for at least 2 —
// a single island would make every preset a silent no-op. See
// NicheNames. Mutually exclusive with WithPerIsland.
func WithNiches(name string) Option { return func(o *runnerOptions) { o.niches = name } }

// WithAdaptiveMigration ties the migration schedule to cross-island
// population divergence: at every barrier the coordinator measures how
// far the islands' populations have drifted apart and widens the
// migration interval when they have converged (less coordination) or
// narrows it and exchanges more migrants when they strongly diverge
// (more mixing), within am's bounds. WithMigration supplies the starting
// schedule. Adaptive runs stay bit-reproducible from the top-level seed;
// Island -1 events carry an EpochInfo per barrier.
func WithAdaptiveMigration(am AdaptiveMigration) Option {
	return func(o *runnerOptions) { o.adaptive = &am }
}

// NicheNames returns the built-in niche preset names for WithNiches.
func NicheNames() []string { return islands.NicheNames() }

// WithProgress streams every generation's statistics (and one Done event
// per island) to fn. Calls are serialized, never concurrent.
func WithProgress(fn func(Event)) Option { return func(o *runnerOptions) { o.onEvent = fn } }

// WithEvents streams the same feed to a channel. Run blocks on each send,
// so the caller must drain; the channel is closed when the run finishes. A
// channel serves a single Run call.
func WithEvents(ch chan<- Event) Option { return func(o *runnerOptions) { o.events = ch } }

// WithCheckpoint writes atomic engine snapshots to path at every migration
// barrier once at least `every` generations have passed since the last
// write (and once when the run ends, whatever ended it). Resume a
// checkpoint with Runner.Resume.
func WithCheckpoint(path string, every int) Option {
	return func(o *runnerOptions) { o.checkpointPath, o.checkpointEvery = path, every }
}

// WithCheckpointSink is WithCheckpoint for runs whose checkpoints do not
// live on a private filesystem path: every checkpoint the run would have
// written to a file is instead serialized and handed to write, which owns
// atomicity and durability (a storage.Store's Put, an object-store
// upload, ...). The cadence contract matches WithCheckpoint: a write at
// every migration barrier once `every` generations have passed since the
// last one, plus a final write when the run ends. Overrides WithCheckpoint.
func WithCheckpointSink(write func(snapshot []byte) error, every int) Option {
	return func(o *runnerOptions) { o.checkpointSink, o.checkpointEvery = write, every }
}

// WithEpochBarrier substitutes the rendezvous that executes island epochs
// between migrations (in-process goroutines by default). The barrier
// decides where epochs run — this process, a worker pool, remote machines
// — but never their outcome: any conforming barrier reproduces the
// identical run bit for bit. See islands.EpochBarrier for the contract.
func WithEpochBarrier(b EpochBarrier) Option {
	return func(o *runnerOptions) { o.barrier = b }
}

// WithFirstEventSeq sets the sequence number of the run's first event —
// the numbering origin of the Event feed. A service that resumes a
// checkpointed run and has already delivered n events passes n, so the
// resumed feed continues its predecessor's offset space and replay
// offsets stay stable across restarts.
func WithFirstEventSeq(seq uint64) Option { return func(o *runnerOptions) { o.firstSeq = seq } }

// Runner owns a prepared optimization: the evaluator over the original
// dataset and the evaluated initial population. Build one with NewRunner,
// then call Run — repeatedly if desired; each call continues the same
// engines for another budget of generations. A Runner is not safe for
// concurrent use.
type Runner struct {
	orig     *Dataset
	attrs    []int
	eval     *Evaluator
	opts     runnerOptions
	ir       *islands.Runner
	lastCkpt int
	ckptErr  error // last unsuperseded mid-run checkpoint write failure
}

// NewRunner prepares a run over the original dataset's named protected
// attributes. The initial population comes from WithSeeds or a WithGrid
// masking grid; all other options default to the paper's setup. Options
// are validated here, but the population itself is built lazily on the
// first Run — a Runner that Resumes a checkpoint never pays for it.
func NewRunner(orig *Dataset, attrNames []string, options ...Option) (*Runner, error) {
	var o runnerOptions
	for _, opt := range options {
		opt(&o)
	}
	attrs, err := orig.Schema().Indices(attrNames...)
	if err != nil {
		return nil, err
	}
	agg := o.aggregator
	if agg == nil && o.aggregatorName != "" {
		agg, err = AggregatorByName(o.aggregatorName)
		if err != nil {
			return nil, err
		}
	}
	scoreCfg := score.Config{Aggregator: agg}
	if o.mlTarget != "" {
		target, err := orig.Schema().Indices(o.mlTarget)
		if err != nil {
			return nil, fmt.Errorf("evoprot: ml-utility target: %w", err)
		}
		scoreCfg.IL = append(infoloss.Default(), &infoloss.MLUtility{Target: target[0]})
	}
	eval, err := score.NewEvaluator(orig, attrs, scoreCfg)
	if err != nil {
		return nil, err
	}
	switch {
	case o.seeds != nil:
		if len(o.seeds) < 2 {
			return nil, fmt.Errorf("evoprot: need at least 2 seed protections, got %d", len(o.seeds))
		}
	case o.grid != "":
		if _, err := protection.PaperComposition(o.grid); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("evoprot: need seed protections (WithSeeds) or a masking grid (WithGrid)")
	}
	if _, err := core.SelectionByName(o.selection); err != nil {
		return nil, err
	}
	r := &Runner{orig: orig, attrs: attrs, eval: eval, opts: o}
	// Validate the whole island configuration — per-island overrides,
	// niche preset, adaptive bounds, engine template — exactly the way the
	// first Run would, so a bad heterogeneous setup fails here instead of
	// after the initial population was paid for.
	cfg, err := r.islandsConfig()
	if err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return r, nil
}

// buildInitial materializes the initial population the options describe.
func (r *Runner) buildInitial() ([]*Individual, error) {
	if r.opts.seeds != nil {
		initial := make([]*Individual, len(r.opts.seeds))
		for i, s := range r.opts.seeds {
			initial[i] = core.NewIndividual(s, fmt.Sprintf("seed[%d]", i))
		}
		return initial, nil
	}
	return experiment.BuildPopulation(r.orig, r.attrs, r.opts.grid, r.opts.seed)
}

// islandsConfig assembles the islands.Config the options describe.
func (r *Runner) islandsConfig() (islands.Config, error) {
	sel, err := core.SelectionByName(r.opts.selection)
	if err != nil {
		return islands.Config{}, err
	}
	nIslands, perIsland, adaptive, err := resolveIslandSetup(r.opts.islands, r.opts.perIsland, r.opts.niches, r.opts.adaptive)
	if err != nil {
		return islands.Config{}, err
	}
	cfg := islands.Config{
		Islands:      nIslands,
		MigrateEvery: r.opts.migrateEvery,
		Migrants:     r.opts.migrants,
		Topology:     r.opts.topology,
		PerIsland:    perIsland,
		Adaptive:     adaptive,
		Engine: core.Config{
			Generations:         r.opts.generations,
			Seed:                r.opts.seed,
			InitWorkers:         r.opts.workers,
			EvalWorkers:         r.opts.evalWorkers,
			NoImprovementWindow: r.opts.window,
			Selection:           sel,
			Objective:           r.opts.objective,
			ParetoRef:           r.opts.paretoRef,
		},
		OnEvent:  r.opts.onEvent,
		Events:   r.opts.events,
		FirstSeq: r.opts.firstSeq,
		Barrier:  r.opts.barrier,
	}
	if write := r.checkpointWriter(); write != nil {
		every := r.opts.checkpointEvery
		if every < 1 {
			every = 1
		}
		cfg.OnEpoch = func(ir *islands.Runner) {
			if g := ir.Generation(); g-r.lastCkpt >= every {
				r.lastCkpt = g
				// A mid-run checkpoint failure must not kill the run: it is
				// surfaced live on the event feed, remembered for the final
				// error join, and superseded by any later successful write
				// (which makes the persisted state fresh again).
				if err := write(ir); err != nil {
					r.ckptErr = err
					ir.Emit(islands.Event{Island: -1, Err: err.Error()})
				} else {
					r.ckptErr = nil
				}
			}
		}
	}
	return cfg, nil
}

// checkpointWriter resolves the configured checkpoint destination into a
// writer over the islands runner: the byte sink when WithCheckpointSink
// is set, the atomic path writer for WithCheckpoint, nil when neither.
func (r *Runner) checkpointWriter() func(*islands.Runner) error {
	if sink := r.opts.checkpointSink; sink != nil {
		return func(ir *islands.Runner) error {
			var buf bytes.Buffer
			if err := ir.Snapshot(&buf); err != nil {
				return err
			}
			return sink(buf.Bytes())
		}
	}
	if path := r.opts.checkpointPath; path != "" {
		return func(ir *islands.Runner) error { return writeRunnerCheckpoint(ir, path) }
	}
	return nil
}

// Run executes the optimization under ctx. Cancellation and deadlines are
// honoured between generations: the partial result — stop reason recorded,
// history intact, best-so-far populated — is returned together with the
// context's error, so interrupted work is never lost. Calling Run again
// continues the same engines for another budget of generations.
func (r *Runner) Run(ctx context.Context) (*RunResult, error) {
	if r.ir == nil {
		cfg, err := r.islandsConfig()
		if err != nil {
			return nil, err
		}
		initial, err := r.buildInitial()
		if err != nil {
			return nil, err
		}
		ir, err := islands.New(ctx, r.eval, initial, cfg)
		if err != nil {
			return nil, err
		}
		r.ir = ir
	}
	res, err := r.ir.Run(ctx)
	// The events channel is closed by the run; drop it so a later Resume
	// (which rebuilds the islands runner from this Runner's options) can
	// never send on it again.
	r.opts.events = nil
	if write := r.checkpointWriter(); res != nil && write != nil {
		// Persist the final state — best-so-far on interruption included —
		// without letting a write failure vanish behind a cancellation.
		if werr := write(r.ir); werr != nil {
			werr = fmt.Errorf("%w: %v", ErrCheckpoint, werr)
			if err == nil {
				err = werr
			} else {
				err = errors.Join(err, werr)
			}
		} else {
			// The final write refreshed the checkpoint file; earlier mid-run
			// failures no longer describe its state.
			r.ckptErr = nil
		}
	}
	if r.ckptErr != nil {
		werr := fmt.Errorf("%w: mid-run: %v", ErrCheckpoint, r.ckptErr)
		r.ckptErr = nil
		if err == nil {
			err = werr
		} else {
			err = errors.Join(err, werr)
		}
	}
	return res, err
}

// ErrCheckpoint marks a failed final checkpoint write. Run joins it with
// any context error, so an interrupted run whose state could not be
// persisted reports both; test with errors.Is.
var ErrCheckpoint = errors.New("evoprot: final checkpoint write failed")

// Resume loads a checkpoint written by this Runner's checkpoint option (or
// Snapshot) into the Runner: the next Run continues every island's
// identical stochastic trajectory for another budget of generations. The
// Runner must have been built over the same original dataset and
// attributes the checkpoint was taken against; the island count comes from
// the checkpoint.
func (r *Runner) Resume(rd io.Reader) error {
	cfg, err := r.islandsConfig()
	if err != nil {
		return err
	}
	ir, err := islands.Resume(r.eval, rd, cfg)
	if err != nil {
		return err
	}
	r.ir = ir
	// Re-anchor the checkpoint cadence to the resumed state: the next
	// periodic write is due `every` generations from here, not from
	// whatever generation this Runner had reached before.
	r.lastCkpt = ir.Generation()
	return nil
}

// Snapshot serializes the current engine states. Only valid after a Run or
// Resume, while no Run is in flight.
func (r *Runner) Snapshot(w io.Writer) error {
	if r.ir == nil {
		return fmt.Errorf("evoprot: nothing to snapshot before the first Run or Resume")
	}
	return r.ir.Snapshot(w)
}

// Best returns the best individual across islands right now: the live
// best-so-far between runs, or a resumed checkpoint's best before any
// Run. On heterogeneous runs the winner is judged — and its Score
// expressed — under the run's shared aggregation (see RunResult.Best).
// Nil before the first Run or Resume. Only valid while no Run is in
// flight.
func (r *Runner) Best() *Individual {
	if r.ir == nil {
		return nil
	}
	return r.ir.Best()
}

// Generation returns the largest per-island generation count executed so
// far (0 before the first Run or Resume).
func (r *Runner) Generation() int {
	if r.ir == nil {
		return 0
	}
	return r.ir.Generation()
}

// Islands returns the number of islands the Runner drives (after a Resume,
// the checkpoint's count).
func (r *Runner) Islands() int {
	if r.ir == nil {
		if r.opts.islands < 1 {
			if n := len(r.opts.perIsland); n > 0 {
				return n
			}
			return 1
		}
		return r.opts.islands
	}
	return r.ir.Islands()
}

// EffectiveMigration returns the migration schedule currently in force:
// the configured one before the first Run and on fixed-schedule runs, the
// adaptive controller's latest decision otherwise. Only valid while no
// Run is in flight.
func (r *Runner) EffectiveMigration() (every, migrants int) {
	if r.ir == nil {
		return r.opts.migrateEvery, r.opts.migrants
	}
	return r.ir.EffectiveMigration()
}

// TopologyByName resolves a migration-topology name: "ring" or
// "broadcast".
func TopologyByName(name string) (Topology, error) { return islands.TopologyByName(name) }

// CheckpointMeta describes a checkpoint file without resuming it.
type CheckpointMeta = islands.Meta

// PeekCheckpoint reads a checkpoint's island count and generation marker
// without rebuilding engines or touching an evaluator. Services use it to
// size the remaining budget of an interrupted job before resuming it.
func PeekCheckpoint(rd io.Reader) (CheckpointMeta, error) { return islands.Peek(rd) }

// Run is the one-call ctx-first entry point: build a Runner and execute it.
//
//	res, err := evoprot.Run(ctx, orig, attrs,
//		evoprot.WithGrid("adult"),
//		evoprot.WithGenerations(400),
//		evoprot.WithSeed(42),
//		evoprot.WithIslands(4),
//	)
func Run(ctx context.Context, orig *Dataset, attrNames []string, options ...Option) (*RunResult, error) {
	r, err := NewRunner(orig, attrNames, options...)
	if err != nil {
		return nil, err
	}
	return r.Run(ctx)
}

// WriteCheckpoint writes a snapshot of the current engine states to path
// atomically: a temp file next to the target, renamed into place only
// after a clean close (failed writes leave no partial files behind). Only
// valid after a Run or Resume, while no Run is in flight.
func (r *Runner) WriteCheckpoint(path string) error {
	if r.ir == nil {
		return fmt.Errorf("evoprot: nothing to checkpoint before the first Run or Resume")
	}
	return writeRunnerCheckpoint(r.ir, path)
}

// writeRunnerCheckpoint is WriteCheckpoint's worker, also used by the
// mid-run OnEpoch hook where the islands runner is known directly.
func writeRunnerCheckpoint(ir *islands.Runner, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := ir.Snapshot(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	// fsync before the rename: a checkpoint that exists under its final
	// name must survive power loss, not just process death.
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}
