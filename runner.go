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

	"evoprot/internal/core"
	"evoprot/internal/experiment"
	"evoprot/internal/infoloss"
	"evoprot/internal/islands"
	"evoprot/internal/score"
	"evoprot/internal/storage"
)

// Re-exported island-model types.
type (
	// Event is one entry of a run's streamed progress feed: a generation's
	// statistics tagged with the island that produced it, or an island's
	// final Done summary with its stop reason.
	Event = islands.Event
	// Topology selects which islands exchange individuals when migrating.
	Topology = islands.Topology
	// RunResult is the outcome of a Runner.Run: the best individual across
	// islands plus every island's own Result.
	RunResult = islands.Result
	// StopReason records why a run ended.
	StopReason = core.StopReason
	// IslandConfig overrides the run's engine settings for one island of
	// a heterogeneous run: set fields replace the shared setting for that
	// island, empty ones inherit it, and a named policy — the default's
	// included — replaces the shared policy. It is the JSON shape of
	// JobSpec.PerIsland and what a checkpoint records, so the same
	// overrides travel through the evoprotd wire format and survive a
	// resume.
	IslandConfig = islands.Override
	// ParetoRef is the wire shape of a hypervolume reference point: the
	// worst corner of the (IL, DR) box hypervolume is measured against.
	// Both components must be finite and positive.
	ParetoRef = islands.ParetoRef
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

// runnerOptions collects what the functional options configure: the
// run's JobSpec, which every option with a spec field writes, plus only
// what a spec cannot carry — seed protections, a custom Aggregator
// value, the event hook, the checkpoint sink and cadence and the feed's
// first sequence number.
type runnerOptions struct {
	spec            JobSpec
	seeds           []*Dataset
	aggregator      Aggregator
	onEvent         func(Event)
	checkpointSink  func(snapshot []byte) error
	checkpointEvery int
	firstSeq        uint64
}

// Option configures a Runner. Options with a JobSpec counterpart set that
// spec field; zero/omitted options select the paper's defaults (400
// generations, max aggregation, a single island).
type Option func(*runnerOptions)

// WithGrid seeds the initial population from a paper masking grid:
// "housing", "german", "flare" or "adult". One of WithGrid / WithSeeds is
// required.
func WithGrid(name string) Option { return func(o *runnerOptions) { o.spec.Grid = name } }

// WithSeeds supplies a ready-made initial population of masked datasets
// (at least 2); overrides WithGrid.
func WithSeeds(seeds ...*Dataset) Option { return func(o *runnerOptions) { o.seeds = seeds } }

// WithAggregator selects the fitness aggregation by name: "mean" (Eq. 1),
// "max" (Eq. 2, default), "euclidean", or "weighted:<w>".
func WithAggregator(name string) Option { return func(o *runnerOptions) { o.spec.Aggregator = name } }

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
func WithObjective(name string) Option { return func(o *runnerOptions) { o.spec.Objective = name } }

// WithParetoRef sets the hypervolume reference point of Pareto-mode runs:
// the worst corner of the (IL, DR) box fronts are measured against. Both
// components must be finite and positive; the zero value selects the
// (100, 100) corner of the measures' natural range.
func WithParetoRef(il, dr float64) Option {
	return func(o *runnerOptions) { o.spec.ParetoRef = &ParetoRef{IL: il, DR: dr} }
}

// WithMLUtility appends a machine-learning-utility measure to the
// information-loss battery: a naive Bayes proxy classifier predicting the
// named target attribute, scoring the held-out accuracy drop of a model
// trained on the protected file instead of the original. The target may
// be any schema attribute; when it is itself protected it is excluded
// from the classifier's features. Like the rest of the battery, the
// measure keeps an incremental state: an offspring costs time in
// proportion to the held-out rows its edit can re-classify.
func WithMLUtility(target string) Option { return func(o *runnerOptions) { o.spec.MLTarget = target } }

// WithGenerations sets each island's evolution budget per Run call (0
// selects the paper's 400).
func WithGenerations(n int) Option { return func(o *runnerOptions) { o.spec.Generations = n } }

// WithSeed fixes the top-level run seed; a fixed seed reproduces the full
// run — islands, migrations and all — bit for bit.
func WithSeed(seed uint64) Option { return func(o *runnerOptions) { o.spec.Seed = seed } }

// WithWorkers parallelizes initial-population evaluation (0 = sequential)
// and, at 2 or more, scores a crossover's two children concurrently.
// Results are identical at any width — only wall-clock changes.
func WithWorkers(n int) Option { return func(o *runnerOptions) { o.spec.Workers = n } }

// WithEarlyStop stops an island after window stagnant generations
// (0 = disabled).
func WithEarlyStop(window int) Option { return func(o *runnerOptions) { o.spec.EarlyStop = window } }

// WithSelection names the reproduction-selection policy
// ("inverse-proportional" default, "raw-proportional", "rank", "uniform").
func WithSelection(name string) Option { return func(o *runnerOptions) { o.spec.Selection = name } }

// WithIslands evolves n islands concurrently, exchanging elites under the
// configured migration schedule (0 or 1 = a single island).
func WithIslands(n int) Option { return func(o *runnerOptions) { o.spec.Islands = n } }

// WithMigration sets the migration schedule: islands synchronize every
// `every` generations and each emits `migrants` elites (zeros select the
// defaults of 25 and 2).
func WithMigration(every, migrants int) Option {
	return func(o *runnerOptions) { o.spec.MigrateEvery, o.spec.Migrants = every, migrants }
}

// WithTopology selects the migration topology (Ring default, Broadcast).
func WithTopology(t Topology) Option { return func(o *runnerOptions) { o.spec.Topology = t.String() } }

// WithPerIsland specializes islands: override i applies to island i on
// top of the run's shared configuration (empty fields inherit, set fields
// and named policies replace), so different islands can run different
// selection pressures, mutation rates, objectives or fitness
// aggregations. The override count must equal the island count; without
// WithIslands it implies one island per override. All-empty overrides
// reproduce the homogeneous run bit for bit.
func WithPerIsland(overrides ...IslandConfig) Option {
	return func(o *runnerOptions) { o.spec.PerIsland = overrides }
}

// WithProgress streams every generation's statistics (and one Done event
// per island) to fn. Calls are serialized, never concurrent.
func WithProgress(fn func(Event)) Option { return func(o *runnerOptions) { o.onEvent = fn } }

// WithCheckpoint writes engine snapshots to path at every migration
// barrier once at least `every` generations have passed since the last
// write, and once when the run ends, whatever ended it. It is
// WithCheckpointSink over storage.WriteFile, so every write is atomic and
// durable and path's directory must exist; of the two options, the last
// one given wins. Resume a checkpoint with Runner.Resume.
func WithCheckpoint(path string, every int) Option {
	return WithCheckpointSink(func(snapshot []byte) error { return storage.WriteFile(path, snapshot) }, every)
}

// WithCheckpointSink is WithCheckpoint for runs whose checkpoints do not
// live on a private filesystem path: every checkpoint is serialized and
// handed to write, which owns atomicity and durability (a storage.Store's
// Put, an object-store upload, ...). The cadence contract matches
// WithCheckpoint: a write at every migration barrier once `every`
// generations have passed since the last one, plus a final write when the
// run ends. Both options set the one checkpoint sink, so the last one
// given wins.
func WithCheckpointSink(write func(snapshot []byte) error, every int) Option {
	return func(o *runnerOptions) { o.checkpointSink, o.checkpointEvery = write, every }
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
	// The spec's run-field check — the one JobSpec.Validate runs at
	// admission — validates every name and count and the whole island
	// configuration, so a bad setup fails here instead of after the
	// initial population was paid for.
	if _, err := o.spec.islandsConfig(); err != nil {
		return nil, err
	}
	agg := o.aggregator
	if agg == nil && o.spec.Aggregator != "" {
		agg, _ = AggregatorByName(o.spec.Aggregator) // checked above
	}
	scoreCfg := score.Config{Aggregator: agg}
	if o.spec.MLTarget != "" {
		target, err := orig.Schema().Indices(o.spec.MLTarget)
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
	case o.spec.Grid == "":
		return nil, fmt.Errorf("evoprot: need seed protections (WithSeeds) or a masking grid (WithGrid)")
	}
	return &Runner{orig: orig, attrs: attrs, eval: eval, opts: o}, nil
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
	return experiment.BuildPopulation(r.orig, r.attrs, r.opts.spec.Grid, r.opts.spec.Seed)
}

// islandsConfig is the spec's islands.Config plus the runtime hooks a
// spec cannot carry: the event feed and the checkpoint cadence.
func (r *Runner) islandsConfig() (islands.Config, error) {
	cfg, err := r.opts.spec.islandsConfig()
	if err != nil {
		return islands.Config{}, err
	}
	cfg.OnEvent = r.opts.onEvent
	cfg.FirstSeq = r.opts.firstSeq
	if r.opts.checkpointSink != nil {
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
				if err := r.writeCheckpoint(ir); err != nil {
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

// writeCheckpoint serializes the islands runner's engine states and
// hands them to the checkpoint sink.
func (r *Runner) writeCheckpoint(ir *islands.Runner) error {
	var buf bytes.Buffer
	if err := ir.Snapshot(&buf); err != nil {
		return err
	}
	return r.opts.checkpointSink(buf.Bytes())
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
	if res != nil && r.opts.checkpointSink != nil {
		// Persist the final state — best-so-far on interruption included —
		// without letting a write failure vanish behind a cancellation.
		if werr := r.writeCheckpoint(r.ir); werr != nil {
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

// Resume loads a checkpoint written by a checkpoint option (or Snapshot)
// into the Runner: the next Run continues every island's identical
// stochastic trajectory for another budget of generations. The Runner
// must have been built over the same original dataset and attributes the
// checkpoint was taken against; the island count comes from the
// checkpoint.
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
		return r.opts.spec.islandCount()
	}
	return r.ir.Islands()
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
