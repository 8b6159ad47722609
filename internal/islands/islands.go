// Package islands runs the island model of parallel evolution: N core
// engines evolve copies of one initial population concurrently, each on
// its own goroutine over the shared (read-only) evaluator, and exchange
// elite individuals every MigrateEvery generations under a pluggable
// migration topology. Migration happens at a coordinator barrier — every
// island is quiescent while individuals move — so a run's outcome depends
// only on the configuration and the top-level seed, never on goroutine
// scheduling: a fixed seed reproduces the full parallel run bit for bit.
//
// Island 0 draws its random stream from the top-level seed itself, so a
// single-island run reproduces a plain core.Engine run exactly; islands
// i > 0 use seeds derived through a splitmix64 mix, giving every island an
// independent deterministic trajectory.
//
// Islands need not be identical: Config.PerIsland applies one Override
// per island to the shared engine template, so different islands can run
// different selection pressures, mutation rates, objectives or fitness
// aggregations — niched search over the risk/information-loss trade-off —
// and heterogeneous runs remain bit-reproducible from the one top-level
// seed.
package islands

import (
	"context"
	"fmt"
	"sync"

	"evoprot/internal/core"
	"evoprot/internal/score"
)

// Topology selects which islands exchange individuals at a migration
// barrier.
type Topology int

const (
	// Ring sends each island's elites to its clockwise neighbour
	// (island i receives from island i-1) — the classic stepping-stone
	// model with slow diffusion of good genes.
	Ring Topology = iota
	// Broadcast offers every island's elites to every other island —
	// fastest mixing, closest to a panmictic population.
	Broadcast
)

// String returns the topology name.
func (t Topology) String() string {
	switch t {
	case Ring:
		return "ring"
	case Broadcast:
		return "broadcast"
	default:
		return fmt.Sprintf("Topology(%d)", int(t))
	}
}

// TopologyByName resolves a topology name.
func TopologyByName(name string) (Topology, error) {
	switch name {
	case "", "ring":
		return Ring, nil
	case "broadcast", "all":
		return Broadcast, nil
	default:
		return 0, fmt.Errorf("islands: unknown topology %q (want ring|broadcast)", name)
	}
}

// Defaults for the migration schedule.
const (
	// DefaultMigrateEvery is the epoch length: generations an island
	// evolves between migration barriers.
	DefaultMigrateEvery = 25
	// DefaultMigrants is how many elite individuals each island emits per
	// migration.
	DefaultMigrants = 2
)

// Config parameterizes an island-model run. Zero values select defaults.
type Config struct {
	// Islands is the number of concurrently evolving islands. Zero means 1.
	Islands int
	// MigrateEvery is the epoch length in generations; islands synchronize
	// and exchange individuals at each multiple. Zero means
	// DefaultMigrateEvery.
	MigrateEvery int
	// Migrants is how many elite individuals each island emits per
	// migration. Zero means DefaultMigrants; negative is rejected.
	Migrants int
	// Topology selects the exchange pattern.
	Topology Topology
	// Engine is the per-island engine configuration template: every island
	// starts from it, with any PerIsland override overlaid on top.
	// Engine.Seed is the top-level run seed — island 0 uses it verbatim,
	// later islands derive theirs with IslandSeed. Engine.Generations is
	// each island's budget for one Run call. Progress flows through
	// OnEvent, which carries the island id.
	Engine core.Config
	// PerIsland optionally specializes islands: entry i is applied to the
	// Engine template for island i (see Override). Empty means every
	// island runs the template — the homogeneous model, bit-identical to a
	// run with all-empty overrides. When non-empty the length must equal
	// Islands.
	PerIsland []Override
	// OnEvent, when non-nil, receives every island's per-generation
	// statistics plus a final Done event per island. Calls are serialized
	// across islands (never concurrent) but interleave island order
	// non-deterministically; per-island order is ascending.
	OnEvent func(Event)
	// OnEpoch, when non-nil, is called on the coordinator goroutine at
	// every migration barrier and once before Run returns. All islands are
	// quiescent during the call, so Runner.Snapshot is safe inside it —
	// the checkpointing hook.
	OnEpoch func(*Runner)
	// Barrier executes island epochs and rendezvouses them (see
	// EpochBarrier). Nil selects InProcessBarrier — goroutines of this
	// process, the historical behavior bit for bit. A conforming barrier
	// never changes a run's trajectory, only where the epochs execute;
	// it survives Snapshot/Resume by riding this Config into Resume.
	Barrier EpochBarrier
	// FirstSeq is the sequence number assigned to the feed's first event —
	// the numbering origin. A service that resumes a checkpointed run and
	// has already delivered n events passes n, so the resumed feed
	// continues its predecessor's offset space and replay offsets stay
	// stable across restarts.
	FirstSeq uint64
}

// resolve applies the defaults, validates the configuration and returns
// it together with every island's engine configuration: the template with
// the island's override applied and the island's derived seed.
func (c Config) resolve() (Config, []core.Config, error) {
	if c.Islands == 0 {
		c.Islands = 1
	}
	if c.Islands < 1 {
		return c, nil, fmt.Errorf("islands: Islands must be positive, got %d", c.Islands)
	}
	if c.MigrateEvery == 0 {
		c.MigrateEvery = DefaultMigrateEvery
	}
	if c.MigrateEvery < 1 {
		return c, nil, fmt.Errorf("islands: MigrateEvery must be positive, got %d", c.MigrateEvery)
	}
	if c.Migrants == 0 {
		c.Migrants = DefaultMigrants
	}
	if c.Migrants < 0 {
		return c, nil, fmt.Errorf("islands: Migrants must be non-negative, got %d", c.Migrants)
	}
	switch c.Topology {
	case Ring, Broadcast:
	default:
		return c, nil, fmt.Errorf("islands: unknown topology %v", c.Topology)
	}
	if err := c.Engine.Validate(); err != nil {
		return c, nil, err
	}
	if c.Barrier == nil {
		c.Barrier = InProcessBarrier{}
	}
	if len(c.PerIsland) != 0 && len(c.PerIsland) != c.Islands {
		return c, nil, fmt.Errorf("islands: PerIsland carries %d overrides for %d islands", len(c.PerIsland), c.Islands)
	}
	cfgs := make([]core.Config, c.Islands)
	for i := range cfgs {
		ec := c.Engine
		if len(c.PerIsland) > 0 {
			var err error
			if ec, err = c.PerIsland[i].apply(ec); err != nil {
				return c, nil, fmt.Errorf("islands: PerIsland[%d]: %w", i, err)
			}
		}
		ec.Seed = IslandSeed(c.Engine.Seed, i)
		cfgs[i] = ec
	}
	return c, cfgs, nil
}

// Validate checks the configuration — schedule, topology, engine template,
// per-island overrides — exactly the way New would,
// without building anything. Services run it at job admission so a bad
// heterogeneous spec is rejected before any evaluation work happens.
func (c Config) Validate() error {
	_, _, err := c.resolve()
	return err
}

// Event is one entry of the streamed progress feed: a generation's
// statistics tagged with the island that produced it, or — when Done is
// set — an island's final summary with its stop reason.
type Event struct {
	// Seq is the event's position in the run's feed, assigned in emission
	// order starting at Config.FirstSeq. Replayable event logs use it as
	// the stable per-run offset.
	Seq uint64
	// Island is the 0-based island id; -1 on runner-level events injected
	// through Emit.
	Island int
	// Stats is the generation's record (for Done events, a summary
	// snapshot of the island's final population; zero on runner-level
	// events).
	Stats core.GenStats
	// Done marks the island's last event.
	Done bool
	// Stop is the island's stop reason; set only on Done events.
	Stop core.StopReason
	// Err carries a non-fatal runner-level error surfaced through the
	// feed — e.g. a failed mid-run checkpoint write. The run itself
	// continues; fatal errors still arrive through Run's return value.
	Err string `json:",omitempty"`
}

// Result is the outcome of an island-model run.
type Result struct {
	// Best is the best individual across all islands, judged under the
	// run's shared aggregation (the Engine template's, or the evaluator's
	// when the template names none): heterogeneous islands score their own
	// populations under their own aggregators, so cross-island comparison
	// re-combines each island winner's (IL, DR) pair on the one shared
	// scale. Best.Eval.Score carries that shared-scale value; the owning
	// island's original wrapper remains at Islands[BestIsland].Best. On
	// homogeneous runs the re-combination reproduces the identical score
	// bit for bit.
	Best *core.Individual
	// BestIsland is the island that produced Best (lowest id on ties).
	BestIsland int
	// Islands holds each island's own result, indexed by island id.
	Islands []*core.Result
	// Generations is the largest per-island generation count executed.
	Generations int
	// Evaluations counts the fitness evaluations actually performed across
	// the run: the shared initial evaluation once, plus every island's
	// offspring evaluations.
	Evaluations int
	// Migrations counts migrants accepted by receiving islands.
	Migrations int
	// StopReason summarizes the run: cancelled/deadline when the context
	// ended it, stagnated when every island stopped on its
	// NoImprovementWindow, completed otherwise.
	StopReason core.StopReason
}

// Runner coordinates one island-model optimization. Build with New (or
// Resume), call Run; a Runner is not safe for concurrent use, and Snapshot
// may only be called while the islands are quiescent (between runs or
// inside OnEpoch).
type Runner struct {
	cfg       Config
	engines   []*core.Engine
	perIsland []core.Config // resolved per-island engine configs, index by island id
	agg       score.Aggregator
	popSize   int

	emitMu sync.Mutex // serializes OnEvent calls and seq
	seq    uint64     // next event sequence number, starts at cfg.FirstSeq

	// Per-run coordinator state, reset at the top of Run. The slices are
	// written from island goroutines at disjoint indices and read by the
	// coordinator only after the epoch barrier.
	executed     []int
	sinceImprove []int
	done         []bool
	stops        []core.StopReason
	migrations   int
}

// IslandSeed derives island i's engine seed from the top-level run seed.
// Island 0 keeps the seed itself, so a single-island run reproduces the
// plain core.Engine trajectory bit for bit; later islands mix the seed and
// their id through the splitmix64 finalizer.
func IslandSeed(seed uint64, i int) uint64 {
	if i == 0 {
		return seed
	}
	z := seed + uint64(i)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// New builds a runner: the initial population is evaluated (and
// delta-prepared) once and fanned out to cfg.Islands engines with derived
// seeds. The context bounds that initial evaluation, so cancellation
// works during startup as well as between generations.
func New(ctx context.Context, eval *score.Evaluator, initial []*core.Individual, cfg Config) (*Runner, error) {
	c, cfgs, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	engines, err := core.NewEngines(ctx, eval, initial, cfgs)
	if err != nil {
		return nil, err
	}
	return &Runner{
		cfg: c, engines: engines, perIsland: cfgs, agg: runAggregator(eval, c), popSize: len(initial),
		seq: c.FirstSeq,
	}, nil
}

// runAggregator resolves the run's shared aggregation — the judging
// metric for cross-island comparison: the Engine template's named
// aggregator when set, the evaluator's otherwise. The name was validated
// by resolve; resolution cannot fail here.
func runAggregator(eval *score.Evaluator, c Config) score.Aggregator {
	if c.Engine.Aggregator != "" {
		if agg, err := score.AggregatorByName(c.Engine.Aggregator); err == nil {
			return agg
		}
	}
	return eval.Aggregator()
}

// Islands returns the number of islands.
func (r *Runner) Islands() int { return len(r.engines) }

// Generation returns the largest per-island generation count — the
// checkpoint cadence marker.
func (r *Runner) Generation() int {
	max := 0
	for _, e := range r.engines {
		if g := e.Generation(); g > max {
			max = g
		}
	}
	return max
}

// Best returns the best individual across islands right now, judged
// under the run's shared aggregation (see Result.Best): the returned
// wrapper is a copy whose Score carries the shared-scale value, so
// heterogeneous islands compare on one metric. Only valid while the
// islands are quiescent.
func (r *Runner) Best() *core.Individual {
	best, _ := r.bestAcross()
	return best
}

// bestAcross picks the cross-island winner under the run's shared
// aggregation, returning a presentation copy (Score re-combined on the
// shared scale; bit-identical on homogeneous runs) and the owning
// island's id (lowest on ties).
func (r *Runner) bestAcross() (*core.Individual, int) {
	var (
		best      *core.Individual
		bestIdx   int
		bestScore float64
	)
	for i, e := range r.engines {
		b := e.Best()
		s := r.agg.Combine(b.Eval.IL, b.Eval.DR)
		if best == nil || s < bestScore {
			best, bestIdx, bestScore = b, i, s
		}
	}
	out := *best
	out.Eval.Score = bestScore
	return &out, bestIdx
}

// Run executes the island model under ctx: epochs of MigrateEvery
// generations on one goroutine per island, a migration barrier between
// epochs, until every island exhausts its budget or stagnates, or the
// context ends the run. On cancellation the partial result is returned
// together with the context's error; work already done is never discarded.
func (r *Runner) Run(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(r.engines)
	r.executed = make([]int, n)
	r.sinceImprove = make([]int, n)
	r.done = make([]bool, n)
	r.stops = make([]core.StopReason, n)
	r.migrations = 0

	var runErr error
	for runErr == nil {
		if err := ctx.Err(); err != nil {
			runErr = err
			break
		}
		active := make([]int, 0, n)
		for i := range r.done {
			if !r.done[i] {
				active = append(active, i)
			}
		}
		if len(active) == 0 {
			break
		}
		// The barrier owns epoch execution: every active island goes
		// through its epoch (in-process goroutines by default, remote
		// workers for a distributed barrier) and is quiescent again when
		// RunEpoch returns. A barrier failure ends the run like a
		// cancellation — work already done is kept.
		if err := r.cfg.Barrier.RunEpoch(ctx, active, func(i int) { r.runEpoch(ctx, i) }); err != nil {
			runErr = err
			break
		}
		if err := ctx.Err(); err != nil {
			runErr = err
			break
		}
		r.migrate()
		if r.cfg.OnEpoch != nil {
			r.cfg.OnEpoch(r)
		}
	}

	if runErr != nil && ctx.Err() != nil {
		r.alignActive(ctx)
	}
	reason := core.StopCompleted
	if runErr != nil {
		reason = core.StopReasonForContext(runErr)
		for i := range r.engines {
			if !r.done[i] {
				r.done[i] = true
				r.stops[i] = reason
				r.emit(Event{Island: i, Stats: r.engines[i].Stats(), Done: true, Stop: reason})
			}
		}
	} else {
		allStagnated := true
		for _, s := range r.stops {
			if s != core.StopStagnated {
				allStagnated = false
				break
			}
		}
		if allStagnated {
			reason = core.StopStagnated
		}
	}
	if r.cfg.OnEpoch != nil && runErr != nil {
		r.cfg.OnEpoch(r)
	}

	res := &Result{Islands: make([]*core.Result, n), StopReason: reason, Migrations: r.migrations}
	for i, e := range r.engines {
		ir := e.MakeResult(r.stops[i])
		res.Islands[i] = ir
		res.Evaluations += ir.Evaluations
		if ir.Generations > res.Generations {
			res.Generations = ir.Generations
		}
	}
	res.Best, res.BestIsland = r.bestAcross()
	// Each island's Evaluations counter includes the initial population,
	// which was evaluated once and shared; count it once.
	res.Evaluations -= (n - 1) * r.popSize
	return res, runErr
}

// runEpoch advances island i by up to one migration interval, honouring
// the remaining budget, the context, and the island's own stagnation
// window. It runs on the island's goroutine and touches only index i of
// the coordinator slices.
func (r *Runner) runEpoch(ctx context.Context, i int) {
	e := r.engines[i]
	steps := r.cfg.MigrateEvery
	if remaining := e.MaxGenerations() - r.executed[i]; steps > remaining {
		steps = remaining
	}
	for s := 0; s < steps; s++ {
		if ctx.Err() != nil {
			return
		}
		if r.step(i) {
			return
		}
	}
	if r.executed[i] >= e.MaxGenerations() {
		r.finish(i, core.StopCompleted)
	}
}

// step advances island i by one generation and reports whether the
// island stagnated, which finishes it.
func (r *Runner) step(i int) bool {
	gs := r.engines[i].Step()
	r.executed[i]++
	if gs.Improved {
		r.sinceImprove[i] = 0
	} else {
		r.sinceImprove[i]++
	}
	r.emit(Event{Island: i, Stats: gs})
	if window := r.perIsland[i].NoImprovementWindow; window > 0 && r.sinceImprove[i] >= window {
		r.finish(i, core.StopStagnated)
		return true
	}
	return false
}

// alignActive runs after a cancellation. Each island notices the
// cancellation between its own generations, so the active islands stop
// mid-epoch having run unequal numbers of generations; alignActive
// advances the laggards to the leader's count (within the epoch, so
// usually by a generation or none). Islands that started the Run aligned
// end it aligned, as at a barrier, and a checkpoint of the run resumes
// every island to exactly its budget instead of carrying the leaders
// past it.
func (r *Runner) alignActive(ctx context.Context) {
	target := 0
	for i, done := range r.done {
		if !done {
			target = max(target, r.executed[i])
		}
	}
	var lag []int
	for i, done := range r.done {
		if !done && r.executed[i] < target {
			lag = append(lag, i)
		}
	}
	if len(lag) == 0 {
		return
	}
	// The catch-up is bounded by one epoch, so it runs to completion even
	// though the context has ended; the barrier's own error would only
	// repeat the cancellation already being reported.
	_ = r.cfg.Barrier.RunEpoch(context.WithoutCancel(ctx), lag, func(i int) {
		e := r.engines[i]
		for r.executed[i] < min(target, e.MaxGenerations()) {
			if r.step(i) {
				return
			}
		}
		if r.executed[i] >= e.MaxGenerations() {
			r.finish(i, core.StopCompleted)
		}
	})
}

// finish marks island i done and emits its Done event.
func (r *Runner) finish(i int, reason core.StopReason) {
	r.done[i] = true
	r.stops[i] = reason
	r.emit(Event{Island: i, Stats: r.engines[i].Stats(), Done: true, Stop: reason})
}

// Emit injects a runner-level event into the feed, serialized with the
// islands' own emissions and numbered in sequence. Intended for OnEpoch
// hooks that need to surface side-channel conditions — a failed
// checkpoint write, say — to the run's observers; set Island to -1 on
// injected events so consumers can tell them from island traffic.
func (r *Runner) Emit(ev Event) { r.emit(ev) }

// emit delivers one event to the callback feed, serialized
// across islands. With no feed attached it is free: sequence numbers
// only exist to order a feed someone observes, and the config is fixed
// at construction, so a listener cannot appear mid-run.
func (r *Runner) emit(ev Event) {
	if r.cfg.OnEvent == nil {
		return
	}
	r.emitMu.Lock()
	defer r.emitMu.Unlock()
	ev.Seq = r.seq
	r.seq++
	r.cfg.OnEvent(ev)
}

// migrate performs one barrier exchange: every island's elites are
// collected first (so an individual cannot hop two islands in one
// exchange), then offered to the receivers the topology names. Runs on the
// coordinator goroutine while every island is quiescent; iteration order
// is fixed, keeping the run deterministic. A migration that improves a
// receiving island's best resets its stagnation window.
func (r *Runner) migrate() {
	n := len(r.engines)
	if n < 2 || r.cfg.Migrants == 0 {
		return
	}
	emig := make([][]*core.Individual, n)
	for i, e := range r.engines {
		emig[i] = e.Emigrants(r.cfg.Migrants)
	}
	// Done islands still receive: they no longer evolve, but accepting
	// elites keeps the barrier state identical whether an island's budget
	// ends at this barrier or later — the property that makes a snapshot
	// taken here resume onto the uninterrupted run's trajectory.
	for dst := range r.engines {
		var incoming []*core.Individual
		switch r.cfg.Topology {
		case Broadcast:
			for src := range r.engines {
				if src != dst {
					incoming = append(incoming, emig[src]...)
				}
			}
		default: // Ring
			incoming = emig[(dst-1+n)%n]
		}
		before := r.engines[dst].Best().Eval.Score
		acc := r.engines[dst].Immigrate(incoming)
		r.migrations += acc
		if acc > 0 && r.engines[dst].Best().Eval.Score < before {
			r.sinceImprove[dst] = 0
		}
	}
}
