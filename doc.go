// Package evoprot is an evolutionary optimizer for categorical data
// protection: it reproduces, as a reusable Go library, the system of
// Marés & Torra, "An Evolutionary Optimization Approach for Categorical
// Data Protection" (PAIS/EDBT 2012).
//
// # What it does
//
// Statistical agencies publish categorical microdata after masking it.
// Every masking trades information loss (IL — how much analytic structure
// the masked file loses) against disclosure risk (DR — how many records an
// intruder can still re-identify). evoprot takes a population of masked
// versions of one file — produced by classic methods such as
// microaggregation, rank swapping, PRAM, global recoding and top/bottom
// coding — and evolves them with a genetic algorithm whose fitness
// aggregates IL and DR, producing protections with a better trade-off than
// any seed.
//
// # Quick start
//
// The primary entry point is the context-aware Runner API: Run (or
// NewRunner + Runner.Run) with functional options. Cancellation and
// deadlines are honoured between generations, and an interrupted run still
// returns its best-so-far result with the stop reason recorded.
//
//	orig, _ := evoprot.GenerateDataset("adult", 0, 42)      // or LoadCSV
//	attrs, _ := evoprot.ProtectedAttributes("adult")        // EDUCATION, MARITAL-STATUS, OCCUPATION
//	res, _ := evoprot.Run(ctx, orig, attrs,
//		evoprot.WithGrid("adult"),                          // seed the paper's masking grid
//		evoprot.WithAggregator("max"),                      // Eq. 2: Score = max(IL, DR)
//		evoprot.WithGenerations(400),
//		evoprot.WithSeed(42),
//	)
//	best := res.Best
//	fmt.Printf("best protection: IL=%.2f DR=%.2f score=%.2f (stop: %s)\n",
//		best.Eval.IL, best.Eval.DR, best.Eval.Score, res.StopReason)
//
// Lower scores are better; 0 would be a protection that loses nothing and
// discloses nothing.
//
// A run has one description, JobSpec: each option above sets one of its
// fields (WithGrid sets Grid, WithGenerations sets Generations, ...), so
// the options, the evoprotd wire format and the cmd/evoprot flags are
// three ways to fill the same struct and are validated by the same check.
//
// # Island-model parallel evolution
//
// WithIslands(n) evolves n islands concurrently — one engine per
// goroutine over the shared evaluator — exchanging elite individuals every
// WithMigration(every, migrants) generations under a Ring or Broadcast
// topology. Island 0 uses the top-level seed verbatim (a 1-island run is
// bit-identical to a plain engine run); islands i > 0 derive independent
// seeds, and migration happens at coordinator barriers, so a fixed seed
// reproduces the full parallel run deterministically regardless of
// scheduling. Progress streams as Events to a callback (WithProgress),
// carrying the island id, and one Done event per island carries its stop
// reason. Multi-island checkpoints persist every
// island's engine state: WithCheckpoint writes them to a file atomically
// and durably (internal/storage.WriteFile, the same writer as the
// service's filesystem store), WithCheckpointSink hands their bytes to
// any sink, and Runner.Resume loads one. Checkpoints written by this
// build carry core snapshot version 3, which packs each individual's
// protected cells into one base64 byte string (a byte per cell, or four
// when a protected domain exceeds 256 categories); checkpoints with
// version-2 engines, whose cells are JSON integers, still resume.
//
//	res, _ := evoprot.Run(ctx, orig, attrs,
//		evoprot.WithGrid("flare"),
//		evoprot.WithIslands(4),
//		evoprot.WithMigration(25, 2),
//		evoprot.WithTopology(evoprot.Ring),
//		evoprot.WithProgress(func(ev evoprot.Event) {
//			log.Printf("island %d gen %d best %.2f", ev.Island, ev.Stats.Gen, ev.Stats.Min)
//		}),
//	)
//
// See examples/quickstart and examples/islands for runnable tours.
//
// # Heterogeneous islands
//
// Islands need not run identical engines. WithPerIsland applies one
// IslandConfig per island — selection policy, crowding, mutation rate,
// leader fraction, objective, even a per-island fitness aggregation — to
// the shared configuration: empty fields inherit it, set fields replace
// it, and a named policy replaces the shared one even when it names the
// default. So exploitative and explorative searches, or islands
// optimizing different points of the risk/information-loss trade-off,
// run side by side while migration exchanges protections across the
// biases. Migrants are re-scored under
// the receiving island's aggregation on arrival. Every island crosses
// with the paper's 2-point crossover.
//
//	res, _ := evoprot.Run(ctx, orig, attrs,
//		evoprot.WithGrid("flare"),
//		evoprot.WithPerIsland(
//			evoprot.IslandConfig{},
//			evoprot.IslandConfig{MutationRate: 0.6, Selection: "rank"},
//			evoprot.IslandConfig{Aggregator: "mean"},
//			evoprot.IslandConfig{MutationRate: 0.75, Selection: "uniform"},
//		),
//		evoprot.WithMigration(25, 2),
//		evoprot.WithTopology(evoprot.Broadcast),
//	)
//
// Heterogeneity never costs reproducibility: every migration happens at
// a quiescent barrier, so one top-level seed still reproduces the whole
// run bit for bit — a property a dedicated determinism/equivalence
// harness pins down (all-equal overrides reproduce the homogeneous
// trajectory exactly; one island equals a plain engine under the
// shared config with its override applied; barrier snapshots resume onto
// the uninterrupted trajectory, per-island overrides included). One type
// carries an override everywhere: IslandConfig is islands.Override, the
// JSON shape of the JobSpec field PerIsland that the option sets and
// cmd/evoprot's -per-island fills, and what a checkpoint records.
//
// # Pareto mode: true multi-objective search
//
// The paper scalarizes the IL/DR trade-off through an aggregator before
// selection ever sees it. WithObjective("pareto") keeps both objectives:
// selection and replacement run NSGA-II-style — non-dominated sorting
// with crowding-distance tie-breaks over raw (IL, DR) pairs — so a
// single run evolves a whole front of trade-offs instead of one
// compromise point. With two objectives the sort is an O(n log n) sweep,
// run once per generation over population + offspring; it also yields
// the generation's front already in order. Each generation's GenStats
// (and every streamed Event) carries a FrontStats payload: the first
// front's (IL, DR) pairs and its hypervolume against the reference point
// (WithParetoRef; defaults to DefaultParetoRef, components must be finite
// and positive). Each island's Result.Front summarizes its final
// population, migrants accepted after the last generation included.
// Scalar runs are byte-for-byte unaffected — the payload is omitted from
// their JSON — and Pareto mode keeps every determinism guarantee:
// fixed-seed runs, snapshots and resumed runs reproduce fronts bit for
// bit, which a kill-and-restart harness pins down at the service level.
//
//	res, _ := evoprot.Run(ctx, orig, attrs,
//		evoprot.WithGrid("flare"),
//		evoprot.WithObjective("pareto"),
//		evoprot.WithParetoRef(120, 120),
//	)
//	front := res.Islands[0].Front
//	fmt.Printf("%d trade-offs, hypervolume %.1f\n", front.Size, front.Hypervolume)
//
// The options set JobSpec's "objective" and "pareto_ref" fields, which
// travel on the wire, and evoprotd's job result reports the final front
// with its hypervolume; cmd/evoprot fills them from -objective and
// -pareto-ref and renders the front as a scatter plot (RenderFront).
// Per-island Objective overrides compose with heterogeneity — a
// per-island {"objective": "pareto"} runs scalarized and Pareto islands
// side by side, migrants re-scored under the receiving island's objective —
// and WithMLUtility(target) appends a machine-learning-utility measure
// to the information-loss battery (a naive-Bayes proxy classifier's
// accuracy drop on the protected data), so the front can trade direct
// analytic utility against disclosure risk.
//
// # Running as a service
//
// cmd/evoprotd serves optimizations as HTTP jobs for parameter sweeps and
// batch protection workloads: POST a JobSpec — the run description the
// options above fill, as JSON, with the original dataset named
// (built-ins), inlined as CSV, or referenced by server-side path — and
// the daemon queues it
// onto a bounded worker pool. Per-generation Events stream from
// GET /v1/jobs/{id}/events as NDJSON or SSE, replayable from any offset
// (each event's Seq is its stable position in the feed); the terminal
// result — trajectory, summary and the protected dataset — comes from
// GET /v1/jobs/{id}/result, and DELETE cancels a job while keeping its
// partial result. Jobs checkpoint into the server's store as they
// evolve, so a restarted daemon resumes interrupted jobs from their
// last snapshot with only their remaining generation budget: a graceful
// shutdown loses nothing, a hard crash at most one checkpoint interval.
//
// Persistence, queueing and epoch execution are seams, not wiring. The
// service reads and writes everything — specs, datasets, event feeds,
// checkpoints, results — through a small storage interface
// (internal/storage.Store) with two built-in backends: the filesystem
// store (the historical data-dir layout, byte for byte, with fsync'd
// atomic writes) and an in-memory store for tests and throwaway
// daemons, selected by evoprotd's -store flag ("fs:<dir>" or "mem").
// The island model's epoch rendezvous is likewise a pluggable
// islands.EpochBarrier whose contract guarantees any conforming
// execution — serial, parallel, or on remote workers — reproduces the
// identical run bit for bit, and the bounded priority
// admission queue (serve.JobQueue) can be shared with a coordinator that
// drains it through leases. Together they are the seams a distributed
// deployment slots into without touching handler or coordinator logic.
//
// The distributed deployment exists: evoprotd -role coordinator runs
// admission, queue and store as one process, and evoprotd -role worker
// processes lease queued jobs from it over HTTP (internal/cluster).
// Leases carry a TTL and a fencing token; the coordinator re-exports
// its Store over HTTP and rejects writes from any lease but the
// current one, so a dead worker's job re-queues, resumes from its last
// checkpoint on another worker, and still reproduces the single-node
// run bit for bit — worker death costs at most one checkpoint
// interval, exactly like a standalone hard crash.
//
// The pieces compose from this package: JobSpec.Materialize loads a
// spec's dataset and JobSpec.Options installs the spec on a Runner (the
// options set spec fields, so nothing is translated), WithFirstEventSeq keeps
// event offsets contiguous across restarts, PeekCheckpoint sizes a
// resumed job's remaining budget, WithCheckpointSink routes checkpoint
// bytes to any store, and Runner.Best exposes a resumed checkpoint's
// best without running. See internal/serve for the service
// implementation, cmd/evoprotd/README.md for the wire reference, and
// examples/client for a complete API client.
//
// # Architecture
//
// The facade re-exports the implementation packages:
//
//   - internal/dataset — categorical microdata model and CSV I/O
//   - internal/datagen — synthetic stand-ins for the paper's UCI datasets
//   - internal/protection — the six masking methods and parameter grids
//   - internal/infoloss — CTBIL, DBIL, EBIL, ML-utility information-loss measures
//   - internal/risk — ID, DBRL, PRL, RSRL disclosure-risk measures
//   - internal/score — fitness evaluation and the mean/max aggregators
//   - internal/pareto — dominance, fronts and hypervolume
//   - internal/core — the genetic algorithm itself (ctx-first Engine.Run)
//   - internal/islands — the island-model coordinator
//   - internal/experiment — the paper's experiments 1–3 as a harness
//
// # Incremental (delta) evaluation
//
// The paper's timing table (§3.2) shows fitness evaluation dominating run
// time, yet each mutation changes a single cell and each crossover a gene
// window. The engine therefore scores offspring incrementally, through
// one route. Measures implementing the one delta-state contract,
// measure.Reversible in internal/measure, precompute a per-individual
// State (contingency tables, distance sums, transition matrices,
// nearest-neighbour, agreement-pattern and rank-window caches) and patch
// it per changed cell. The whole default battery is reversible — CTBIL,
// DBIL, EBIL, ID, DBRL, PRL and RSRL; the rank-window linkage patches its
// category frequencies, mid-rank windows and candidate bitsets in place
// and re-intersects only the record profiles a change actually touches,
// or for a one-cell edit mostly just moves their candidate counts by one
// (~20x faster than a full RSRL evaluation, which prepares that state
// afresh; see BenchmarkRankIntervalLinkageDeltaSpeedup). The evaluator
// resolves the battery once into one slot list, IL measures then DR
// measures, and every route sums it in that order. An initial population
// is prepared inside the evaluation worker pool, and each stateful
// measure's value is read from the fresh state, so set-up scores every
// individual once rather than twice.
//
// Each generation scores one mutant, or two crossover children, and
// score.Evaluator.EvaluateEdit scores each against its own parent's file
// and state: apply the change list and read the value, leaving the edit
// pending in the state. An offspring is its parent's file plus that
// change list: the genetic operators only read the parents' files, and a
// child's file is built (Dataset.CloneWith) only when it survives
// replacement, or earlier when scoring must read it (a wide edit, or a
// measure without a state). So evaluating a losing narrow offspring
// touches memory proportional to the edit instead of the file. The
// pending edit waits until replacement has decided: a surviving child
// keeps it (Evaluator.Keep, an empty Apply per measure, O(1)) instead of
// having the same edit applied again, and a losing one has it rolled
// back (Evaluator.Restore) by inverse replay, before-images (DBRL's rows)
// or bitset-diff journaling (stats.BitsetJournal). The DBRL and PRL
// states route each change list themselves: from the tuple counts of
// their last full link they estimate what patching would cost, and past
// that break-even they re-link in full with the grouped kernel of their
// Risk, inside the state, so the rest of the battery stays incremental.
// Every built-in measure has a state, the ML-utility measure included.
// Full Evaluate survives in three roles only: for a crossover whose gene
// window touches more than half the rows, for a custom measure without a
// state (recomputed per offspring while the rest of the battery stays
// incremental), and as the test oracle — the equivalence suites in
// internal/core and internal/islands run every trajectory against a
// capability-stripped battery (internal/score/scoretest) that scores each
// offspring in full. When a crossover's two parents differ, its second
// child is scored on its own goroutine if core.Config.EvalWorkers is at
// least 2 (0 inherits InitWorkers, which WithWorkers and JobSpec.Workers
// set).
// Only the children that survive replacement are handed a state — the
// evicted parent's kept in place, or a clone of it when the parent lives
// on. Either already holds the child's edit. A parent's state never holds
// a sibling's: two offspring share a parent only when it is crossed with
// itself, which leaves both change lists empty, and EvaluateEdit refuses
// a narrow edit on a state still holding one. Every pending edit is
// settled before the generation ends.
//
// The route is allocation-conscious: every measure binds once, when the
// evaluator is built, to the original file and protected attributes, so
// a state holds only what describes its masked file and shares the
// original's summaries (tuple groupings, distance and contribution
// tables, the original's contingency tables, the accuracy of a
// classifier trained on the original) with every other state and clone
// — about 87 KB live per prepared state on paper-scale adult, against
// 218 KB when each state rebuilt them (TestPrepareRetainedBytes).
// Measure states keep reusable scratch buffers (candidate bitsets, EM
// and weight arrays), EBIL reads its entropies straight off its joint
// matrices, the operators reuse their change-list buffers across
// generations, and short change lists are validated without heap
// allocation. A file stores each cell in one byte
// when its schema's domains have at most 256 categories, as every
// synthetic dataset's do, and in four bytes otherwise. The CTBIL, DBRL,
// PRL and ML-utility states keep the masked cells they patch as the
// file's projection onto the attributes they read (Dataset.Project), at
// the width those attributes' domains allow. A survivor's file and each
// of its states' masked cells thus cost a byte per cell rather than a
// word, in a survivor's copy and in a population's live heap (run the
// benchmarks with -benchmem; CI records both metrics in its
// BENCH_<sha>.json artifacts, which cmd/benchdiff compares across
// pushes).
//
// Delta evaluation is bit-for-bit identical to a full Evaluate — the
// states keep exact integer summaries and share their final value
// arithmetic with the full paths — so trajectories, snapshots and resumed
// runs are unchanged; it is purely a speedup (about 20x per mutation
// offspring at paper scale since full linkage scoring groups tuples and
// the DBRL and PRL states keep one row per distinct original tuple; the
// full/delta_ratio metric of the paper-scale speedup benchmark in
// bench_test.go measures it).
//
// Full linkage of the masked file still runs — once per Prepare (for
// each seed protection when an engine starts, and for a state-less
// individual the first time it parents a narrow edit), for every
// crossover whose gene window touches more than half the rows, and
// inside the DBRL and PRL states for
// every change list past their own break-even — and there the two record
// linkages used to dominate: DBRL and PRL compare every original record
// with every masked record, O(n²·attrs). Both comparisons depend only on the two records'
// protected tuples, and with a few protected attributes tuples repeat
// (205 distinct original tuples among flare's 1066 records), so both
// measures — full Risk, the Prepare of their delta states and their wide
// edits alike — group the records by tuple and compare each pair of
// distinct tuples once, weighted by how many masked records share the
// tuple — O(D_orig·D_masked·attrs) for D distinct tuples, never more than
// the record scan. The tallies are exact integers, so results are
// bit-identical to the pairwise scans, which internal/risk keeps as test
// oracles (see BenchmarkLinkagePaperScale and BenchmarkLinkageDeltaWidth).
package evoprot
