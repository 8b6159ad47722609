package main

// The engine workloads: one in-process optimization built layer by layer
// through the same public calls evoprot.Runner.Run makes — datagen.ByName,
// experiment.BuildPopulation, score.NewEvaluator, islands.New and
// Runner.Run — so each layer can be timed from outside.

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"evoprot/internal/core"
	"evoprot/internal/datagen"
	"evoprot/internal/dataset"
	"evoprot/internal/experiment"
	"evoprot/internal/infoloss"
	"evoprot/internal/islands"
	"evoprot/internal/risk"
	"evoprot/internal/score"
)

// engineWorkload describes one engine workload. Every run uses the
// paper's masking grid for the dataset and nproc initial-evaluation and
// batch-evaluation workers.
type engineWorkload struct {
	dataset   string
	rows      int // 0 selects the paper's record count
	agg       score.Aggregator
	objective string // "" (scalar) or core.ObjectivePareto
	mlTarget  string // appends the ML-utility measure when set
	islands   int
	forceOp   string // "" keeps the paper's mutation rate 0.5
	// rate sizes a run's fixed evolve work: island-generations per second
	// of --seconds. It is near the measured rate on a 2-vCPU machine, and
	// above it for paper-flare, whose cost per generation swings with the
	// operator coin and the share of wide edits: more generations average
	// that out.
	rate float64
}

var engineWorkloads = map[string]engineWorkload{
	// The paper's §3 setting: full Evaluate dominates because wide-edit
	// crossovers fall back to full scoring.
	"paper-flare": {dataset: "flare", agg: score.Max{}, islands: 1, rate: 100},
	// The batch apply/undo route every narrow mutation takes, at the
	// highest category counts (16/7/14).
	"mutation-adult": {dataset: "adult", agg: score.Mean{}, islands: 1, forceOp: "mutation", rate: 5200},
	// Non-reversible ML utility forces the clone-and-apply route; NSGA-II
	// sorting, barrier waits and migration show up only here.
	"pareto-islands": {dataset: "german", agg: score.Max{}, objective: core.ObjectivePareto,
		mlTarget: "HOUSING", islands: 2, forceOp: "mutation", rate: 2000},
}

// engineReps is how many set-up plus evolve repetitions one run makes;
// every end-to-end figure is the median over them.
const engineReps = 3

// gensFor sizes one repetition's per-island generation budget from the
// run's --seconds.
func (w engineWorkload) gensFor(seconds int) int {
	g := int(math.Round(w.rate * float64(seconds) / engineReps / float64(w.islands)))
	return max(g, 10)
}

// engineRep is one repetition's measurements.
type engineRep struct {
	setup, evolve time.Duration
	gens          int // island-generations executed
	allocBytes    uint64
	heapBytes     uint64
	err           error // a failed correctness check or run error
	// Traced repetitions only.
	generate, buildPop, newRunner time.Duration
	res                           *islands.Result
	batchable                     bool
	barrier                       *tracedBarrier
	shardable                     int
}

// runEngineRep builds the workload from seed and evolves it for gens
// generations per island, tracing through tr when it is non-nil.
func runEngineRep(ctx context.Context, w engineWorkload, seed uint64, gens int, tr *tracer) engineRep {
	var rep engineRep
	runtime.GC()
	if tr != nil {
		tr.setPhase(phaseSetup)
	}
	start := time.Now()
	orig, attrs, eval, err := buildEvaluator(w, seed, tr)
	if err != nil {
		rep.err = err
		return rep
	}
	rep.generate = time.Since(start)
	t := time.Now()
	pop, err := experiment.BuildPopulation(orig, attrs, w.dataset, seed)
	if err != nil {
		rep.err = err
		return rep
	}
	rep.buildPop = time.Since(t)
	cfg := islands.Config{
		Islands:  w.islands,
		Topology: islands.Ring,
		Engine: core.Config{
			Generations: gens,
			Seed:        seed,
			ForceOp:     w.forceOp,
			Objective:   w.objective,
			InitWorkers: runtime.NumCPU(),
			EvalWorkers: runtime.NumCPU(),
		},
	}
	if tr != nil {
		rep.barrier = &tracedBarrier{inner: islands.InProcessBarrier{}}
		cfg.Barrier = rep.barrier
		if w.islands == 1 {
			// With one island the battery's counters advance only for its
			// generations, so a crossover that made two ApplyUndo calls
			// scored two narrow groups an EvalWorkers pool could shard.
			first := tr.measures[0]
			var last int64
			cfg.OnEvent = func(ev islands.Event) {
				n := first.ops[phaseEvolve][opDelta].n.Load()
				if !ev.Done && ev.Stats.Op == "crossover" && n-last == 2 {
					rep.shardable++
				}
				last = n
			}
		}
	}
	t = time.Now()
	runner, err := islands.New(ctx, eval, pop, cfg)
	if err != nil {
		rep.err = err
		return rep
	}
	rep.newRunner = time.Since(t)
	rep.setup = time.Since(start)
	rep.batchable = eval.Batchable()

	runtime.GC()
	if tr != nil {
		tr.setPhase(phaseEvolve)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t = time.Now()
	res, err := runner.Run(ctx)
	end := time.Now()
	rep.evolve = end.Sub(t)
	runtime.ReadMemStats(&after)
	if rep.barrier != nil {
		rep.barrier.finish(end)
	}
	rep.allocBytes = after.TotalAlloc - before.TotalAlloc
	runtime.GC()
	runtime.ReadMemStats(&after)
	rep.heapBytes = after.HeapAlloc
	runtime.KeepAlive(runner)
	if err != nil {
		rep.err = err
		return rep
	}
	for _, ir := range res.Islands {
		rep.gens += ir.Generations
	}
	rep.res = res
	rep.err = checkEngine(w, orig, attrs, res, gens)
	return rep
}

// buildEvaluator generates the workload's dataset and its evaluator,
// with the measure battery wrapped for tracing when tr is non-nil.
func buildEvaluator(w engineWorkload, seed uint64, tr *tracer) (*dataset.Dataset, []int, *score.Evaluator, error) {
	orig, err := datagen.ByName(w.dataset, w.rows, seed)
	if err != nil {
		return nil, nil, nil, err
	}
	names, err := datagen.ProtectedAttrs(w.dataset)
	if err != nil {
		return nil, nil, nil, err
	}
	attrs, err := orig.Schema().Indices(names...)
	if err != nil {
		return nil, nil, nil, err
	}
	il, dr, err := w.battery(orig)
	if err != nil {
		return nil, nil, nil, err
	}
	if tr != nil {
		il, dr = tr.wrapIL(il), tr.wrapDR(dr)
	}
	eval, err := score.NewEvaluator(orig, attrs, score.Config{IL: il, DR: dr, Aggregator: w.agg})
	return orig, attrs, eval, err
}

// battery returns fresh paper measure batteries, with the ML-utility
// measure appended when the workload names a target.
func (w engineWorkload) battery(orig *dataset.Dataset) ([]infoloss.Measure, []risk.Measure, error) {
	il := infoloss.Default()
	if w.mlTarget != "" {
		target, err := orig.Schema().Indices(w.mlTarget)
		if err != nil {
			return nil, nil, err
		}
		il = append(il, &infoloss.MLUtility{Target: target[0]})
	}
	return il, risk.Default(), nil
}

// checkEngine verifies a finished run: every island reached its budget,
// each island's best re-scores bit for bit under a fresh untraced full
// evaluation, and Pareto islands end with a non-empty front of finite
// hypervolume.
func checkEngine(w engineWorkload, orig *dataset.Dataset, attrs []int, res *islands.Result, gens int) error {
	il, dr, err := w.battery(orig)
	if err != nil {
		return err
	}
	fresh, err := score.NewEvaluator(orig, attrs, score.Config{IL: il, DR: dr, Aggregator: w.agg})
	if err != nil {
		return err
	}
	if len(res.Islands) != w.islands {
		return fmt.Errorf("%d island results, want %d", len(res.Islands), w.islands)
	}
	for i, ir := range res.Islands {
		if ir.Generations != gens {
			return fmt.Errorf("island %d ran %d generations, want %d", i, ir.Generations, gens)
		}
		ev, err := fresh.Evaluate(ir.Best.Data)
		if err != nil {
			return fmt.Errorf("island %d: re-scoring best: %w", i, err)
		}
		got := ir.Best.Eval
		if !sameBits(ev.IL, got.IL) || !sameBits(ev.DR, got.DR) || !sameBits(ev.Score, got.Score) {
			return fmt.Errorf("island %d best (IL %v, DR %v, score %v) re-scores as (%v, %v, %v)",
				i, got.IL, got.DR, got.Score, ev.IL, ev.DR, ev.Score)
		}
		if w.objective == core.ObjectivePareto {
			front := ir.History[len(ir.History)-1].Front
			if front == nil || front.Size == 0 || math.IsNaN(front.Hypervolume) || math.IsInf(front.Hypervolume, 0) {
				return fmt.Errorf("island %d ends without a non-empty front of finite hypervolume", i)
			}
		}
	}
	return nil
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// runEngine runs an engine workload for the command line: engineReps
// untraced repetitions, or in traced mode untraced and traced repetitions
// alternately so the tracing overhead is measured in the same process.
// Repetition i draws its inputs from seed*engineReps+i, so a run averages
// over several datasets and trajectories (a paper-flare repetition's cost
// follows its trajectory's share of crossover and wide-edit generations)
// while seeds s and s+1 still share no inputs.
func runEngine(ctx context.Context, w engineWorkload, seed uint64, seconds int, trace bool) result {
	gens := w.gensFor(seconds)
	var plain, traced []engineRep
	tr := &tracer{}
	for i := uint64(0); i < engineReps; i++ {
		s := seed*engineReps + i
		plain = append(plain, runEngineRep(ctx, w, s, gens, nil))
		if trace {
			traced = append(traced, runEngineRep(ctx, w, s, gens, tr))
		}
	}
	r := result{note: fmt.Sprintf("%d jobs, each a set-up plus %d generations on %d island(s)", len(plain), gens, w.islands)}
	for _, rep := range append(plain, traced...) {
		r.attempted += w.islands * gens
		if rep.err != nil {
			r.failed += w.islands * gens
			r.errs = append(r.errs, rep.err.Error())
		}
	}
	if !trace {
		r.metrics = engineEndToEnd(plain)
		return r
	}
	r.metrics = engineLayers(tr, traced)
	r.metrics = append(r.metrics, metric{"trace.overhead", gensPerSec(plain)/gensPerSec(traced) - 1, "ratio"})
	return r
}

// gensPerSec is the island-generations per second of evolve wall time
// over all repetitions.
func gensPerSec(reps []engineRep) float64 {
	var gens, secs float64
	for _, rep := range reps {
		gens += float64(rep.gens)
		secs += rep.evolve.Seconds()
	}
	return ratio(gens, secs)
}

// engineEndToEnd reduces untraced repetitions to the end-to-end metrics.
// A job is one repetition as a user runs it: set-up plus evolve.
func engineEndToEnd(reps []engineRep) []metric {
	var setup, jobs, heap []float64
	var alloc, gens float64
	for _, rep := range reps {
		setup = append(setup, rep.setup.Seconds())
		jobs = append(jobs, (rep.setup + rep.evolve).Seconds())
		heap = append(heap, float64(rep.heapBytes)/(1<<20))
		alloc += float64(rep.allocBytes) / 1024
		gens += float64(rep.gens)
	}
	return []metric{
		{"setup_s", median(setup), "s"},
		{"gens_per_s", gensPerSec(reps), "1/s"},
		{"job_s.p50", median(jobs), "s"},
		{"job_s.p90", percentile(jobs, 0.9), "s"},
		{"alloc_kb_per_gen", ratio(alloc, gens), "KB"},
		{"heap_live_mb", median(heap), "MB"},
	}
}

// engineLayers reduces traced repetitions to per-layer metrics, each the
// mean per repetition.
func engineLayers(tr *tracer, reps []engineRep) []metric {
	k := float64(len(reps))
	var ms []metric
	add := func(name string, v float64, unit string) { ms = append(ms, metric{name, v / k, unit}) }

	var generate, buildPop, newRunner, busy, wait, coord, evalTime float64
	var epochs, migrations, accepted, offspring, shardable float64
	var opTime, opGens [2]float64 // mutation, crossover
	var opEval [2]float64
	for _, rep := range reps {
		generate += rep.generate.Seconds()
		buildPop += rep.buildPop.Seconds()
		newRunner += rep.newRunner.Seconds()
		shardable += float64(rep.shardable)
		if rep.barrier != nil {
			busy += rep.barrier.busy.Seconds()
			wait += rep.barrier.wait.Seconds()
			coord += rep.barrier.coord.Seconds()
			epochs += float64(rep.barrier.epochs)
		}
		if rep.res == nil {
			continue
		}
		migrations += float64(rep.res.Migrations)
		for _, ir := range rep.res.Islands {
			accepted += float64(ir.AcceptedOffspring)
			offspring += float64(ir.TotalOffspring)
			for _, gs := range ir.History {
				o := 0
				if gs.Op == "crossover" {
					o = 1
				}
				opTime[o] += gs.TotalTime.Seconds()
				opEval[o] += gs.EvalTime.Seconds()
				opGens[o]++
				evalTime += gs.EvalTime.Seconds()
			}
		}
	}
	add("datagen.by_name_s", generate, "s")
	add("experiment.build_population_s", buildPop, "s")
	add("islands.new_s", newRunner, "s")

	var setupFull, setupPrep, evolvePrep float64
	for _, m := range tr.measures {
		setupFull += m.ops[phaseSetup][opFull].seconds()
		setupPrep += m.ops[phaseSetup][opPrepare].seconds()
		evolvePrep += m.ops[phaseEvolve][opPrepare].seconds()
	}
	add("score.setup.full_s", setupFull, "s")
	add("score.setup.prepare_s", setupPrep, "s")
	add("score.evolve.prepare_s", evolvePrep, "s")
	for _, name := range []string{"DBRL", "PRL", "RSRL"} {
		add("risk."+name+".prepare_s", phaseSeconds(tr, name, phaseSetup, opPrepare), "s")
	}
	for _, name := range measureNames {
		pkg := "infoloss"
		if isRisk[name] {
			pkg = "risk"
		}
		for _, op := range measureOps {
			add(pkg+"."+name+"."+op.suffix+"_s", phaseSeconds(tr, name, phaseEvolve, op.op), "s")
			add(pkg+"."+name+"."+op.suffix+"_n", phaseCount(tr, name, phaseEvolve, op.op), "count")
		}
	}

	// Routes, read off the first measure of the battery, which every
	// offspring visits exactly once: apply-read-undo is the batch route, a
	// full recomputation the wide-edit fallback, and a plain Apply either
	// the clone-and-apply route (batteries that are not batchable) or a
	// survivor's state commit (batchable ones).
	first := tr.measures[0].name
	batch := phaseCount(tr, first, phaseEvolve, opDelta)
	wide := phaseCount(tr, first, phaseEvolve, opFull)
	apply := phaseCount(tr, first, phaseEvolve, opApply)
	var clone, commit float64
	if len(reps) > 0 && reps[0].batchable {
		commit = apply
	} else {
		clone = apply
	}
	add("score.route.batch_n", batch, "count")
	add("score.route.wide_n", wide, "count")
	add("score.route.clone_n", clone, "count")
	add("score.route.empty_n", offspring-batch-wide-clone, "count")
	add("score.commit_n", commit, "count")
	add("score.evolve.prepare_n", phaseCount(tr, first, phaseEvolve, opPrepare), "count")
	add("score.shardable_n", shardable, "count")

	add("core.eval_s", evalTime, "s")
	add("core.self_s", busy-evalTime, "s")
	add("core.accepted_n", accepted, "count")
	add("core.offspring_n", offspring, "count")
	add("core.mutation_gens_n", opGens[0], "count")
	add("core.crossover_gens_n", opGens[1], "count")
	ms = append(ms,
		metric{"core.eval_share.mutation", ratio(opEval[0], opTime[0]), "ratio"},
		metric{"core.eval_share.crossover", ratio(opEval[1], opTime[1]), "ratio"},
		metric{"core.cross_mut_ratio", ratio(ratio(opTime[1], opGens[1]), ratio(opTime[0], opGens[0])), "ratio"},
	)

	add("islands.busy_s", busy, "s")
	add("islands.wait_s", wait, "s")
	add("islands.coord_s", coord, "s")
	add("islands.epochs_n", epochs, "count")
	add("islands.migrations_n", migrations, "count")
	ms = append(ms, metric{"trace.gens_per_s", gensPerSec(reps), "1/s"})
	return ms
}

// measureNames lists every measure a workload can carry, in battery
// order; isRisk tells the disclosure-risk ones apart. measureOps are the
// evolve-phase operations reported per measure.
var (
	measureNames = []string{"CTBIL", "DBIL", "EBIL", "MLU", "ID", "DBRL", "PRL", "RSRL"}
	isRisk       = map[string]bool{"ID": true, "DBRL": true, "PRL": true, "RSRL": true}
	measureOps   = []struct {
		suffix string
		op     int
	}{{"full", opFull}, {"delta", opDelta}, {"apply", opApply}, {"clone", opClone}}
)

func phaseSeconds(tr *tracer, name string, phase, op int) float64 {
	if m := tr.find(name); m != nil {
		return m.ops[phase][op].seconds()
	}
	return 0
}

func phaseCount(tr *tracer, name string, phase, op int) float64 {
	if m := tr.find(name); m != nil {
		return float64(m.ops[phase][op].n.Load())
	}
	return 0
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
