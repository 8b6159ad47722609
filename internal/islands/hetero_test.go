package islands

// The determinism/equivalence harness gating the heterogeneous-islands
// feature:
//
//   - all-equal PerIsland overrides reproduce the homogeneous path bit
//     for bit, events and all;
//   - a fixed top-level seed reproduces any heterogeneous run bit for
//     bit;
//   - one island with an override equals a plain core.Engine run under
//     the template with the override applied;
//   - a barrier snapshot of a heterogeneous run resumes onto the
//     uninterrupted run's exact trajectory, and checkpoints written by
//     earlier builds (adaptive migration, niche presets, the flat
//     reference-point keys of version 3) resume to the results those
//     builds reached.

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"evoprot/internal/core"
	"evoprot/internal/score"
)

// stripEvent zeroes an event's timing fields so feeds compare by payload.
func stripEvent(ev Event) Event {
	ev.Stats.EvalTime, ev.Stats.TotalTime = 0, 0
	return ev
}

// sameFronts compares two Pareto front payloads by value — GenStats holds
// them by pointer, so struct equality would compare identities.
func sameFronts(a, b *core.FrontStats) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.Size != b.Size || a.Hypervolume != b.Hypervolume || len(a.Pairs) != len(b.Pairs) {
		return false
	}
	for i := range a.Pairs {
		if a.Pairs[i] != b.Pairs[i] {
			return false
		}
	}
	return true
}

// collectEvents runs the configuration and returns its full event feed
// (times stripped) together with the result.
func collectEvents(t *testing.T, cfg Config) ([]Event, *Result) {
	t.Helper()
	eval, pop := testPopulation(t)
	var events []Event
	var mu sync.Mutex
	cfg.OnEvent = func(ev Event) {
		mu.Lock()
		events = append(events, stripEvent(ev))
		mu.Unlock()
	}
	r, err := New(context.Background(), eval, pop, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return events, res
}

// sameResults fails the test unless the two results carry bit-identical
// per-island histories and best individuals. Migration counters are not
// compared — a resumed leg only counts its own barriers; callers that
// compare whole runs check Migrations themselves.
func sameResults(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.BestIsland != b.BestIsland || a.Best.Eval.Score != b.Best.Eval.Score {
		t.Fatalf("%s: best diverged (island %d score %v vs island %d score %v)",
			label, a.BestIsland, a.Best.Eval.Score, b.BestIsland, b.Best.Eval.Score)
	}
	if !a.Best.Data.Equal(b.Best.Data) {
		t.Fatalf("%s: best individual data diverged", label)
	}
	if len(a.Islands) != len(b.Islands) {
		t.Fatalf("%s: island counts %d vs %d", label, len(a.Islands), len(b.Islands))
	}
	for i := range a.Islands {
		x, y := stripTimes(a.Islands[i].History), stripTimes(b.Islands[i].History)
		if len(x) != len(y) {
			t.Fatalf("%s: island %d history lengths %d vs %d", label, i, len(x), len(y))
		}
		for g := range x {
			if !sameFronts(x[g].Front, y[g].Front) {
				t.Fatalf("%s: island %d generation %d fronts diverged:\n%+v\n%+v", label, i, g+1, x[g].Front, y[g].Front)
			}
			x[g].Front, y[g].Front = nil, nil
			if x[g] != y[g] {
				t.Fatalf("%s: island %d generation %d diverged:\n%+v\n%+v", label, i, g+1, x[g], y[g])
			}
		}
	}
}

// sameEvents fails the test unless the two feeds carry identical
// per-island event sequences and identical runner-level sequences. Global interleaving across islands is scheduling-dependent
// by contract — only per-island order is deterministic — so events are
// compared within their island's subsequence with Seq ignored.
func sameEvents(t *testing.T, label string, a, b []Event) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: feed lengths %d vs %d", label, len(a), len(b))
	}
	group := func(events []Event) map[int][]Event {
		out := map[int][]Event{}
		for _, ev := range events {
			ev.Seq = 0
			out[ev.Island] = append(out[ev.Island], ev)
		}
		return out
	}
	ga, gb := group(a), group(b)
	if len(ga) != len(gb) {
		t.Fatalf("%s: island sets %d vs %d", label, len(ga), len(gb))
	}
	for island, xs := range ga {
		ys := gb[island]
		if len(xs) != len(ys) {
			t.Fatalf("%s: island %d streamed %d vs %d events", label, island, len(xs), len(ys))
		}
		for i := range xs {
			x, y := xs[i], ys[i]
			if !sameFronts(x.Stats.Front, y.Stats.Front) {
				t.Fatalf("%s: island %d event %d fronts diverged:\n%+v\n%+v", label, island, i, x.Stats.Front, y.Stats.Front)
			}
			x.Stats.Front, y.Stats.Front = nil, nil
			if x != y {
				t.Fatalf("%s: island %d event %d diverged:\n%+v\n%+v", label, island, i, x, y)
			}
		}
	}
}

// heteroConfig is the harness's canonical heterogeneous setup: three
// niched islands (distinct mutation rates, selection policies, leader
// fractions and one per-island aggregator).
func heteroConfig(gens int) Config {
	return Config{
		Islands:      3,
		MigrateEvery: 5,
		Migrants:     2,
		Topology:     Broadcast,
		Engine:       core.Config{Generations: gens, Seed: 42},
		PerIsland: []Override{
			{},
			{MutationRate: 0.7, Selection: "rank"},
			{MutationRate: 0.3, LeaderFraction: 0.25, Aggregator: "mean"},
		},
	}
}

// TestHomogeneousEquivalence: all-equal PerIsland overrides must
// reproduce the homogeneous path bit for bit — results, migrations, and the full event feed. Both the all-zero
// override form and the explicitly-restated-template form are checked.
func TestHomogeneousEquivalence(t *testing.T) {
	base := Config{
		Islands:      3,
		MigrateEvery: 5,
		Migrants:     2,
		Engine:       core.Config{Generations: 30, Seed: 42},
	}
	refEvents, refRes := collectEvents(t, base)

	zero := base
	zero.PerIsland = make([]Override, 3)
	zeroEvents, zeroRes := collectEvents(t, zero)
	sameResults(t, "all-zero overrides", refRes, zeroRes)
	sameEvents(t, "all-zero overrides", refEvents, zeroEvents)
	if refRes.Migrations != zeroRes.Migrations {
		t.Fatalf("migrations %d vs %d", refRes.Migrations, zeroRes.Migrations)
	}

	// Overrides restating the template's effective values, the default
	// policies by name included, are equally homogeneous.
	restate := Override{MutationRate: 0.5, LeaderFraction: 0.1,
		Selection: "inverse-proportional", Crowding: "parent-index", Objective: "scalar"}
	stated := base
	stated.PerIsland = []Override{restate, restate, restate}
	statedEvents, statedRes := collectEvents(t, stated)
	sameResults(t, "restated-template overrides", refRes, statedRes)
	sameEvents(t, "restated-template overrides", refEvents, statedEvents)
}

// TestExplicitDefaultCrowdingOverrides: an override naming the default
// crowding policy replaces a template that sets another. Under
// nearest-parent crowding, overrides [{}, {Crowding: "parent-index"}] run
// island 1 with parent-index crowding: the run equals one whose template
// crowds by parent index and whose island 0 overrides it with
// nearest-parent.
func TestExplicitDefaultCrowdingOverrides(t *testing.T) {
	cfg := func(template core.CrowdingPolicy, perIsland ...Override) Config {
		return Config{
			Islands: 2, MigrateEvery: 5, Migrants: 2,
			Engine:    core.Config{Generations: 40, Seed: 13, Crowding: template},
			PerIsland: perIsland,
		}
	}
	_, explicit := collectEvents(t, cfg(core.CrowdNearestParent, Override{}, Override{Crowding: "parent-index"}))
	_, shared := collectEvents(t, cfg(core.CrowdParentIndex, Override{Crowding: "nearest-parent"}, Override{}))
	sameResults(t, "explicit default crowding", explicit, shared)
}

// TestHeterogeneousDeterminism: a fixed top-level seed reproduces a
// niched run bit for bit — per-island trajectories and every migration —
// regardless of goroutine scheduling.
func TestHeterogeneousDeterminism(t *testing.T) {
	aEvents, aRes := collectEvents(t, heteroConfig(40))
	bEvents, bRes := collectEvents(t, heteroConfig(40))
	sameResults(t, "heterogeneous", aRes, bRes)
	sameEvents(t, "heterogeneous", aEvents, bEvents)
	if aRes.Migrations != bRes.Migrations {
		t.Fatalf("migrations %d vs %d", aRes.Migrations, bRes.Migrations)
	}
	// The niches must actually diverge: islands with different engine
	// configurations cannot walk identical trajectories.
	for i := 1; i < len(aRes.Islands); i++ {
		x, y := aRes.Islands[0].History, aRes.Islands[i].History
		same := len(x) == len(y)
		if same {
			for g := range x {
				if x[g].Op != y[g].Op || x[g].Min != y[g].Min {
					same = false
					break
				}
			}
		}
		if same {
			t.Fatalf("island %d walked island 0's exact trajectory despite a different config", i)
		}
	}
}

// TestSingleIslandHeterogeneousMatchesEngine: one island with an override
// must reproduce a plain core.Engine run under the template with the
// override applied — the 1-island == plain-engine property extended to
// the override layer.
func TestSingleIslandHeterogeneousMatchesEngine(t *testing.T) {
	override := Override{MutationRate: 0.7, Selection: "rank", Aggregator: "mean"}
	template := core.Config{Generations: 40, Seed: 7}

	eval, pop := testPopulation(t)
	engine, err := core.NewEngine(eval, pop, core.Config{
		Generations: 40, Seed: 7, MutationRate: 0.7, Selection: core.SelectRank, Aggregator: "mean",
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := engine.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	eval2, pop2 := testPopulation(t)
	r, err := New(context.Background(), eval2, pop2, Config{
		Islands:   1,
		Engine:    template,
		PerIsland: []Override{override},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	a, b := stripTimes(ref.History), stripTimes(res.Islands[0].History)
	if len(a) != len(b) {
		t.Fatalf("history lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("generation %d diverged:\nengine: %+v\nisland: %+v", i+1, a[i], b[i])
		}
	}
	if !ref.Best.Data.Equal(res.Best.Data) {
		t.Fatal("best individuals diverged")
	}
}

// TestHeterogeneousSnapshotResume: a snapshot taken at a mid-run
// migration barrier of a heterogeneous run must resume — per-island
// configs restored from the snapshot itself — onto the uninterrupted
// run's exact trajectory.
func TestHeterogeneousSnapshotResume(t *testing.T) {
	const total = 40
	eval, pop := testPopulation(t)

	var (
		buf      bytes.Buffer
		cutGen   int
		barriers int
	)
	cfg := heteroConfig(total)
	cfg.OnEpoch = func(r *Runner) {
		barriers++
		if barriers == 2 && buf.Len() == 0 {
			cutGen = r.Generation()
			if err := r.Snapshot(&buf); err != nil {
				t.Errorf("barrier snapshot: %v", err)
			}
		}
	}
	ref, err := New(context.Background(), eval, pop, cfg)
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 || cutGen <= 0 || cutGen >= total {
		t.Fatalf("no usable mid-run snapshot (cut at %d of %d)", cutGen, total)
	}

	// Resume with the remaining budget and an otherwise matching config —
	// but no PerIsland: the snapshot must supply the overrides itself.
	rcfg := heteroConfig(total - cutGen)
	rcfg.PerIsland = nil
	resumed, err := Resume(eval, bytes.NewReader(buf.Bytes()), rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Generation() != cutGen {
		t.Fatalf("resumed at generation %d, want %d", resumed.Generation(), cutGen)
	}
	cfgs := resumed.perIsland
	if len(cfgs) != 3 || cfgs[1].Selection != core.SelectRank || cfgs[2].Aggregator != "mean" {
		t.Fatalf("snapshot did not restore the per-island configs: %+v", cfgs)
	}
	resRes, err := resumed.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "snapshot/resume", refRes, resRes)
}

// resumeFixture resumes a checkpoint written by an earlier build (the
// named file under testdata) over the test population, checks it restored
// the recorded per-island overrides, runs it on for 15 more generations
// and requires the result the writing build reached on that same resume,
// pinned in testdata/fixture_resume_golden.json.
func resumeFixture(t *testing.T, name string, islands int, want []Override) {
	t.Helper()
	const gens = 15
	raw, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := Peek(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if meta.Islands != islands || meta.Generation != 20 {
		t.Fatalf("%s: meta %+v, want %d islands at generation 20", name, meta, islands)
	}
	eval, _ := testPopulation(t)
	r, err := Resume(eval, bytes.NewReader(raw), Config{
		MigrateEvery: 5, Migrants: 2, Engine: core.Config{Generations: gens, Seed: 1},
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if r.Islands() != islands || r.Generation() != 20 {
		t.Fatalf("%s: resumed %d islands at generation %d", name, r.Islands(), r.Generation())
	}
	if !reflect.DeepEqual(r.cfg.PerIsland, want) {
		t.Fatalf("%s: restored overrides %+v, want %+v", name, r.cfg.PerIsland, want)
	}
	res, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Generations != gens || r.Generation() != 20+gens || res.Migrations == 0 {
		t.Fatalf("%s: ran %d generations to %d with %d migrations, want %d to %d and some",
			name, res.Generations, r.Generation(), res.Migrations, gens, 20+gens)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "fixture_resume_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var pins map[string][]islandPin
	if err := json.Unmarshal(golden, &pins); err != nil {
		t.Fatal(err)
	}
	if got := pinResult(t, res); !reflect.DeepEqual(got, pins[name]) {
		t.Fatalf("%s: resumed run diverged from the writing build's:\ngot:  %+v\nwant: %+v", name, got, pins[name])
	}
}

// TestHeterogeneousAdaptiveSnapshotResume: a checkpoint of a 4-island
// adaptive run with a crossover_points override, written before adaptive
// migration and k-point crossover were removed, still resumes — on the
// fixed schedule, with island 1's override reduced to the settings that
// remain.
func TestHeterogeneousAdaptiveSnapshotResume(t *testing.T) {
	resumeFixture(t, "adaptive_kpoint.ckpt", 4, make([]Override, 4))
}

// TestNicheCheckpointResumes: a checkpoint of a 4-island run under the
// removed explore-exploit preset resumes with the per-island overrides it
// recorded (less its crossover_points).
func TestNicheCheckpointResumes(t *testing.T) {
	resumeFixture(t, "explore_exploit.ckpt", 4, []Override{
		{},
		{MutationRate: 0.41666666666666663, LeaderFraction: 0.11666666666666667},
		{MutationRate: 0.5833333333333333, LeaderFraction: 0.18333333333333335, Selection: "rank"},
		{MutationRate: 0.75, LeaderFraction: 0.25, Selection: "uniform"},
	})
}

// TestVersion3ParetoRefCheckpointResumes: a version-3 checkpoint wrote
// an override's reference point as the flat keys pareto_ref_il and
// pareto_ref_dr; it resumes with that reference point on the Pareto
// island.
func TestVersion3ParetoRefCheckpointResumes(t *testing.T) {
	resumeFixture(t, "pareto_ref_v3.ckpt", 2, []Override{
		{},
		{Objective: core.ObjectivePareto, ParetoRef: &ParetoRef{IL: 90, DR: 90}},
	})
}

// TestPerIslandAggregatorScoresConsistent: an island running its own
// aggregation must score its population under it — the best individual's
// Score re-derives from its (IL, DR) pair via that island's formula.
func TestPerIslandAggregatorScoresConsistent(t *testing.T) {
	eval, pop := testPopulation(t)
	r, err := New(context.Background(), eval, pop, Config{
		Islands:      2,
		MigrateEvery: 5,
		Engine:       core.Config{Generations: 20, Seed: 11},
		PerIsland:    []Override{{}, {Aggregator: "mean"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, ind := range res.Islands[1].Population {
		want := (ind.Eval.IL + ind.Eval.DR) / 2
		if ind.Eval.Score != want {
			t.Fatalf("mean-island individual scored %v, want %v", ind.Eval.Score, want)
		}
	}
	best0 := res.Islands[0].Best.Eval
	max := best0.IL
	if best0.DR > max {
		max = best0.DR
	}
	if best0.Score != max {
		t.Fatalf("template island left the max aggregation: %+v", best0)
	}
}

// TestBestJudgedUnderRunMetric: heterogeneous islands score their own
// populations under their own aggregators, so the cross-island winner
// must be chosen — and its reported Score expressed — under the run's
// shared aggregation, never by comparing raw scores from different
// scales.
func TestBestJudgedUnderRunMetric(t *testing.T) {
	eval, pop := testPopulation(t)
	r, err := New(context.Background(), eval, pop, Config{
		Islands:      3,
		MigrateEvery: 10,
		Engine:       core.Config{Generations: 30, Seed: 21}, // shared metric: the evaluator's max
		PerIsland:    []Override{{}, {Aggregator: "mean"}, {Aggregator: "weighted:0.3"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	shared := eval.Aggregator()
	winner := res.Islands[res.BestIsland].Best
	if want := shared.Combine(winner.Eval.IL, winner.Eval.DR); res.Best.Eval.Score != want {
		t.Fatalf("Best.Score = %v, want the shared-metric value %v", res.Best.Eval.Score, want)
	}
	for i, ir := range res.Islands {
		if s := shared.Combine(ir.Best.Eval.IL, ir.Best.Eval.DR); s < res.Best.Eval.Score {
			t.Fatalf("island %d beats Best under the shared metric: %v < %v", i, s, res.Best.Eval.Score)
		}
	}
	live := r.Best()
	if live.Eval.Score != res.Best.Eval.Score || !live.Data.Equal(res.Best.Data) {
		t.Fatalf("Runner.Best diverges from Result.Best: %v vs %v", live.Eval.Score, res.Best.Eval.Score)
	}
	// The mean island's own wrapper keeps its own scale — only the
	// cross-island presentation is re-combined.
	for _, ind := range res.Islands[1].Population {
		if want := (ind.Eval.IL + ind.Eval.DR) / 2; ind.Eval.Score != want {
			t.Fatalf("island wrapper rescored: %v != %v", ind.Eval.Score, want)
		}
	}
}

// TestSnapshotVersionMinimal: homogeneous snapshots stay version 1
// (readable by every build), heterogeneous ones are version 4; both
// resume here.
func TestSnapshotVersionMinimal(t *testing.T) {
	eval, pop := testPopulation(t)
	version := func(cfg Config) int {
		r, err := New(context.Background(), eval, pop, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := r.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		var snap struct {
			Version int `json:"version"`
		}
		if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
			t.Fatal(err)
		}
		if _, err := Resume(eval, bytes.NewReader(buf.Bytes()), cfg); err != nil {
			t.Fatalf("own snapshot does not resume: %v", err)
		}
		return snap.Version
	}
	plain := Config{Islands: 2, MigrateEvery: 5, Engine: core.Config{Generations: 10, Seed: 3}}
	if v := version(plain); v != 1 {
		t.Fatalf("homogeneous snapshot is version %d, want 1", v)
	}
	if v := version(heteroConfig(10)); v != 4 {
		t.Fatalf("heterogeneous snapshot is version %d, want 4", v)
	}
}

// TestPerIslandValidation: malformed heterogeneous configurations are
// rejected at construction.
func TestPerIslandValidation(t *testing.T) {
	eval, pop := testPopulation(t)
	cases := map[string]Config{
		"override count mismatch": {
			Islands: 3, Engine: core.Config{Generations: 5},
			PerIsland: []Override{{}, {}},
		},
		"override bad selection": {
			Islands: 2, Engine: core.Config{Generations: 5},
			PerIsland: []Override{{}, {Selection: "tournament"}},
		},
		"override bad crowding": {
			Islands: 2, Engine: core.Config{Generations: 5},
			PerIsland: []Override{{}, {Crowding: "closest"}},
		},
		"override bad objective": {
			Islands: 2, Engine: core.Config{Generations: 5},
			PerIsland: []Override{{}, {Objective: "lexicographic"}},
		},
		"override bad aggregator": {
			Islands: 2, Engine: core.Config{Generations: 5},
			PerIsland: []Override{{}, {Aggregator: "median"}},
		},
		"override bad reference": {
			Islands: 2, Engine: core.Config{Generations: 5},
			PerIsland: []Override{{}, {ParetoRef: &ParetoRef{IL: -1, DR: 90}}},
		},
	}
	for name, cfg := range cases {
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted", name)
		}
		if _, err := New(context.Background(), eval, pop, cfg); err == nil {
			t.Errorf("%s: New accepted", name)
		}
	}
	// Validate and New agree on a good heterogeneous config too.
	good := heteroConfig(5)
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	if _, err := New(context.Background(), eval, pop, good); err != nil {
		t.Fatalf("good config rejected by New: %v", err)
	}
}

// TestHeterogeneousCancellationNoLeak extends the PR 2 cancellation
// property to niched runs: a mid-epoch cancel — landing while islands
// with different configs are in flight — must surface a valid partial result, a recorded stop reason,
// and leak no goroutines. Run under -race in CI.
func TestHeterogeneousCancellationNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	eval, pop := testPopulation(t)
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	seen := 0
	cfg := heteroConfig(1 << 20)
	cfg.MigrateEvery = 10
	cfg.OnEvent = func(ev Event) {
		mu.Lock()
		defer mu.Unlock()
		seen++
		if seen == 37 {
			cancel()
		}
	}
	r, err := New(context.Background(), eval, pop, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(ctx)
	if err == nil {
		t.Fatal("cancelled heterogeneous run returned nil error")
	}
	if res == nil || res.Best == nil {
		t.Fatal("cancelled heterogeneous run lost its partial result")
	}
	if res.StopReason != core.StopCancelled {
		t.Fatalf("stop reason = %q", res.StopReason)
	}
	total := 0
	for i, ir := range res.Islands {
		if len(ir.History) != ir.Generations {
			t.Fatalf("island %d: history %d vs generations %d", i, len(ir.History), ir.Generations)
		}
		total += ir.Generations
	}
	if total == 0 {
		t.Fatal("no generations executed despite 37 observed events")
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutine leak: %d before run, %d after", before, after)
	}
}

// TestMergedRoundTripsThroughSnapshotJSON: a checkpoint records the
// per-island overrides it was written with, every setting included, and
// a bare Resume rebuilds the identical merged island configurations from
// them — the property heterogeneous Resume relies on.
func TestMergedRoundTripsThroughSnapshotJSON(t *testing.T) {
	eval, pop := testPopulation(t)
	cfg := Config{
		Islands: 3, MigrateEvery: 5,
		Engine: core.Config{Generations: 40, Seed: 99, InitWorkers: 4, Selection: core.SelectRank},
		PerIsland: []Override{
			{},
			{MutationRate: core.AllCrossover, Selection: "inverse-proportional", Crowding: "nearest-parent"},
			{MutationRate: 0.65, LeaderFraction: 0.3, Aggregator: "weighted:0.3", Objective: "pareto",
				ParetoRef: &ParetoRef{IL: 80, DR: 95}, Generations: 123, EarlyStop: 9},
		},
	}
	r, err := New(context.Background(), eval, pop, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	bare := cfg
	bare.PerIsland = nil
	back, err := Resume(eval, bytes.NewReader(buf.Bytes()), bare)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.cfg.PerIsland, cfg.PerIsland) {
		t.Fatalf("overrides did not round-trip:\nwant %+v\ngot  %+v", cfg.PerIsland, back.cfg.PerIsland)
	}
	if !reflect.DeepEqual(back.perIsland, r.perIsland) {
		t.Fatalf("island configs did not round-trip:\nwant %+v\ngot  %+v", r.perIsland, back.perIsland)
	}
}

// TestOverrideInheritance: empty override fields inherit the template,
// set fields replace it, and a named policy replaces the template's even
// when it names the default. The objective fields are covered by
// TestObjectiveOverrideInheritance.
func TestOverrideInheritance(t *testing.T) {
	template := core.Config{
		Generations:         100,
		MutationRate:        0.4,
		LeaderFraction:      0.2,
		Selection:           core.SelectRank,
		Crowding:            core.CrowdNearestParent,
		Seed:                7,
		NoImprovementWindow: 50,
		ForceOp:             "mutation",
		InitWorkers:         3,
		EvalWorkers:         2,
		Aggregator:          "mean",
		Objective:           core.ObjectivePareto,
		ParetoRef:           score.Pair{IL: 80, DR: 90},
	}
	// An empty override changes nothing.
	if got, err := (Override{}).apply(template); err != nil || got != template {
		t.Fatalf("empty override changed the template: %+v, %v", got, err)
	}
	// A full override of the search settings replaces everything it sets
	// and leaves the objective fields to the template.
	got, err := Override{
		Selection:      "inverse-proportional",
		Crowding:       "parent-index",
		MutationRate:   core.AllCrossover,
		LeaderFraction: 0.5,
		Aggregator:     "euclidean",
		Generations:    5,
		EarlyStop:      2,
	}.apply(template)
	if err != nil {
		t.Fatal(err)
	}
	want := template
	want.Selection, want.Crowding = core.SelectInverseProportional, core.CrowdParentIndex
	want.MutationRate, want.LeaderFraction = core.AllCrossover, 0.5
	want.Aggregator = "euclidean"
	want.Generations, want.NoImprovementWindow = 5, 2
	if got != want {
		t.Fatalf("override applied as\n%+v\nwant\n%+v", got, want)
	}
	// A name that does not resolve is an error, not an inherit.
	for _, bad := range []Override{{Selection: "nope"}, {Crowding: "nope"}, {Aggregator: "nope"}} {
		if _, err := bad.apply(template); err == nil {
			t.Errorf("override %+v accepted", bad)
		}
	}
}

// TestObjectiveOverrideInheritance: an override without objective fields
// keeps the template's objective and reference point, and one that sets
// them replaces the template's — naming the default "scalar" included.
func TestObjectiveOverrideInheritance(t *testing.T) {
	template := core.Config{Generations: 100, Objective: core.ObjectivePareto, ParetoRef: score.Pair{IL: 80, DR: 90}}
	if got, err := (Override{}).apply(template); err != nil || got != template {
		t.Fatalf("empty override lost the objective fields: %+v, %v", got, err)
	}
	// Setting them onto a template that leaves them unset applies them.
	got, err := Override{Objective: "pareto", ParetoRef: &ParetoRef{IL: 80, DR: 90}}.apply(core.Config{Generations: 100})
	if err != nil {
		t.Fatal(err)
	}
	if got != template {
		t.Fatalf("override did not apply the objective fields: %+v", got)
	}
	// Setting them onto a template that sets others replaces those.
	got, err = Override{Objective: "scalar", ParetoRef: &ParetoRef{IL: 60, DR: 70}}.apply(template)
	if err != nil {
		t.Fatal(err)
	}
	want := template
	want.Objective, want.ParetoRef = core.ObjectiveScalar, score.Pair{IL: 60, DR: 70}
	if got != want {
		t.Fatalf("override applied as\n%+v\nwant\n%+v", got, want)
	}
	if _, err := (Override{Objective: "nope"}).apply(template); err == nil {
		t.Error("unknown objective name accepted")
	}
}
