package islands

// The determinism/equivalence harness gating the heterogeneous-islands
// feature:
//
//   - all-equal PerIsland overrides (and adaptive migration disabled)
//     reproduce the homogeneous path bit for bit, events and all;
//   - a fixed top-level seed reproduces any heterogeneous adaptive run
//     bit for bit, including the divergence trace and every controller
//     decision;
//   - one island with an override equals a plain core.Engine run under
//     the merged configuration;
//   - a barrier snapshot of a heterogeneous adaptive run resumes onto the
//     uninterrupted run's exact trajectory, controller state included.

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"sync"
	"testing"
	"time"

	"evoprot/internal/core"
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
// per-island event sequences and identical runner-level (epoch)
// sequences. Global interleaving across islands is scheduling-dependent
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
			if (x.Epoch == nil) != (y.Epoch == nil) || (x.Epoch != nil && *x.Epoch != *y.Epoch) {
				t.Fatalf("%s: island %d event %d epoch payloads diverged: %+v vs %+v", label, island, i, x.Epoch, y.Epoch)
			}
			x.Epoch, y.Epoch = nil, nil
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

// heteroConfig is the harness's canonical heterogeneous adaptive setup:
// three niched islands (distinct mutation rates, selection policies,
// crossover disruption and one per-island aggregator) under the adaptive
// controller.
func heteroConfig(gens int) Config {
	return Config{
		Islands:      3,
		MigrateEvery: 5,
		Migrants:     2,
		Topology:     Broadcast,
		Engine:       core.Config{Generations: gens, Seed: 42},
		PerIsland: []core.Config{
			{},
			{MutationRate: 0.7, Selection: core.SelectRank, CrossoverPoints: 4},
			{MutationRate: 0.3, LeaderFraction: 0.25, Aggregator: "mean"},
		},
		Adaptive: Adaptive{Enabled: true},
	}
}

// TestHomogeneousEquivalence: all-equal PerIsland overrides with the
// adaptive controller off must reproduce today's homogeneous path bit for
// bit — results, migrations, and the full event feed. Both the all-zero
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
	zero.PerIsland = make([]core.Config, 3)
	zeroEvents, zeroRes := collectEvents(t, zero)
	sameResults(t, "all-zero overrides", refRes, zeroRes)
	sameEvents(t, "all-zero overrides", refEvents, zeroEvents)
	if refRes.Migrations != zeroRes.Migrations {
		t.Fatalf("migrations %d vs %d", refRes.Migrations, zeroRes.Migrations)
	}

	// Overrides restating the template's effective values are equally
	// homogeneous.
	stated := base
	stated.PerIsland = []core.Config{
		{MutationRate: 0.5, LeaderFraction: 0.1, CrossoverPoints: 2},
		{MutationRate: 0.5, LeaderFraction: 0.1, CrossoverPoints: 2},
		{MutationRate: 0.5, LeaderFraction: 0.1, CrossoverPoints: 2},
	}
	statedEvents, statedRes := collectEvents(t, stated)
	sameResults(t, "restated-template overrides", refRes, statedRes)
	sameEvents(t, "restated-template overrides", refEvents, statedEvents)
}

// TestHeterogeneousDeterminism: a fixed top-level seed reproduces a
// niched adaptive run bit for bit — per-island trajectories, the
// divergence trace, every controller decision and every migration —
// regardless of goroutine scheduling.
func TestHeterogeneousDeterminism(t *testing.T) {
	aEvents, aRes := collectEvents(t, heteroConfig(40))
	bEvents, bRes := collectEvents(t, heteroConfig(40))
	sameResults(t, "heterogeneous adaptive", aRes, bRes)
	sameEvents(t, "heterogeneous adaptive", aEvents, bEvents)
	if aRes.Migrations != bRes.Migrations {
		t.Fatalf("migrations %d vs %d", aRes.Migrations, bRes.Migrations)
	}
	epochs := 0
	for _, ev := range aEvents {
		if ev.Epoch != nil {
			epochs++
			if ev.Island != -1 {
				t.Fatalf("epoch event carries island %d, want -1", ev.Island)
			}
		}
	}
	if epochs == 0 {
		t.Fatal("adaptive run emitted no epoch events")
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
// must reproduce a plain core.Engine run under the merged configuration —
// the 1-island == plain-engine property extended to the override layer.
func TestSingleIslandHeterogeneousMatchesEngine(t *testing.T) {
	override := core.Config{MutationRate: 0.7, Selection: core.SelectRank, CrossoverPoints: 3, Aggregator: "mean"}
	template := core.Config{Generations: 40, Seed: 7}

	eval, pop := testPopulation(t)
	engine, err := core.NewEngine(eval, pop, template.Merged(override))
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
		PerIsland: []core.Config{override},
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

// TestHeterogeneousAdaptiveSnapshotResume: a snapshot taken at a
// mid-run migration barrier of a heterogeneous adaptive run must resume —
// per-island configs and controller state restored from the snapshot
// itself — onto the uninterrupted run's exact trajectory.
func TestHeterogeneousAdaptiveSnapshotResume(t *testing.T) {
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
	cfgs := resumed.IslandConfigs()
	if len(cfgs) != 3 || cfgs[1].Selection != core.SelectRank || cfgs[2].Aggregator != "mean" {
		t.Fatalf("snapshot did not restore the per-island configs: %+v", cfgs)
	}
	resRes, err := resumed.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "snapshot/resume", refRes, resRes)
}

// TestAdaptiveControllerBounds: whatever divergence a run produces, the
// effective schedule must stay inside the configured bounds; and with the
// thresholds pinned to extremes the controller must actually walk to the
// matching bound.
func TestAdaptiveControllerBounds(t *testing.T) {
	run := func(adaptive Adaptive) []Event {
		cfg := heteroConfig(60)
		cfg.Adaptive = adaptive
		events, _ := collectEvents(t, cfg)
		return events
	}
	check := func(events []Event, a Adaptive, wantEvery, wantMigrants int) {
		t.Helper()
		last := (*EpochInfo)(nil)
		for _, ev := range events {
			if ev.Epoch == nil {
				continue
			}
			e := ev.Epoch
			if e.MigrateEvery < a.MinEvery || e.MigrateEvery > a.MaxEvery ||
				e.Migrants < a.MinMigrants || e.Migrants > a.MaxMigrants {
				t.Fatalf("controller left its bounds: %+v under %+v", e, a)
			}
			if e.Divergence < 0 {
				t.Fatalf("negative divergence %v", e.Divergence)
			}
			last = e
		}
		if last == nil {
			t.Fatal("no epoch events")
		}
		if wantEvery != 0 && last.MigrateEvery != wantEvery {
			t.Fatalf("controller settled at every=%d, want %d", last.MigrateEvery, wantEvery)
		}
		if wantMigrants != 0 && last.Migrants != wantMigrants {
			t.Fatalf("controller settled at migrants=%d, want %d", last.Migrants, wantMigrants)
		}
	}
	// A low threshold no run can undercut: every barrier widens, so the
	// controller must settle on (MaxEvery, MinMigrants).
	alwaysLow := Adaptive{Enabled: true, MinEvery: 2, MaxEvery: 20, MinMigrants: 1, MaxMigrants: 8, LowDivergence: 1e6, HighDivergence: 2e6}
	check(run(alwaysLow), alwaysLow, 20, 1)
	// A high threshold every barrier clears: the controller must settle on
	// (MinEvery, MaxMigrants).
	alwaysHigh := Adaptive{Enabled: true, MinEvery: 2, MaxEvery: 20, MinMigrants: 1, MaxMigrants: 8, LowDivergence: 1e-300, HighDivergence: 2e-300}
	check(run(alwaysHigh), alwaysHigh, 2, 8)
}

// TestDivergenceProperties: the statistic is 0 for a single island and
// for identical populations, and is a pure function of quiescent state
// (two computations agree).
func TestDivergenceProperties(t *testing.T) {
	eval, pop := testPopulation(t)
	one, err := New(context.Background(), eval, pop, Config{Islands: 1, Engine: core.Config{Generations: 5, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if d := one.Divergence(); d != 0 {
		t.Fatalf("single-island divergence = %v", d)
	}
	three, err := New(context.Background(), eval, pop, Config{Islands: 3, Engine: core.Config{Generations: 5, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	// Before any evolution every island holds the same evaluated
	// population, so the means coincide exactly.
	if d := three.Divergence(); d != 0 {
		t.Fatalf("identical-population divergence = %v", d)
	}
	if _, err := three.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if a, b := three.Divergence(), three.Divergence(); a != b || a < 0 {
		t.Fatalf("divergence is not a pure non-negative function: %v vs %v", a, b)
	}
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
		PerIsland:    []core.Config{{}, {Aggregator: "mean"}},
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
		PerIsland:    []core.Config{{}, {Aggregator: "mean"}, {Aggregator: "weighted:0.3"}},
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

// TestSnapshotVersionMinimal: checkpoints carry the lowest version their
// content needs — homogeneous fixed-schedule snapshots stay version 1
// (readable by strict-v1 builds), heterogeneous or adaptive ones move to
// version 2; both resume here.
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
		t.Fatalf("homogeneous fixed-schedule snapshot is version %d, want 1", v)
	}
	if v := version(heteroConfig(10)); v != 2 {
		t.Fatalf("heterogeneous adaptive snapshot is version %d, want 2", v)
	}
	adaptiveOnly := plain
	adaptiveOnly.Adaptive = Adaptive{Enabled: true}
	if v := version(adaptiveOnly); v != 2 {
		t.Fatalf("adaptive snapshot is version %d, want 2", v)
	}
}

// TestPerIslandValidation: malformed heterogeneous configurations are
// rejected at construction.
func TestPerIslandValidation(t *testing.T) {
	eval, pop := testPopulation(t)
	cases := map[string]Config{
		"override count mismatch": {
			Islands: 3, Engine: core.Config{Generations: 5},
			PerIsland: []core.Config{{}, {}},
		},
		"override sets seed": {
			Islands: 2, Engine: core.Config{Generations: 5},
			PerIsland: []core.Config{{}, {Seed: 9}},
		},
		"override sets init workers": {
			Islands: 2, Engine: core.Config{Generations: 5},
			PerIsland: []core.Config{{}, {InitWorkers: 4}},
		},
		"override bad aggregator": {
			Islands: 2, Engine: core.Config{Generations: 5},
			PerIsland: []core.Config{{}, {Aggregator: "median"}},
		},
		"override bad crossover points": {
			Islands: 2, Engine: core.Config{Generations: 5},
			PerIsland: []core.Config{{}, {CrossoverPoints: -3}},
		},
		"adaptive bounds exclude schedule": {
			Islands: 2, MigrateEvery: 10, Engine: core.Config{Generations: 5},
			Adaptive: Adaptive{Enabled: true, MinEvery: 20, MaxEvery: 40},
		},
		"adaptive migrant bounds exclude schedule": {
			Islands: 2, Migrants: 2, Engine: core.Config{Generations: 5},
			Adaptive: Adaptive{Enabled: true, MinMigrants: 3, MaxMigrants: 8},
		},
		"adaptive thresholds inverted": {
			Islands: 2, Engine: core.Config{Generations: 5},
			Adaptive: Adaptive{Enabled: true, LowDivergence: 0.5, HighDivergence: 0.1},
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

// TestNichePresets: every preset yields a valid, template-preserving
// override set; unknown names and bad counts are rejected.
func TestNichePresets(t *testing.T) {
	if _, err := NichesByName("explore-exploit", 0); err == nil {
		t.Error("zero islands accepted")
	}
	if _, err := NichesByName("does-not-exist", 4); err == nil {
		t.Error("unknown preset accepted")
	}
	if names := NicheNames(); len(names) < 3 {
		t.Fatalf("NicheNames = %v", names)
	}
	for _, name := range NicheNames() {
		for _, n := range []int{1, 2, 4, 7} {
			overrides, err := NichesByName(name, n)
			if err != nil {
				t.Fatalf("%s/%d: %v", name, n, err)
			}
			if len(overrides) != n {
				t.Fatalf("%s/%d: %d overrides", name, n, len(overrides))
			}
			if configToJSON(overrides[0]) != (islandConfigJSON{}) {
				t.Fatalf("%s/%d: island 0 does not inherit the template: %+v", name, n, overrides[0])
			}
			cfg := Config{
				Islands:   n,
				Engine:    core.Config{Generations: 5, Seed: 3},
				PerIsland: overrides,
			}
			if err := cfg.Validate(); err != nil {
				t.Fatalf("%s/%d: preset invalid: %v", name, n, err)
			}
		}
	}
	// A niched run must actually differ from the homogeneous one (with
	// more than one island and a preset that changes anything).
	overrides, err := NichesByName("explore-exploit", 3)
	if err != nil {
		t.Fatal(err)
	}
	hom := Config{Islands: 3, MigrateEvery: 10, Engine: core.Config{Generations: 30, Seed: 5}}
	niched := hom
	niched.PerIsland = overrides
	_, homRes := collectEvents(t, hom)
	_, nichedRes := collectEvents(t, niched)
	diverged := false
	for i := 1; i < 3 && !diverged; i++ {
		x, y := stripTimes(homRes.Islands[i].History), stripTimes(nichedRes.Islands[i].History)
		for g := range x {
			if g >= len(y) || x[g] != y[g] {
				diverged = true
				break
			}
		}
	}
	if !diverged {
		t.Fatal("explore-exploit niches left every island on the homogeneous trajectory")
	}
}

// TestHeterogeneousCancellationNoLeak extends the PR 2 cancellation
// property to niched adaptive runs: a mid-epoch cancel — landing while
// islands with different configs and the adaptive controller are in
// flight — must surface a valid partial result, a recorded stop reason,
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

// TestMergedRoundTripsThroughSnapshotJSON: the serialized per-island
// override subset reproduces the exact merged configuration — the
// property heterogeneous Resume relies on.
func TestMergedRoundTripsThroughSnapshotJSON(t *testing.T) {
	overrides := []core.Config{
		{},
		{MutationRate: core.AllCrossover, Selection: core.SelectUniform, Crowding: core.CrowdNearestParent},
		{MutationRate: 0.65, LeaderFraction: 0.3, CrossoverPoints: 5, Aggregator: "weighted:0.3",
			Generations: 123, NoImprovementWindow: 9, ForceOp: "mutation"},
	}
	template := core.Config{Generations: 40, Seed: 99, InitWorkers: 4}
	for i, ov := range overrides {
		back, err := configFromJSON(configToJSON(ov))
		if err != nil {
			t.Fatalf("override %d: %v", i, err)
		}
		a, b := template.Merged(ov), template.Merged(back)
		if configToJSON(a) != configToJSON(b) || a.Seed != b.Seed || a.InitWorkers != b.InitWorkers {
			t.Fatalf("override %d did not round-trip:\nwant %+v\ngot  %+v", i, a, b)
		}
	}
	if _, err := configFromJSON(islandConfigJSON{Selection: "nope"}); err == nil {
		t.Error("bad serialized selection accepted")
	}
	if _, err := configFromJSON(islandConfigJSON{Crowding: "nope"}); err == nil {
		t.Error("bad serialized crowding accepted")
	}
}
