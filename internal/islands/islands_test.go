package islands

import (
	"bytes"
	"context"
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"
	"time"

	"evoprot/internal/core"
	"evoprot/internal/datagen"
	"evoprot/internal/datagen/datagentest"
	"evoprot/internal/protection"
	"evoprot/internal/score"
)

func testPopulation(t testing.TB) (*score.Evaluator, []*core.Individual) {
	t.Helper()
	d := datagentest.MustByName("flare", 90, 23)
	names, _ := datagen.ProtectedAttrs("flare")
	attrs, err := d.Schema().Indices(names...)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := score.NewEvaluator(d, attrs, score.Config{})
	if err != nil {
		t.Fatal(err)
	}
	specs := []string{
		"micro:k=2", "micro:k=4", "micro:k=6", "micro:k=8",
		"top:q=0.1", "top:q=0.25", "bottom:q=0.1", "bottom:q=0.25",
		"recode:depth=1", "recode:depth=2",
		"rankswap:p=5", "rankswap:p=15",
		"pram:theta=0.9", "pram:theta=0.6",
	}
	rng := rand.New(rand.NewPCG(77, 1))
	pop := make([]*core.Individual, len(specs))
	for i, s := range specs {
		m := protection.Must(s)
		masked, err := m.Protect(d, attrs, rng)
		if err != nil {
			t.Fatal(err)
		}
		pop[i] = core.NewIndividual(masked, protection.String(m))
	}
	return eval, pop
}

func stripTimes(h []core.GenStats) []core.GenStats {
	out := make([]core.GenStats, len(h))
	for i, gs := range h {
		gs.EvalTime, gs.TotalTime = 0, 0
		out[i] = gs
	}
	return out
}

// TestSingleIslandMatchesEngineRun is the redesign's compatibility
// property: a 1-island run must reproduce the plain core.Engine trajectory
// for the same seed, generation by generation.
func TestSingleIslandMatchesEngineRun(t *testing.T) {
	for _, seed := range []uint64{7, 42, 1001} {
		eval, pop := testPopulation(t)
		engine, err := core.NewEngine(eval, pop, core.Config{Generations: 40, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := engine.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		r, err := New(context.Background(), eval, pop, Config{Islands: 1, Engine: core.Config{Generations: 40, Seed: seed}})
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		a, b := stripTimes(ref.History), stripTimes(res.Islands[0].History)
		if len(a) != len(b) {
			t.Fatalf("seed %d: history lengths %d vs %d", seed, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d generation %d diverged:\nengine: %+v\nisland: %+v", seed, i+1, a[i], b[i])
			}
		}
		if !ref.Best.Data.Equal(res.Best.Data) {
			t.Fatalf("seed %d: best individuals diverged", seed)
		}
	}
}

// TestMultiIslandDeterminism: a fixed top-level seed reproduces the whole
// parallel run — per-island histories, migrations, and best — regardless
// of goroutine scheduling.
func TestMultiIslandDeterminism(t *testing.T) {
	run := func() *Result {
		eval, pop := testPopulation(t)
		r, err := New(context.Background(), eval, pop, Config{
			Islands:      3,
			MigrateEvery: 10,
			Migrants:     2,
			Engine:       core.Config{Generations: 40, Seed: 42},
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Migrations != b.Migrations {
		t.Fatalf("migrations diverged: %d vs %d", a.Migrations, b.Migrations)
	}
	if a.BestIsland != b.BestIsland || a.Best.Eval.Score != b.Best.Eval.Score {
		t.Fatalf("best diverged: island %d score %v vs island %d score %v",
			a.BestIsland, a.Best.Eval.Score, b.BestIsland, b.Best.Eval.Score)
	}
	for i := range a.Islands {
		x, y := stripTimes(a.Islands[i].History), stripTimes(b.Islands[i].History)
		if len(x) != len(y) {
			t.Fatalf("island %d history lengths %d vs %d", i, len(x), len(y))
		}
		for g := range x {
			if x[g] != y[g] {
				t.Fatalf("island %d generation %d diverged", i, g+1)
			}
		}
	}
	if !a.Best.Data.Equal(b.Best.Data) {
		t.Fatal("best individual data diverged between identical runs")
	}
}

// TestIslandsDivergeAndExchange: different islands must walk different
// trajectories (derived seeds), and with a generous schedule some
// migration should be accepted.
func TestIslandsDivergeAndExchange(t *testing.T) {
	eval, pop := testPopulation(t)
	r, err := New(context.Background(), eval, pop, Config{
		Islands:      3,
		MigrateEvery: 5,
		Migrants:     3,
		Topology:     Broadcast,
		Engine:       core.Config{Generations: 60, Seed: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := 1; i < len(res.Islands); i++ {
		x, y := res.Islands[0].History, res.Islands[i].History
		for g := range x {
			if g >= len(y) || x[g].Op != y[g].Op || x[g].Min != y[g].Min {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("all islands walked identical trajectories; derived seeds are broken")
	}
	if res.Evaluations <= len(pop) {
		t.Fatalf("evaluations = %d", res.Evaluations)
	}
	if res.StopReason != core.StopCompleted {
		t.Fatalf("stop reason = %q", res.StopReason)
	}
	for i, ir := range res.Islands {
		if ir.Generations != 60 {
			t.Fatalf("island %d executed %d generations, want 60", i, ir.Generations)
		}
	}
}

// TestRingVsBroadcastDiffer: the two topologies must be distinguishable on
// a schedule with enough migration pressure.
func TestRingVsBroadcastDiffer(t *testing.T) {
	run := func(topo Topology) *Result {
		eval, pop := testPopulation(t)
		r, err := New(context.Background(), eval, pop, Config{
			Islands: 3, MigrateEvery: 5, Migrants: 3, Topology: topo,
			Engine: core.Config{Generations: 60, Seed: 5},
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ring, bcast := run(Ring), run(Broadcast)
	// Identical configurations except topology: if every island's history
	// matches exactly, migration had no effect and the topologies are not
	// actually wired through.
	same := ring.Migrations == bcast.Migrations
	for i := range ring.Islands {
		x, y := stripTimes(ring.Islands[i].History), stripTimes(bcast.Islands[i].History)
		if len(x) != len(y) {
			same = false
			break
		}
		for g := range x {
			if x[g] != y[g] {
				same = false
				break
			}
		}
	}
	if same {
		t.Skip("ring and broadcast coincided on this seed; acceptable but unusual")
	}
}

// TestCancellationReturnsPartialResult: a mid-run cancel must surface a
// valid partial result — correct history length, a recorded stop reason —
// and leak no goroutines.
func TestCancellationReturnsPartialResult(t *testing.T) {
	before := runtime.NumGoroutine()
	eval, pop := testPopulation(t)
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	seen := 0
	r, err := New(context.Background(), eval, pop, Config{
		Islands:      3,
		MigrateEvery: 10,
		Engine:       core.Config{Generations: 1 << 20, Seed: 3},
		OnEvent: func(ev Event) {
			mu.Lock()
			defer mu.Unlock()
			seen++
			if seen == 25 {
				cancel()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(ctx)
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if res == nil {
		t.Fatal("cancelled run returned nil result")
	}
	if res.StopReason != core.StopCancelled {
		t.Fatalf("stop reason = %q, want %q", res.StopReason, core.StopCancelled)
	}
	total := 0
	for i, ir := range res.Islands {
		if len(ir.History) != ir.Generations {
			t.Fatalf("island %d: history %d vs generations %d", i, len(ir.History), ir.Generations)
		}
		if ir.StopReason != core.StopCancelled {
			t.Fatalf("island %d stop reason = %q", i, ir.StopReason)
		}
		total += ir.Generations
	}
	if total == 0 {
		t.Fatal("cancelled run executed no generations despite 25 observed events")
	}
	if res.Best == nil {
		t.Fatal("cancelled run has no best individual")
	}
	// The cancel lands mid-epoch; the run still ends with every island at
	// the same generation, so a checkpoint of it resumes to the exact
	// budget (regression: leaders were carried past it).
	for i, ir := range res.Islands {
		if ir.Generations != res.Islands[0].Generations {
			t.Fatalf("island %d stopped at generation %d, island 0 at %d", i, ir.Generations, res.Islands[0].Generations)
		}
	}
	var snap bytes.Buffer
	if err := r.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if meta, err := Peek(&snap); err != nil || meta.MinGeneration != meta.Generation {
		t.Fatalf("cancellation checkpoint: %+v, %v; want aligned generations", meta, err)
	}
	// All island goroutines must have exited when Run returned.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutine leak: %d before run, %d after", before, after)
	}
}

// TestDeadlineStopReason: an expired deadline maps to StopDeadline.
func TestDeadlineStopReason(t *testing.T) {
	eval, pop := testPopulation(t)
	r, err := New(context.Background(), eval, pop, Config{Islands: 2, Engine: core.Config{Generations: 1 << 20, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	res, err := r.Run(ctx)
	if err == nil {
		t.Fatal("deadline run returned nil error")
	}
	if res.StopReason != core.StopDeadline {
		t.Fatalf("stop reason = %q, want %q", res.StopReason, core.StopDeadline)
	}
}

// TestEventFeed: the callback feed must deliver per-island ordered events
// ending in one Done event per island.
func TestEventFeed(t *testing.T) {
	eval, pop := testPopulation(t)
	lastGen := map[int]int{}
	doneSeen := map[int]bool{}
	r, err := New(context.Background(), eval, pop, Config{
		Islands:      2,
		MigrateEvery: 5,
		Engine:       core.Config{Generations: 12, Seed: 11},
		OnEvent: func(ev Event) {
			if ev.Done {
				doneSeen[ev.Island] = true
				if ev.Stop != core.StopCompleted {
					t.Errorf("island %d done with stop %q", ev.Island, ev.Stop)
				}
				return
			}
			if ev.Stats.Gen != lastGen[ev.Island]+1 {
				t.Errorf("island %d events out of order: %d after %d", ev.Island, ev.Stats.Gen, lastGen[ev.Island])
			}
			lastGen[ev.Island] = ev.Stats.Gen
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if lastGen[i] != 12 {
			t.Fatalf("island %d streamed %d generations, want 12", i, lastGen[i])
		}
		if !doneSeen[i] {
			t.Fatalf("island %d never sent a Done event", i)
		}
	}
}

// TestStagnationStopsIslands: with a tight window every island stops early
// and the run reports stagnation.
func TestStagnationStopsIslands(t *testing.T) {
	eval, pop := testPopulation(t)
	r, err := New(context.Background(), eval, pop, Config{
		Islands:      2,
		MigrateEvery: 50,
		Engine:       core.Config{Generations: 5000, Seed: 13, NoImprovementWindow: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Generations == 5000 {
		t.Skip("no island stagnated in 5000 generations; extremely unlikely but not a failure")
	}
	if res.StopReason != core.StopStagnated {
		t.Fatalf("stop reason = %q", res.StopReason)
	}
}

// TestSnapshotResume: a resumed multi-island runner continues every
// island's identical stochastic trajectory.
func TestSnapshotResume(t *testing.T) {
	const n, m = 20, 20
	cfg := func(gens int) Config {
		return Config{Islands: 2, MigrateEvery: 10, Engine: core.Config{Generations: gens, Seed: 17}}
	}
	eval, pop := testPopulation(t)
	ref, err := New(context.Background(), eval, pop, cfg(n+m))
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	first, err := New(context.Background(), eval, pop, cfg(n))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := first.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	resumed, err := Resume(eval, &buf, cfg(m))
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Islands() != 2 || resumed.Generation() != n {
		t.Fatalf("resumed %d islands at generation %d", resumed.Islands(), resumed.Generation())
	}
	resRes, err := resumed.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := range refRes.Islands {
		a := stripTimes(refRes.Islands[i].History)
		b := stripTimes(resRes.Islands[i].History)
		if len(a) != n+m || len(b) != n+m {
			t.Fatalf("island %d history lengths %d vs %d, want %d", i, len(a), len(b), n+m)
		}
		for g := range a {
			if a[g] != b[g] {
				t.Fatalf("island %d generation %d diverged after resume", i, g+1)
			}
		}
	}
	if !refRes.Best.Data.Equal(resRes.Best.Data) {
		t.Fatal("best diverged after snapshot/resume")
	}
}

// TestResumeRejectsCorruptSnapshots: version and shape checks.
func TestResumeRejectsCorruptSnapshots(t *testing.T) {
	eval, pop := testPopulation(t)
	r, err := New(context.Background(), eval, pop, Config{Islands: 2, Engine: core.Config{Generations: 5, Seed: 19}})
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
	good := buf.String()
	for name, payload := range map[string]string{
		"not json":      "{broken",
		"wrong version": `{"version":99,"islands":1,"engines":[]}`,
		"shape lie":     `{"version":1,"islands":3,"engines":[]}`,
	} {
		if _, err := Resume(eval, bytes.NewReader([]byte(payload)), Config{Engine: core.Config{Generations: 5}}); err == nil {
			t.Errorf("%s: corrupt snapshot accepted", name)
		}
	}
	if _, err := Resume(eval, bytes.NewReader([]byte(good)), Config{Engine: core.Config{Generations: 5, Seed: 19}}); err != nil {
		t.Errorf("good snapshot rejected: %v", err)
	}
}

// TestConfigValidation: bad knobs are rejected, zero values default.
func TestConfigValidation(t *testing.T) {
	eval, pop := testPopulation(t)
	for name, cfg := range map[string]Config{
		"negative islands":  {Islands: -1, Engine: core.Config{Generations: 5}},
		"negative epoch":    {MigrateEvery: -5, Engine: core.Config{Generations: 5}},
		"negative migrants": {Migrants: -2, Engine: core.Config{Generations: 5}},
		"bad topology":      {Topology: Topology(9), Engine: core.Config{Generations: 5}},
		"bad engine":        {Engine: core.Config{Generations: -3}},
	} {
		if _, err := New(context.Background(), eval, pop, cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	r, err := New(context.Background(), eval, pop, Config{Engine: core.Config{Generations: 5, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Islands() != 1 {
		t.Fatalf("default islands = %d", r.Islands())
	}
	if r.cfg.MigrateEvery != DefaultMigrateEvery || r.cfg.Migrants != DefaultMigrants {
		t.Fatalf("defaults not applied: %+v", r.cfg)
	}
	if topo, err := TopologyByName("ring"); err != nil || topo != Ring {
		t.Errorf("TopologyByName(ring) = %v, %v", topo, err)
	}
	if topo, err := TopologyByName("broadcast"); err != nil || topo != Broadcast {
		t.Errorf("TopologyByName(broadcast) = %v, %v", topo, err)
	}
	if Ring.String() != "ring" || Broadcast.String() != "broadcast" || Topology(9).String() == "" {
		t.Error("topology naming broken")
	}
	if _, err := TopologyByName("star"); err == nil {
		t.Error("unknown topology name accepted")
	}
}

// TestEventSequenceNumbers: the feed numbers events contiguously in
// emission order from Config.FirstSeq, across islands and Done events —
// the offset space replayable event logs rely on.
func TestEventSequenceNumbers(t *testing.T) {
	for _, first := range []uint64{0, 1234} {
		eval, pop := testPopulation(t)
		var events []Event
		r, err := New(context.Background(), eval, pop, Config{
			Islands:      3,
			MigrateEvery: 4,
			Engine:       core.Config{Generations: 10, Seed: 5},
			OnEvent:      func(ev Event) { events = append(events, ev) },
			FirstSeq:     first,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		want := 3*10 + 3 // per-generation events plus one Done per island
		if len(events) != want {
			t.Fatalf("FirstSeq %d: got %d events, want %d", first, len(events), want)
		}
		for i, ev := range events {
			if ev.Seq != first+uint64(i) {
				t.Fatalf("event %d has Seq %d, want %d", i, ev.Seq, first+uint64(i))
			}
		}
	}
}

// TestEmitInjectsRunnerLevelEvents: OnEpoch hooks can push their own
// events through the feed, serialized and numbered with island traffic.
func TestEmitInjectsRunnerLevelEvents(t *testing.T) {
	eval, pop := testPopulation(t)
	var (
		mu     sync.Mutex
		events []Event
	)
	r, err := New(context.Background(), eval, pop, Config{
		Islands:      2,
		MigrateEvery: 5,
		Engine:       core.Config{Generations: 10, Seed: 9},
		OnEvent: func(ev Event) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		},
		OnEpoch: func(ir *Runner) { ir.Emit(Event{Island: -1, Err: "synthetic"}) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	injected := 0
	for i, ev := range events {
		if ev.Seq != uint64(i) {
			t.Fatalf("event %d has Seq %d; injected events must share the numbering", i, ev.Seq)
		}
		if ev.Island == -1 {
			injected++
			if ev.Err != "synthetic" {
				t.Fatalf("injected event lost its payload: %+v", ev)
			}
		}
	}
	if injected == 0 {
		t.Fatal("no injected runner-level events observed")
	}
}

// TestPeekReadsCheckpointMetadata: Peek reports island count and the
// generation marker without an evaluator, matching what a Resume would
// report.
func TestPeekReadsCheckpointMetadata(t *testing.T) {
	eval, pop := testPopulation(t)
	r, err := New(context.Background(), eval, pop, Config{
		Islands:      3,
		MigrateEvery: 5,
		Engine:       core.Config{Generations: 17, Seed: 3},
	})
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
	meta, err := Peek(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if meta.Islands != 3 {
		t.Fatalf("Peek islands = %d, want 3", meta.Islands)
	}
	if meta.Generation != r.Generation() {
		t.Fatalf("Peek generation = %d, runner reports %d", meta.Generation, r.Generation())
	}
	if meta.MinGeneration != meta.Generation {
		t.Fatalf("barrier checkpoint has MinGeneration %d != Generation %d", meta.MinGeneration, meta.Generation)
	}
	if _, err := Peek(bytes.NewReader([]byte("{\"version\":99}\n"))); err == nil {
		t.Fatal("Peek accepted a snapshot from the future")
	}
}
