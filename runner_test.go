package evoprot

// Tests for the context-aware Runner API: option plumbing, the
// old-versus-new trajectory equivalence property, island determinism,
// cancellation semantics and checkpointing through the facade.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"evoprot/internal/experiment"
	"evoprot/internal/islands"
)

// TestRunMatchesLegacyEngineTrajectory is the redesign's acceptance
// property: a single-island run through the new ctx-first API must be
// bit-identical to the old Engine.Run() trajectory for the same seed,
// across seeds.
func TestRunMatchesLegacyEngineTrajectory(t *testing.T) {
	for _, seed := range []uint64{5, 11, 77} {
		orig, _ := GenerateDataset("flare", 80, seed)
		attrs, _ := ProtectedAttributes("flare")

		// Old path: hand-built engine, blocking Run.
		eval, err := NewEvaluator(orig, attrs, EvaluatorConfig{})
		if err != nil {
			t.Fatal(err)
		}
		idx, _ := orig.Schema().Indices(attrs...)
		pop, err := experiment.BuildPopulation(orig, idx, "flare", seed)
		if err != nil {
			t.Fatal(err)
		}
		engine, err := NewEngine(eval, pop, EngineConfig{Generations: 30, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := engine.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}

		// New path: ctx-first options API, one island.
		res, err := Run(context.Background(), orig, attrs,
			WithGrid("flare"),
			WithGenerations(30),
			WithSeed(seed),
			WithIslands(1),
		)
		if err != nil {
			t.Fatal(err)
		}
		got := res.Islands[0]
		if len(ref.History) != len(got.History) {
			t.Fatalf("seed %d: history lengths %d vs %d", seed, len(ref.History), len(got.History))
		}
		for i := range ref.History {
			a, b := ref.History[i], got.History[i]
			a.EvalTime, a.TotalTime = 0, 0
			b.EvalTime, b.TotalTime = 0, 0
			if a != b {
				t.Fatalf("seed %d generation %d diverged:\nold: %+v\nnew: %+v", seed, i+1, a, b)
			}
		}
		if !ref.Best.Data.Equal(res.Best.Data) {
			t.Fatalf("seed %d: best individuals diverged", seed)
		}
	}
}

func TestRunMultiIslandDeterministicThroughFacade(t *testing.T) {
	orig, _ := GenerateDataset("flare", 80, 3)
	attrs, _ := ProtectedAttributes("flare")
	once := func() *RunResult {
		res, err := Run(context.Background(), orig, attrs,
			WithGrid("flare"),
			WithGenerations(20),
			WithSeed(9),
			WithIslands(3),
			WithMigration(5, 2),
			WithTopology(Broadcast),
		)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := once(), once()
	if a.Best.Eval.Score != b.Best.Eval.Score || a.BestIsland != b.BestIsland || a.Migrations != b.Migrations {
		t.Fatalf("multi-island facade runs diverged: %+v vs %+v",
			[3]any{a.Best.Eval.Score, a.BestIsland, a.Migrations},
			[3]any{b.Best.Eval.Score, b.BestIsland, b.Migrations})
	}
	if !a.Best.Data.Equal(b.Best.Data) {
		t.Fatal("best protection data diverged between identical runs")
	}
	if len(a.Islands) != 3 {
		t.Fatalf("islands = %d", len(a.Islands))
	}
}

func TestRunnerCancellationPartialResult(t *testing.T) {
	orig, _ := GenerateDataset("flare", 80, 7)
	attrs, _ := ProtectedAttributes("flare")
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	events := 0
	res, err := Run(ctx, orig, attrs,
		WithGrid("flare"),
		WithGenerations(1<<20),
		WithSeed(7),
		WithProgress(func(ev Event) {
			mu.Lock()
			defer mu.Unlock()
			events++
			if events == 10 {
				cancel()
			}
		}),
	)
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if res == nil || res.Best == nil {
		t.Fatal("cancelled run lost its partial result")
	}
	if res.StopReason != StopCancelled {
		t.Fatalf("stop reason = %q", res.StopReason)
	}
	got := res.Islands[0]
	if len(got.History) != got.Generations || got.Generations == 0 {
		t.Fatalf("partial history %d vs generations %d", len(got.History), got.Generations)
	}
}

func TestRunnerEventChannel(t *testing.T) {
	orig, _ := GenerateDataset("flare", 80, 13)
	attrs, _ := ProtectedAttributes("flare")
	ch := make(chan Event, 128)
	var wg sync.WaitGroup
	wg.Add(1)
	gens, dones := 0, 0
	go func() {
		defer wg.Done()
		for ev := range ch {
			if ev.Done {
				dones++
				continue
			}
			gens++
		}
	}()
	_, err := Run(context.Background(), orig, attrs,
		WithGrid("flare"), WithGenerations(12), WithSeed(13), WithIslands(2), WithEvents(ch))
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if gens != 24 || dones != 2 {
		t.Fatalf("streamed %d generation events and %d done events, want 24 and 2", gens, dones)
	}
}

func TestRunnerCheckpointAndResume(t *testing.T) {
	orig, _ := GenerateDataset("flare", 80, 21)
	attrs, _ := ProtectedAttributes("flare")
	opts := func(gens int) []Option {
		return []Option{WithGrid("flare"), WithGenerations(gens), WithSeed(21), WithIslands(2), WithMigration(5, 2)}
	}
	r1, err := NewRunner(orig, attrs, opts(10)...)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Generation() != 0 || r1.Islands() != 2 {
		t.Fatalf("fresh runner: gen %d, islands %d", r1.Generation(), r1.Islands())
	}
	if err := r1.Snapshot(&bytes.Buffer{}); err == nil {
		t.Fatal("snapshot before first run accepted")
	}
	if _, err := r1.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r1.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	r2, err := NewRunner(orig, attrs, opts(10)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.Resume(&buf); err != nil {
		t.Fatal(err)
	}
	if r2.Generation() != 10 {
		t.Fatalf("resumed at generation %d", r2.Generation())
	}
	res, err := r2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, ir := range res.Islands {
		if len(ir.History) != 20 {
			t.Fatalf("island %d history = %d, want 20", i, len(ir.History))
		}
	}
}

func TestNewRunnerValidation(t *testing.T) {
	orig, _ := GenerateDataset("flare", 50, 17)
	attrs, _ := ProtectedAttributes("flare")
	if _, err := NewRunner(orig, attrs); err == nil {
		t.Error("missing grid and seeds accepted")
	}
	if _, err := NewRunner(orig, attrs, WithSeeds(orig)); err == nil {
		t.Error("single seed accepted")
	}
	if _, err := NewRunner(orig, []string{"GHOST"}, WithGrid("flare")); err == nil {
		t.Error("unknown attribute accepted")
	}
	// A repeated attribute once ran on delta scores that disagreed with
	// full evaluation.
	repeated := []string{attrs[0], attrs[0], attrs[1]}
	if _, err := NewRunner(orig, repeated, WithGrid("flare")); err == nil {
		t.Error("repeated attribute accepted")
	}
	if _, err := NewRunner(orig, repeated, WithSeeds(orig, orig.Clone())); err == nil {
		t.Error("repeated attribute with explicit seeds accepted")
	}
	if _, err := NewRunner(orig, attrs, WithGrid("flare"), WithAggregator("median")); err == nil {
		t.Error("unknown aggregator accepted")
	}
	if _, err := NewRunner(orig, attrs, WithGrid("flare"), WithSelection("tournament")); err == nil {
		t.Error("unknown selection accepted")
	}
	if _, err := Run(context.Background(), orig, attrs, WithGrid("flare"), WithGenerations(5), WithIslands(-1)); err == nil {
		t.Error("negative island count accepted")
	}
}

// TestValidationParity: every invalid run value is rejected both by the
// functional options at NewRunner and by JobSpec.Validate (and so by
// JobSpec.Options) — admission and run time share one check.
func TestValidationParity(t *testing.T) {
	orig, _ := GenerateDataset("flare", 40, 17)
	attrs, _ := ProtectedAttributes("flare")
	cases := []struct {
		name string
		opts []Option
		spec func(*JobSpec)
	}{
		{"negative generations", []Option{WithGenerations(-1)}, func(s *JobSpec) { s.Generations = -1 }},
		{"negative islands", []Option{WithIslands(-2)}, func(s *JobSpec) { s.Islands = -2 }},
		{"negative workers", []Option{WithWorkers(-1)}, func(s *JobSpec) { s.Workers = -1 }},
		{"negative early stop", []Option{WithEarlyStop(-1)}, func(s *JobSpec) { s.EarlyStop = -1 }},
		{"negative migrate-every", []Option{WithMigration(-1, 0)}, func(s *JobSpec) { s.MigrateEvery = -1 }},
		{"negative migrants", []Option{WithMigration(0, -1)}, func(s *JobSpec) { s.Migrants = -1 }},
		{"unknown aggregator", []Option{WithAggregator("median")}, func(s *JobSpec) { s.Aggregator = "median" }},
		{"NaN aggregator weight", []Option{WithAggregator("weighted:NaN")}, func(s *JobSpec) { s.Aggregator = "weighted:NaN" }},
		{"trailing aggregator text", []Option{WithAggregator("weighted:0.5junk")}, func(s *JobSpec) { s.Aggregator = "weighted:0.5junk" }},
		{"unknown selection", []Option{WithSelection("tournament")}, func(s *JobSpec) { s.Selection = "tournament" }},
		{"unknown topology", []Option{WithTopology(Topology(7))}, func(s *JobSpec) { s.Topology = "star" }},
		{"unknown grid", []Option{WithGrid("nosuch")}, func(s *JobSpec) { s.Grid = "nosuch" }},
		{"unknown objective", []Option{WithObjective("lexicographic")}, func(s *JobSpec) { s.Objective = "lexicographic" }},
		{"unknown niches", []Option{WithIslands(2), WithNiches("nope")}, func(s *JobSpec) { s.Islands, s.Niches = 2, "nope" }},
		{"bad per-island selection", []Option{WithPerIsland(IslandConfig{Selection: "bogus"})},
			func(s *JobSpec) { s.PerIsland = []IslandConfig{{Selection: "bogus"}} }},
		{"negative pareto_ref", []Option{WithObjective("pareto"), WithParetoRef(-5, 100)},
			func(s *JobSpec) { s.Objective, s.ParetoRef = "pareto", &ParetoRef{IL: -5, DR: 100} }},
		{"non-finite pareto_ref", []Option{WithParetoRef(math.Inf(1), 100)},
			func(s *JobSpec) { s.ParetoRef = &ParetoRef{IL: math.Inf(1), DR: 100} }},
	}
	base := JobSpec{Dataset: "flare", Grid: "flare", Generations: 5}
	if err := base.Validate(); err != nil {
		t.Fatalf("base spec rejected: %v", err)
	}
	if _, err := NewRunner(orig, attrs, WithGrid("flare"), WithGenerations(5)); err != nil {
		t.Fatalf("base options rejected: %v", err)
	}
	for _, c := range cases {
		opts := append([]Option{WithGrid("flare"), WithGenerations(5)}, c.opts...)
		if _, err := NewRunner(orig, attrs, opts...); err == nil {
			t.Errorf("%s: accepted by NewRunner", c.name)
		}
		spec := base
		c.spec(&spec)
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: accepted by JobSpec.Validate", c.name)
		}
		if _, err := spec.Options(); err == nil {
			t.Errorf("%s: accepted by JobSpec.Options", c.name)
		}
	}
}

// TestEffectiveMigrationBeforeRun: before the first Run the schedule in
// force is the configured one with the islands defaults filled in.
func TestEffectiveMigrationBeforeRun(t *testing.T) {
	orig, _ := GenerateDataset("flare", 40, 17)
	attrs, _ := ProtectedAttributes("flare")
	for _, c := range []struct {
		opts                   []Option
		wantEvery, wantMigrant int
	}{
		{nil, islands.DefaultMigrateEvery, islands.DefaultMigrants},
		{[]Option{WithMigration(10, 0)}, 10, islands.DefaultMigrants},
		{[]Option{WithMigration(0, 3)}, islands.DefaultMigrateEvery, 3},
		{[]Option{WithMigration(7, 4), WithAdaptiveMigration(AdaptiveMigration{})}, 7, 4},
	} {
		r, err := NewRunner(orig, attrs, append([]Option{WithGrid("flare"), WithIslands(2)}, c.opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		if every, migrants := r.EffectiveMigration(); every != c.wantEvery || migrants != c.wantMigrant {
			t.Errorf("EffectiveMigration() = (%d, %d), want (%d, %d)", every, migrants, c.wantEvery, c.wantMigrant)
		}
	}
}

// wideCSV returns a CSV file of rows records over cols two-category
// columns named Q0, Q1, ... and their names.
func wideCSV(cols, rows int) (string, []string) {
	var sb strings.Builder
	names := make([]string, cols)
	for c := range names {
		names[c] = fmt.Sprintf("Q%d", c)
	}
	sb.WriteString(strings.Join(names, ",") + "\n")
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString([]string{"lo", "hi"}[(r>>(c%5)+c)&1])
		}
		sb.WriteByte('\n')
	}
	return sb.String(), names
}

// TestNewRunnerRejectsTooManyPRLAttributes is the regression test for a
// job over more protected attributes than probabilistic record linkage
// supports: NewRunner (and so service admission) must refuse it with an
// error; it used to accept it and panic in the first Run's evaluation.
func TestNewRunnerRejectsTooManyPRLAttributes(t *testing.T) {
	csv, names := wideCSV(17, 40)
	orig, err := ReadCSV(strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRunner(orig, names, WithGrid("flare")); err == nil || !strings.Contains(err.Error(), "at most 16") {
		t.Fatalf("17 protected attributes: NewRunner error %v, want the PRL limit", err)
	}
	spec := JobSpec{DatasetCSV: csv, Attributes: names, Generations: 2}
	specOrig, err := spec.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	opts, err := spec.Options()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRunner(specOrig, spec.Attributes, opts...); err == nil {
		t.Fatal("17-attribute job spec accepted by NewRunner")
	}
	if _, err := NewRunner(orig, names[:16], WithGrid("flare")); err != nil {
		t.Fatalf("16 protected attributes refused: %v", err)
	}
}

// TestRunnerResumeAfterEventsRun: a Resume following a completed Run with
// WithEvents must not re-install the already-closed channel (regression:
// panic "send on closed channel").
func TestRunnerResumeAfterEventsRun(t *testing.T) {
	orig, _ := GenerateDataset("flare", 60, 29)
	attrs, _ := ProtectedAttributes("flare")
	ch := make(chan Event, 64)
	go func() {
		for range ch {
		}
	}()
	r, err := NewRunner(orig, attrs, WithGrid("flare"), WithGenerations(5), WithSeed(29), WithEvents(ch))
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
	if err := r.Resume(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if r.Generation() != 10 {
		t.Fatalf("generation after resume+run = %d, want 10", r.Generation())
	}
}

// TestRunnerCancelledDuringStartup: a context cancelled before Run must
// abort the initial-population evaluation, not just the generations.
func TestRunnerCancelledDuringStartup(t *testing.T) {
	orig, _ := GenerateDataset("flare", 60, 31)
	attrs, _ := ProtectedAttributes("flare")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(ctx, orig, attrs, WithGrid("flare"), WithGenerations(50), WithSeed(31))
	if err == nil {
		t.Fatal("cancelled startup returned nil error")
	}
	if res != nil {
		t.Fatalf("cancelled startup returned a result: %+v", res)
	}
}

func TestRunnerCustomAggregator(t *testing.T) {
	orig, _ := GenerateDataset("flare", 60, 19)
	attrs, _ := ProtectedAttributes("flare")
	res, err := Run(context.Background(), orig, attrs,
		WithGrid("flare"), WithGenerations(8), WithSeed(19), WithCustomAggregator(Mean{}))
	if err != nil {
		t.Fatal(err)
	}
	best := res.Best.Eval
	want := (best.IL + best.DR) / 2
	if diff := best.Score - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("score %v != mean combination %v", best.Score, want)
	}
}

// TestDefaultsAreSingleSourced: with no generation/aggregator options the
// run uses core.DefaultGenerations and the max aggregation — the values no
// longer duplicated in the facade.
func TestDefaultsAreSingleSourced(t *testing.T) {
	orig, _ := GenerateDataset("flare", 50, 23)
	attrs, _ := ProtectedAttributes("flare")
	r, err := NewRunner(orig, attrs, WithGrid("flare"), WithSeed(23), WithEarlyStop(2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	best := res.Best.Eval
	var max float64
	if best.IL > best.DR {
		max = best.IL
	} else {
		max = best.DR
	}
	if best.Score != max {
		t.Fatalf("default aggregator is not max: score %v, IL %v, DR %v", best.Score, best.IL, best.DR)
	}
	if res.Islands[0].Generations > 400 {
		t.Fatalf("default budget exceeded 400: %d", res.Islands[0].Generations)
	}
}

// TestRunnerSlowEventConsumerCheckpoint: a slow Events consumer slows a
// run down (sends are blocking by contract) but must never deadlock
// checkpoint writes — barriers and emissions are ordered, never
// entangled. The checkpoint written under backpressure must also be a
// valid resume point.
func TestRunnerSlowEventConsumerCheckpoint(t *testing.T) {
	orig, _ := GenerateDataset("flare", 80, 33)
	attrs, _ := ProtectedAttributes("flare")
	ckpt := filepath.Join(t.TempDir(), "slow.ckpt")
	ch := make(chan Event) // unbuffered: every send waits on the consumer
	received := make(chan int)
	go func() {
		n := 0
		for ev := range ch {
			time.Sleep(500 * time.Microsecond) // a deliberately slow consumer
			_ = ev
			n++
		}
		received <- n
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := Run(ctx, orig, attrs,
		WithGrid("flare"),
		WithGenerations(20),
		WithSeed(33),
		WithIslands(2),
		WithMigration(5, 2),
		WithEvents(ch),
		WithCheckpoint(ckpt, 1),
	)
	if err != nil {
		t.Fatalf("run under consumer backpressure: %v", err)
	}
	if res.StopReason != StopCompleted {
		t.Fatalf("stop reason %s", res.StopReason)
	}
	if n := <-received; n != 2*20+2 {
		t.Fatalf("consumer saw %d events, want %d", n, 2*20+2)
	}
	f, err := os.Open(ckpt)
	if err != nil {
		t.Fatalf("checkpoint missing after slow-consumer run: %v", err)
	}
	defer f.Close()
	meta, err := PeekCheckpoint(f)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Islands != 2 || meta.Generation != 20 {
		t.Fatalf("checkpoint meta %+v, want 2 islands at generation 20", meta)
	}
	r, err := NewRunner(orig, attrs, WithGrid("flare"), WithGenerations(10), WithSeed(33), WithIslands(2), WithMigration(5, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.Resume(f); err != nil {
		t.Fatalf("checkpoint written under backpressure does not resume: %v", err)
	}
}

// TestRunnerCheckpointFailureSurfaced: mid-run checkpoint write failures
// must not vanish (regression: they were discarded with `_ =`). They
// surface twice — live on the event feed as Island -1 events, and in the
// final error join as ErrCheckpoint.
func TestRunnerCheckpointFailureSurfaced(t *testing.T) {
	orig, _ := GenerateDataset("flare", 80, 41)
	attrs, _ := ProtectedAttributes("flare")
	// A path whose directory does not exist: every write fails.
	ckpt := filepath.Join(t.TempDir(), "missing-dir", "x.ckpt")
	var (
		mu       sync.Mutex
		ckptEvts int
		seqs     []uint64
	)
	res, err := Run(context.Background(), orig, attrs,
		WithGrid("flare"),
		WithGenerations(10),
		WithSeed(41),
		WithIslands(2),
		WithMigration(5, 2),
		WithCheckpoint(ckpt, 1),
		WithProgress(func(ev Event) {
			mu.Lock()
			defer mu.Unlock()
			seqs = append(seqs, ev.Seq)
			if ev.Err != "" {
				if ev.Island != -1 {
					t.Errorf("checkpoint-failure event carries island %d, want -1", ev.Island)
				}
				ckptEvts++
			}
		}),
	)
	if res == nil {
		t.Fatal("run result discarded on checkpoint failure")
	}
	if err == nil {
		t.Fatal("checkpoint write failures silently discarded")
	}
	if !errors.Is(err, ErrCheckpoint) {
		t.Fatalf("error %v does not wrap ErrCheckpoint", err)
	}
	if ckptEvts == 0 {
		t.Fatal("no checkpoint-failure events on the feed")
	}
	for i, s := range seqs {
		if s != uint64(i) {
			t.Fatalf("event %d has seq %d; injected failure events must share the numbering", i, s)
		}
	}
	if res.StopReason != StopCompleted {
		t.Fatalf("run did not complete despite failing checkpoints: %s", res.StopReason)
	}
}

// TestResumeResetsCheckpointCadence: Resume must re-anchor the periodic
// checkpoint counter to the resumed generation (regression: a Runner
// that had already progressed further kept its old high-water mark, so
// the resumed leg ran without mid-run checkpoints until it caught up).
func TestResumeResetsCheckpointCadence(t *testing.T) {
	orig, _ := GenerateDataset("flare", 80, 55)
	attrs, _ := ProtectedAttributes("flare")
	opts := func(gens int) []Option {
		return []Option{WithGrid("flare"), WithGenerations(gens), WithSeed(55),
			WithCheckpoint(filepath.Join(t.TempDir(), "c.ckpt"), 5), WithMigration(5, 0)}
	}
	r0, err := NewRunner(orig, attrs, opts(10)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r0.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	var early bytes.Buffer
	if err := r0.Snapshot(&early); err != nil {
		t.Fatal(err)
	}

	r1, err := NewRunner(orig, attrs, opts(40)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r1.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if r1.lastCkpt != 40 {
		t.Fatalf("after a 40-generation run lastCkpt = %d", r1.lastCkpt)
	}
	if err := r1.Resume(bytes.NewReader(early.Bytes())); err != nil {
		t.Fatal(err)
	}
	if r1.lastCkpt != 10 {
		t.Fatalf("after resuming a generation-10 snapshot lastCkpt = %d, want 10", r1.lastCkpt)
	}
}
