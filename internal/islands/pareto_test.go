package islands

// Determinism gates for the heterogeneous scalar/Pareto split: a fixed
// top-level seed reproduces a mixed-objective archipelago bit for bit —
// per-island histories, front payloads and the event feed — and a barrier
// snapshot resumes onto the uninterrupted run's exact trajectory with the
// objective overrides restored from the checkpoint itself.

import (
	"bytes"
	"context"
	"encoding/json"
	"slices"
	"testing"

	"evoprot/internal/core"
	"evoprot/internal/pareto"
	"evoprot/internal/score"
)

// paretoNicheConfig builds the canonical mixed-objective run: three
// islands with a scalar/Pareto split (0 and 2 scalarized, 1 NSGA-II) and
// ring migration crossing the objective boundary every epoch.
func paretoNicheConfig(t *testing.T, gens int) Config {
	t.Helper()
	return Config{
		Islands:      3,
		MigrateEvery: 5,
		Migrants:     2,
		Topology:     Ring,
		Engine:       core.Config{Generations: gens, Seed: 31},
		PerIsland:    []core.Config{{}, {Objective: core.ObjectivePareto}, {}},
	}
}

// TestScalarParetoNicheDeterminism: two runs under the same seed must be
// bit-identical, and the objective split must actually hold — Pareto
// islands stream front payloads, scalar islands never do.
func TestScalarParetoNicheDeterminism(t *testing.T) {
	cfg := paretoNicheConfig(t, 30)
	ev1, res1 := collectEvents(t, cfg)
	ev2, res2 := collectEvents(t, cfg)
	sameEvents(t, "scalar-pareto", ev1, ev2)
	sameResults(t, "scalar-pareto", res1, res2)
	for i, isl := range res1.Islands {
		pareto := i%2 == 1
		for g, gs := range isl.History {
			if pareto && gs.Front == nil {
				t.Fatalf("pareto island %d generation %d carries no front", i, g+1)
			}
			if !pareto && gs.Front != nil {
				t.Fatalf("scalar island %d generation %d carries a front: %+v", i, g+1, gs.Front)
			}
			if pareto && (gs.Front.Size < 1 || gs.Front.Size != len(gs.Front.Pairs)) {
				t.Fatalf("island %d generation %d front inconsistent: %+v", i, g+1, gs.Front)
			}
		}
	}
}

// TestScalarParetoSnapshotResume: a barrier snapshot of a mixed-objective
// run must resume — without PerIsland, the overrides come from the
// checkpoint — onto the uninterrupted trajectory, fronts included.
func TestScalarParetoSnapshotResume(t *testing.T) {
	const total = 30
	eval, pop := testPopulation(t)

	var (
		buf      bytes.Buffer
		cutGen   int
		barriers int
	)
	cfg := paretoNicheConfig(t, total)
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

	rcfg := paretoNicheConfig(t, total-cutGen)
	rcfg.PerIsland = nil
	resumed, err := Resume(eval, bytes.NewReader(buf.Bytes()), rcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := resumed.IslandConfigs()
	if len(cfgs) != 3 || cfgs[0].Objective == core.ObjectivePareto || cfgs[1].Objective != core.ObjectivePareto {
		t.Fatalf("snapshot did not restore the objective split: %+v", cfgs)
	}
	resRes, err := resumed.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "scalar-pareto snapshot/resume", refRes, resRes)
}

// TestParetoSnapshotVersion: objective-carrying overrides stamp the new
// layout version; objective-free heterogeneous checkpoints keep stamping
// version 2 so older builds still read them.
func TestParetoSnapshotVersion(t *testing.T) {
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
	if v := version(paretoNicheConfig(t, 10)); v != 3 {
		t.Fatalf("pareto-niche snapshot is version %d, want 3", v)
	}
	withRef := paretoNicheConfig(t, 10)
	withRef.PerIsland[1].ParetoRef = core.DefaultParetoRef
	if v := version(withRef); v != 3 {
		t.Fatalf("pareto-ref snapshot is version %d, want 3", v)
	}
}

// TestLegacyRouteKnobsInCheckpointIgnored: version-3 checkpoints written
// while overrides could still carry the evaluation-route knobs
// ("disable_delta", "lazy_prepare") resume exactly like the same
// checkpoint without them — the knobs never changed a result, so
// decoding drops them.
func TestLegacyRouteKnobsInCheckpointIgnored(t *testing.T) {
	eval, pop := testPopulation(t)
	r, err := New(context.Background(), eval, pop, paretoNicheConfig(t, 10))
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
	var snap map[string]any
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap["version"] != float64(3) {
		t.Fatalf("snapshot version = %v, want 3", snap["version"])
	}
	for _, c := range snap["configs"].([]any) {
		c.(map[string]any)["disable_delta"] = true
		c.(map[string]any)["lazy_prepare"] = true
	}
	legacy, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	resume := func(raw []byte) *Result {
		t.Helper()
		cfg := paretoNicheConfig(t, 10)
		cfg.PerIsland = nil
		rr, err := Resume(eval, bytes.NewReader(raw), cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := rr.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	sameResults(t, "legacy route knobs", resume(buf.Bytes()), resume(legacy))
}

// TestParetoResultFrontIsFinal: the runner migrates after the final
// epoch too, so an island's last generation can describe a population
// that no longer exists. Each island's Result.Front must be the front of
// its final population; the last history front is stale in most of
// these runs, which is what makes the check bite.
func TestParetoResultFrontIsFinal(t *testing.T) {
	eval, pop := testPopulation(t)
	stale := 0
	for seed := uint64(1); seed <= 20; seed++ {
		r, err := New(context.Background(), eval, pop, Config{
			Islands:      2,
			MigrateEvery: 5,
			Topology:     Ring,
			Engine:       core.Config{Generations: 20, Seed: seed, Objective: core.ObjectivePareto},
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for i, isl := range res.Islands {
			pairs := make([]score.Pair, len(isl.Population))
			for k, ind := range isl.Population {
				pairs[k] = ind.Eval.Pair()
			}
			want := pareto.Front(pairs)
			hv, err := pareto.Hypervolume(want, core.DefaultParetoRef)
			if err != nil {
				t.Fatal(err)
			}
			f := isl.Front
			if f == nil || f.Size != len(want) || f.Hypervolume != hv || !slices.Equal(f.Pairs, want) {
				t.Fatalf("seed %d island %d: result front %+v, final population's front %v (hypervolume %v)", seed, i, f, want, hv)
			}
			if last := isl.History[len(isl.History)-1].Front; !slices.Equal(last.Pairs, want) {
				stale++
			}
		}
	}
	if stale == 0 {
		t.Fatal("no run migrated onto its final front; the check has no teeth")
	}
}
