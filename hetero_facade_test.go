package evoprot

// Facade-level coverage of heterogeneous islands: option plumbing, the homogeneous-equivalence property through the
// public API, checkpointing of heterogeneous runs, and the JobSpec wire
// format with its admission-time validation.

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"
)

func sameRunResults(t *testing.T, label string, a, b *RunResult) {
	t.Helper()
	if len(a.Islands) != len(b.Islands) {
		t.Fatalf("%s: island counts %d vs %d", label, len(a.Islands), len(b.Islands))
	}
	for i := range a.Islands {
		x, y := a.Islands[i].History, b.Islands[i].History
		if len(x) != len(y) {
			t.Fatalf("%s: island %d history lengths %d vs %d", label, i, len(x), len(y))
		}
		for g := range x {
			gx, gy := x[g], y[g]
			gx.EvalTime, gx.TotalTime, gy.EvalTime, gy.TotalTime = 0, 0, 0, 0
			if gx != gy {
				t.Fatalf("%s: island %d generation %d diverged", label, i, g+1)
			}
		}
	}
	if a.Best.Eval.Score != b.Best.Eval.Score || !a.Best.Data.Equal(b.Best.Data) {
		t.Fatalf("%s: best individuals diverged", label)
	}
}

// TestFacadeHomogeneousEquivalence: WithPerIsland with all-empty
// overrides is bit-identical to the plain
// homogeneous run through the public API.
func TestFacadeHomogeneousEquivalence(t *testing.T) {
	orig, _ := GenerateDataset("flare", 80, 3)
	attrs, _ := ProtectedAttributes("flare")
	base := []Option{WithGrid("flare"), WithGenerations(20), WithSeed(9), WithIslands(3), WithMigration(5, 2)}
	ref, err := Run(context.Background(), orig, attrs, base...)
	if err != nil {
		t.Fatal(err)
	}
	over, err := Run(context.Background(), orig, attrs,
		append(append([]Option{}, base...), WithPerIsland(IslandConfig{}, IslandConfig{}, IslandConfig{}))...)
	if err != nil {
		t.Fatal(err)
	}
	sameRunResults(t, "facade all-empty overrides", ref, over)
	if ref.Migrations != over.Migrations {
		t.Fatalf("migrations %d vs %d", ref.Migrations, over.Migrations)
	}
}

// TestFacadeHeterogeneousDeterminism: a niched broadcast run through the
// public API reproduces bit for bit from its seed, feed included.
func TestFacadeHeterogeneousDeterminism(t *testing.T) {
	orig, _ := GenerateDataset("flare", 80, 5)
	attrs, _ := ProtectedAttributes("flare")
	once := func() (*RunResult, int) {
		var (
			mu     sync.Mutex
			events int
		)
		res, err := Run(context.Background(), orig, attrs,
			WithGrid("flare"),
			WithGenerations(30),
			WithSeed(5),
			WithPerIsland(
				IslandConfig{},
				IslandConfig{MutationRate: 0.5, LeaderFraction: 0.15},
				IslandConfig{MutationRate: 0.75, LeaderFraction: 0.25, Selection: "uniform"},
			),
			WithMigration(5, 2),
			WithTopology(Broadcast),
			WithProgress(func(ev Event) {
				mu.Lock()
				defer mu.Unlock()
				events++
			}),
		)
		if err != nil {
			t.Fatal(err)
		}
		return res, events
	}
	a, ae := once()
	b, be := once()
	sameRunResults(t, "facade heterogeneous", a, b)
	if ae != be || ae == 0 {
		t.Fatalf("events %d vs %d", ae, be)
	}
}

// TestFacadeExplicitDefaultSelectionOverrides: an override naming the
// default selection policy replaces a shared policy that is not the
// default. Under "selection":"rank", per_island
// [{},{"selection":"inverse-proportional"}] runs island 1 with the
// inverse-proportional policy: the run equals one whose shared policy is
// inverse-proportional and whose island 0 overrides it with rank.
func TestFacadeExplicitDefaultSelectionOverrides(t *testing.T) {
	run := func(raw string) *RunResult {
		t.Helper()
		var spec JobSpec
		if err := json.Unmarshal([]byte(raw), &spec); err != nil {
			t.Fatal(err)
		}
		orig, err := spec.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		opts, err := spec.Options()
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), orig, spec.Attributes, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	const base = `{"dataset":"flare","rows":80,"generations":30,"seed":5,"migrate_every":5,`
	explicit := run(base + `"selection":"rank","per_island":[{},{"selection":"inverse-proportional"}]}`)
	shared := run(base + `"per_island":[{"selection":"rank"},{}]}`)
	sameRunResults(t, "explicit default selection", explicit, shared)
}

// TestFacadePerIslandImpliesIslandCount: WithPerIsland without
// WithIslands runs one island per override.
func TestFacadePerIslandImpliesIslandCount(t *testing.T) {
	orig, _ := GenerateDataset("flare", 60, 7)
	attrs, _ := ProtectedAttributes("flare")
	res, err := Run(context.Background(), orig, attrs,
		WithGrid("flare"), WithGenerations(6), WithSeed(7),
		WithPerIsland(IslandConfig{}, IslandConfig{Selection: "rank"}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Islands) != 2 {
		t.Fatalf("implied island count = %d, want 2", len(res.Islands))
	}
}

// TestFacadeHeterogeneousCheckpointResume: a heterogeneous (fixed-
// schedule) run checkpoints and resumes onto the uninterrupted
// trajectory through the facade; PeekCheckpoint reads its island count.
func TestFacadeHeterogeneousCheckpointResume(t *testing.T) {
	orig, _ := GenerateDataset("flare", 80, 31)
	attrs, _ := ProtectedAttributes("flare")
	overrides := []IslandConfig{{}, {Selection: "rank", MutationRate: 0.7, Aggregator: "mean"}}
	opts := func(gens int) []Option {
		return []Option{WithGrid("flare"), WithGenerations(gens), WithSeed(31),
			WithMigration(5, 2), WithPerIsland(overrides...)}
	}
	ref, err := NewRunner(orig, attrs, opts(20)...)
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	r1, err := NewRunner(orig, attrs, opts(10)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r1.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r1.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	meta, err := PeekCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if meta.Islands != 2 {
		t.Fatalf("checkpoint meta %+v, want 2 islands", meta)
	}
	r2, err := NewRunner(orig, attrs, opts(10)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.Resume(&buf); err != nil {
		t.Fatal(err)
	}
	res, err := r2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sameRunResults(t, "facade heterogeneous resume", refRes, res)
}

// TestFacadeHeterogeneousValidation: bad heterogeneous setups fail at
// NewRunner, before any evaluation work.
func TestFacadeHeterogeneousValidation(t *testing.T) {
	orig, _ := GenerateDataset("flare", 50, 17)
	attrs, _ := ProtectedAttributes("flare")
	cases := map[string][]Option{
		"override count mismatch": {WithGrid("flare"), WithIslands(3), WithPerIsland(IslandConfig{}, IslandConfig{})},
		"override bad selection":  {WithGrid("flare"), WithPerIsland(IslandConfig{}, IslandConfig{Selection: "tournament"})},
		"override bad crowding":   {WithGrid("flare"), WithPerIsland(IslandConfig{}, IslandConfig{Crowding: "closest"})},
		"override bad aggregator": {WithGrid("flare"), WithPerIsland(IslandConfig{}, IslandConfig{Aggregator: "median"})},
	}
	for name, options := range cases {
		if _, err := NewRunner(orig, attrs, options...); err == nil {
			t.Errorf("%s accepted by NewRunner", name)
		}
	}
	if _, err := NewRunner(orig, attrs, WithGrid("flare"), WithTopology(Broadcast),
		WithPerIsland(IslandConfig{}, IslandConfig{Aggregator: "mean"}, IslandConfig{Aggregator: "euclidean"},
			IslandConfig{Aggregator: "weighted:0.3"})); err != nil {
		t.Errorf("good heterogeneous setup rejected: %v", err)
	}
}

// TestJobSpecHeterogeneous: the wire format round-trips the island
// fields, a stored spec naming removed fields still decodes, admission-
// time validation mirrors run-time validation, and the Options bridge
// reproduces the direct-options run exactly.
func TestJobSpecHeterogeneous(t *testing.T) {
	spec := JobSpec{
		Dataset:      "flare",
		Rows:         60,
		Generations:  10,
		Seed:         77,
		MigrateEvery: 5,
		Topology:     "broadcast",
		PerIsland:    []IslandConfig{{}, {Selection: "rank"}, {MutationRate: 0.75, ParetoRef: &ParetoRef{IL: 90, DR: 80}}},
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back JobSpec
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Topology != spec.Topology || len(back.PerIsland) != 3 || back.PerIsland[1] != spec.PerIsland[1] ||
		back.PerIsland[2].MutationRate != 0.75 || *back.PerIsland[2].ParetoRef != *spec.PerIsland[2].ParetoRef {
		t.Fatalf("spec did not round-trip: %+v", back)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}

	// Specs stored before adaptive migration, the niche presets and
	// k-point crossover were removed decode with those fields ignored.
	var stored JobSpec
	if err := json.Unmarshal([]byte(`{"dataset":"flare","islands":2,"niches":"explore-exploit",`+
		`"adaptive":{"max_every":40},"per_island":[{},{"crossover_points":4,"selection":"rank"}]}`), &stored); err != nil {
		t.Fatal(err)
	}
	if stored.Islands != 2 || len(stored.PerIsland) != 2 || stored.PerIsland[1] != (IslandConfig{Selection: "rank"}) {
		t.Fatalf("stored spec decoded as %+v", stored)
	}
	if err := stored.Validate(); err != nil {
		t.Fatalf("stored spec rejected: %v", err)
	}

	perIsland := JobSpec{
		Dataset: "flare", Rows: 60, Generations: 10, Seed: 77,
		PerIsland: []IslandConfig{{}, {Selection: "rank", Aggregator: "mean", MutationRate: 0.7}},
	}
	if err := perIsland.Validate(); err != nil {
		t.Fatal(err)
	}

	bad := []JobSpec{
		{Dataset: "flare", Islands: 3, PerIsland: []IslandConfig{{}, {}}},
		{Dataset: "flare", PerIsland: []IslandConfig{{Selection: "tournament"}}},
		{Dataset: "flare", PerIsland: []IslandConfig{{Aggregator: "median"}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, s)
		}
		if _, err := s.Options(); err == nil {
			t.Errorf("bad spec %d bridged to options: %+v", i, s)
		}
	}

	// The Options bridge reproduces the direct-options run bit for bit.
	orig, err := perIsland.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	opts, err := perIsland.Options()
	if err != nil {
		t.Fatal(err)
	}
	viaSpec, err := Run(context.Background(), orig, perIsland.Attributes, opts...)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Run(context.Background(), orig, perIsland.Attributes,
		WithGrid("flare"), WithGenerations(10), WithSeed(77),
		WithPerIsland(perIsland.PerIsland...))
	if err != nil {
		t.Fatal(err)
	}
	sameRunResults(t, "spec bridge", viaSpec, direct)
}
