package core

// Tests for the heterogeneous-island building blocks that live in core:
// migration's state hand-off, per-engine aggregator overrides, and the
// name resolvers the island overrides use.

import (
	"bytes"
	"context"
	"testing"

	"evoprot/internal/score"
)

func stripHistory(h []GenStats) []GenStats {
	out := make([]GenStats, len(h))
	for i, gs := range h {
		gs.EvalTime, gs.TotalTime = 0, 0
		gs.Front = nil // compared by value in sameHistories, not by pointer
		out[i] = gs
	}
	return out
}

func sameFronts(a, b *FrontStats) bool {
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

func sameHistories(t *testing.T, label string, a, b []GenStats) {
	t.Helper()
	x, y := stripHistory(a), stripHistory(b)
	if len(x) != len(y) {
		t.Fatalf("%s: history lengths %d vs %d", label, len(x), len(y))
	}
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("%s: generation %d diverged:\n%+v\n%+v", label, i+1, x[i], y[i])
		}
		if !sameFronts(a[i].Front, b[i].Front) {
			t.Fatalf("%s: generation %d fronts diverged:\n%+v\n%+v", label, i+1, a[i].Front, b[i].Front)
		}
	}
}

// TestEmigrantsShareStateImmigrantsClone: an emigrant carries its
// source's own delta state, uncloned — migration runs while every island
// is quiescent — and an accepted migrant receives a distinct clone that
// scores like the source's.
func TestEmigrantsShareStateImmigrantsClone(t *testing.T) {
	eval, pop := testPopulation(t)
	engines, err := NewEngines(context.Background(), eval, pop, []Config{{Generations: 5, Seed: 3}, {Generations: 5, Seed: 4}})
	if err != nil {
		t.Fatal(err)
	}
	src, dst := engines[0], engines[1]
	emigrants := src.Emigrants(2)
	for i, m := range emigrants {
		if m.state == nil || m.state != src.pop[i].state {
			t.Fatalf("emigrant %d carries state %p, want its source's %p", i, m.state, src.pop[i].state)
		}
	}
	if dst.Immigrate(emigrants) == 0 {
		t.Fatal("no migrant accepted")
	}
	for i, m := range emigrants {
		for _, ind := range dst.pop {
			if ind.Data != m.Data {
				continue
			}
			if ind.state == nil || ind.state == m.state {
				t.Fatalf("accepted migrant %d holds state %p, want a clone of %p", i, ind.state, m.state)
			}
			requireStateDescribes(t, dst, ind, "accepted migrant", uint64(i))
		}
	}
	for i, ind := range src.pop {
		requireStateDescribes(t, src, ind, "source after migration", uint64(i))
	}
}

// TestEngineAggregatorOverride: an engine with its own named aggregation
// scores everything — initial population and offspring — under it, and
// matches an engine built directly over a re-aggregated evaluator.
func TestEngineAggregatorOverride(t *testing.T) {
	eval, pop := testPopulation(t)
	named, err := NewEngine(eval, pop, Config{Generations: 30, Seed: 23, Aggregator: "mean"})
	if err != nil {
		t.Fatal(err)
	}
	for _, ind := range named.Population() {
		if want := (ind.Eval.IL + ind.Eval.DR) / 2; ind.Eval.Score != want {
			t.Fatalf("initial individual scored %v under mean override, want %v", ind.Eval.Score, want)
		}
	}
	res, err := named.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, ind := range res.Population {
		if want := (ind.Eval.IL + ind.Eval.DR) / 2; ind.Eval.Score != want {
			t.Fatalf("evolved individual scored %v under mean override, want %v", ind.Eval.Score, want)
		}
	}

	eval2, pop2 := testPopulation(t)
	direct, err := NewEngine(eval2.WithAggregator(score.Mean{}), pop2, Config{Generations: 30, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := direct.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sameHistories(t, "named vs direct aggregator", res.History, ref.History)
	if !res.Best.Data.Equal(ref.Best.Data) {
		t.Fatal("named-aggregator engine diverged from the re-aggregated evaluator")
	}
}

// TestResumeRescoresUnderAggregatorOverride: resuming a snapshot into a
// config with a different per-engine aggregator must re-combine the
// restored population's scores on the new scale (mirroring NewEngines),
// so selection and replacement never compare mixed-scale scores.
func TestResumeRescoresUnderAggregatorOverride(t *testing.T) {
	eval, pop := testPopulation(t)
	e, err := NewEngine(eval, pop, Config{Generations: 10, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	resumed, err := Resume(eval, bytes.NewReader(buf.Bytes()), Config{Generations: 10, Seed: 29, Aggregator: "mean"})
	if err != nil {
		t.Fatal(err)
	}
	for _, ind := range resumed.Population() {
		if want := (ind.Eval.IL + ind.Eval.DR) / 2; ind.Eval.Score != want {
			t.Fatalf("resumed individual scored %v, want mean value %v", ind.Eval.Score, want)
		}
	}
	// Resuming under the aggregator the snapshot was taken with restores
	// the identical scores.
	same, err := Resume(eval, bytes.NewReader(buf.Bytes()), Config{Generations: 10, Seed: 29, Aggregator: "max"})
	if err != nil {
		t.Fatal(err)
	}
	a, b := e.Population(), same.Population()
	for i := range a {
		if a[i].Eval.Score != b[i].Eval.Score {
			t.Fatalf("same-aggregator resume changed score %d: %v vs %v", i, a[i].Eval.Score, b[i].Eval.Score)
		}
	}
}

// TestConfigValidationNewKnobs: the new knobs are validated like the old
// ones.
func TestConfigValidationNewKnobs(t *testing.T) {
	eval, pop := testPopulation(t)
	for name, cfg := range map[string]Config{
		"unknown aggregator": {Generations: 5, Aggregator: "median"},
		"malformed weighted": {Generations: 5, Aggregator: "weighted:1.7"},
	} {
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted", name)
		}
		if _, err := NewEngine(eval, pop, cfg); err == nil {
			t.Errorf("%s: NewEngine accepted", name)
		}
	}
	if err := (Config{Generations: 5, Aggregator: "weighted:0.7"}).Validate(); err != nil {
		t.Errorf("good new knobs rejected: %v", err)
	}
}

// TestCrowdingByName: resolver round-trip and rejection.
func TestCrowdingByName(t *testing.T) {
	for name, want := range map[string]CrowdingPolicy{
		"":               CrowdParentIndex,
		"parent-index":   CrowdParentIndex,
		"nearest-parent": CrowdNearestParent,
		"nearest":        CrowdNearestParent,
	} {
		got, err := CrowdingByName(name)
		if err != nil || got != want {
			t.Errorf("CrowdingByName(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := CrowdingByName("tournament"); err == nil {
		t.Error("unknown crowding name accepted")
	}
	for _, p := range []CrowdingPolicy{CrowdParentIndex, CrowdNearestParent} {
		back, err := CrowdingByName(p.String())
		if err != nil || back != p {
			t.Errorf("crowding %v does not round-trip through its name", p)
		}
	}
}
