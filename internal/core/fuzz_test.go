package core

// Fuzz targets for the engine's string resolvers: no input may panic,
// successful resolutions must round-trip through String and pass config
// validation, and errors must never leave the caller with a silently
// accepted policy.

import (
	"testing"

	"evoprot/internal/score"
)

func FuzzSelectionByName(f *testing.F) {
	for _, seed := range []string{"", "inverse", "inverse-proportional", "raw", "raw-proportional", "rank", "uniform", "tournament", "Rank", " rank", "\xff"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, name string) {
		p, err := SelectionByName(name)
		if err != nil {
			if p != SelectInverseProportional { // the zero value only
				t.Fatalf("error case returned policy %v", p)
			}
			return
		}
		back, err := SelectionByName(p.String())
		if err != nil || back != p {
			t.Fatalf("policy %v does not round-trip: %v, %v", p, back, err)
		}
		if err := (Config{Generations: 5, Selection: p}).Validate(); err != nil {
			t.Fatalf("resolved policy %v rejected by Validate: %v", p, err)
		}
	})
}

func FuzzCrowdingByName(f *testing.F) {
	for _, seed := range []string{"", "parent-index", "nearest-parent", "nearest", "closest", "NEAREST"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, name string) {
		p, err := CrowdingByName(name)
		if err != nil {
			if p != CrowdParentIndex {
				t.Fatalf("error case returned policy %v", p)
			}
			return
		}
		back, err := CrowdingByName(p.String())
		if err != nil || back != p {
			t.Fatalf("policy %v does not round-trip: %v, %v", p, back, err)
		}
	})
}

// FuzzConfigAggregatorName: arbitrary aggregator names never panic
// validation, and a name Validate accepts always resolves again when the
// engine is actually built (the property admission control relies on).
func FuzzConfigAggregatorName(f *testing.F) {
	for _, seed := range []string{"", "mean", "max", "euclidean", "weighted:0.3", "weighted:1.5", "weighted:", "weighted:x", "median", "weighted:-0"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, name string) {
		cfg := Config{Generations: 5, Aggregator: name}
		if err := cfg.Validate(); err != nil || name == "" {
			return
		}
		// Accepted at validation => engine construction, which resolves a
		// set name again, must accept it too.
		if _, err := score.AggregatorByName(name); err != nil {
			t.Fatalf("aggregator %q accepted by Validate but not resolvable: %v", name, err)
		}
	})
}
