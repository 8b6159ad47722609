package evoprot

// Fuzzing the JobSpec wire format — the admission boundary of evoprotd.
// Arbitrary JSON must never panic spec validation, and the two halves of
// the contract must agree: a spec Validate accepts always bridges to
// options (errors never round-trip into an accepted config), and a spec
// Validate rejects must never bridge. The seeds that name fields earlier
// builds accepted ("niches", "adaptive", "crossover_points",
// "eval_workers") check that this non-strict decoding ignores them; the
// service's strict decoder rejects them instead.

import (
	"encoding/json"
	"testing"
)

func FuzzJobSpecJSON(f *testing.F) {
	seeds := []string{
		`{}`,
		`{"dataset":"flare"}`,
		`{"dataset":"flare","islands":3,"niches":"explore-exploit"}`,
		`{"dataset":"flare","per_island":[{},{"selection":"rank","aggregator":"mean"}]}`,
		`{"dataset":"flare","per_island":[{"selection":"bogus"}]}`,
		`{"dataset":"flare","islands":2,"adaptive":{}}`,
		`{"dataset":"flare","islands":2,"adaptive":{"min_every":50,"max_every":60}}`,
		`{"dataset":"flare","adaptive":{"low_divergence":0.9,"high_divergence":0.1}}`,
		`{"dataset":"flare","niches":"explore-exploit","per_island":[{}]}`,
		`{"dataset":"flare","workers":2,"eval_workers":-1}`,
		`{"dataset":"flare","dataset_csv":"A\n1"}`,
		`{"dataset_csv":"A,B\n1,2","attributes":["A"]}`,
		`{"dataset":"flare","generations":-1}`,
		`{"dataset":"flare","topology":"star"}`,
		`{"dataset":"flare","selection":"rank","aggregator":"weighted:0.25"}`,
		`{"per_island":[{"mutation_rate":-1}],"dataset":"flare"}`,
		`[1,2,3]`,
		`"just a string"`,
		"{\"dataset\":\"flare\",\"per_island\":[{\"crossover_points\":-2}]}",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var spec JobSpec
		if err := json.Unmarshal(raw, &spec); err != nil {
			return
		}
		verr := spec.Validate()
		opts, oerr := spec.Options()
		if verr == nil && oerr != nil {
			t.Fatalf("Validate accepted but Options rejected: %v (spec %+v)", oerr, spec)
		}
		if verr != nil && oerr == nil {
			t.Fatalf("Validate rejected (%v) but Options bridged anyway (spec %+v)", verr, spec)
		}
		if verr == nil && opts == nil {
			t.Fatalf("accepted spec bridged to no options (spec %+v)", spec)
		}
	})
}
