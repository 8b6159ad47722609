package islands

// Evaluation-route pins for batteries with a measure that has no
// incremental state. The ML-utility measure is not Reversible, so it is
// recomputed in full for every offspring while the rest of the battery
// runs apply/undo against the parent's shared state. These tests compare
// that route against the capability-stripped oracle (every measure in
// full) and against a golden recorded from the earlier clone-and-apply
// route, in scalar and Pareto mode, on one and two islands.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"evoprot/internal/core"
	"evoprot/internal/infoloss"
	"evoprot/internal/score"
	"evoprot/internal/score/scoretest"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// routeCase is one configuration of the ML-utility route pins.
type routeCase struct {
	Name      string `json:"name"`
	Objective string `json:"objective"`
	Islands   int    `json:"islands"`
}

var routeCases = []routeCase{
	{"scalar-1", core.ObjectiveScalar, 1},
	{"scalar-2", core.ObjectiveScalar, 2},
	{"pareto-1", core.ObjectivePareto, 1},
	{"pareto-2", core.ObjectivePareto, 2},
}

// islandPin condenses one island's result: digests of its full history
// (timings zeroed) and of its best protection, plus the readable final
// generation.
type islandPin struct {
	History string        `json:"history_sha256"`
	Best    string        `json:"best_sha256"`
	Final   core.GenStats `json:"final"`
}

// mluEvaluator rebuilds testPopulation's evaluator with the ML-utility
// measure appended to the information-loss battery, optionally stripped
// to the full-evaluation oracle.
func mluEvaluator(t *testing.T, base *score.Evaluator, oracle bool) *score.Evaluator {
	t.Helper()
	orig, attrs := base.Orig(), base.Attrs()
	target := -1
	for c := 0; c < orig.Cols() && target < 0; c++ {
		target = c
		for _, a := range attrs {
			if a == c {
				target = -1
			}
		}
	}
	cfg := score.Config{IL: append(infoloss.Default(), &infoloss.MLUtility{Target: target})}
	if oracle {
		cfg = scoretest.Strip(cfg)
	}
	eval, err := score.NewEvaluator(orig, attrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eval
}

// runRouteCase evolves one case and pins every island's result.
func runRouteCase(t *testing.T, rc routeCase, oracle bool) []islandPin {
	t.Helper()
	base, pop := testPopulation(t)
	eval := mluEvaluator(t, base, oracle)
	r, err := New(context.Background(), eval, pop, Config{
		Islands: rc.Islands, MigrateEvery: 10, Migrants: 2, Topology: Ring,
		Engine: core.Config{Generations: 40, Seed: 5, Objective: rc.Objective, EvalWorkers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	pins := make([]islandPin, len(res.Islands))
	for i, ir := range res.Islands {
		h := stripTimes(ir.History)
		raw, err := json.Marshal(h)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		pins[i].History = hex.EncodeToString(sum[:])
		var csv bytes.Buffer
		if err := ir.Best.Data.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		sum = sha256.Sum256(csv.Bytes())
		pins[i].Best = hex.EncodeToString(sum[:])
		pins[i].Final = h[len(h)-1]
	}
	return pins
}

// TestMLUtilityBatchMatchesOracle: a battery with the non-reversible
// ML-utility measure walks the same trajectory through the batch route as
// through full evaluation of every offspring.
func TestMLUtilityBatchMatchesOracle(t *testing.T) {
	for _, rc := range routeCases {
		got, want := runRouteCase(t, rc, false), runRouteCase(t, rc, true)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: batch route diverged from the full-evaluation oracle:\nbatch:  %+v\noracle: %+v", rc.Name, got, want)
		}
	}
}

// TestMLUtilityRouteGolden pins the ML-utility trajectories to a golden
// recorded from the clone-and-apply route, so moving these batteries to
// the batch route provably changed no result. Regenerate with -update
// only for an intended trajectory change.
func TestMLUtilityRouteGolden(t *testing.T) {
	got := map[string][]islandPin{}
	for _, rc := range routeCases {
		got[rc.Name] = runRouteCase(t, rc, false)
	}
	path := filepath.Join("testdata", "mlu_route_golden.json")
	if *update {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string][]islandPin
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for _, rc := range routeCases {
		if !reflect.DeepEqual(got[rc.Name], want[rc.Name]) {
			t.Fatalf("%s: trajectory moved from the golden:\ngot:  %+v\nwant: %+v", rc.Name, got[rc.Name], want[rc.Name])
		}
	}
}
