package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"evoprot/internal/core"
	"evoprot/internal/serve"
)

// timeless strips the wall-clock fields from a history so two runs can be
// compared bit for bit.
func timeless(h []core.GenStats) []core.GenStats {
	out := append([]core.GenStats(nil), h...)
	for i := range out {
		out[i].EvalTime, out[i].TotalTime = 0, 0
	}
	return out
}

// TestTracedEngineRunsAreBitIdentical runs every engine workload at tiny
// size with and without the tracing shims: histories and best evaluations
// must match bit for bit, and the shims must keep the battery's batch
// capability.
func TestTracedEngineRunsAreBitIdentical(t *testing.T) {
	for name, w := range engineWorkloads {
		t.Run(name, func(t *testing.T) {
			w.rows = 80
			const gens = 30
			plain := runEngineRep(context.Background(), w, 7, gens, nil)
			tr := &tracer{}
			traced := runEngineRep(context.Background(), w, 7, gens, tr)
			if plain.err != nil || traced.err != nil {
				t.Fatalf("runs failed: plain %v, traced %v", plain.err, traced.err)
			}
			if plain.batchable != traced.batchable {
				t.Fatalf("tracing changed Batchable: %v -> %v", plain.batchable, traced.batchable)
			}
			for i, pi := range plain.res.Islands {
				ti := traced.res.Islands[i]
				if !reflect.DeepEqual(timeless(pi.History), timeless(ti.History)) {
					t.Errorf("island %d: traced history differs", i)
				}
				pe, te := pi.Best.Eval, ti.Best.Eval
				if !sameBits(pe.IL, te.IL) || !sameBits(pe.DR, te.DR) || !sameBits(pe.Score, te.Score) ||
					!reflect.DeepEqual(pe.ILParts, te.ILParts) || !reflect.DeepEqual(pe.DRParts, te.DRParts) {
					t.Errorf("island %d: traced best %+v, untraced %+v", i, te, pe)
				}
			}
			if got := phaseCount(tr, "CTBIL", phaseEvolve, opFull) + phaseCount(tr, "CTBIL", phaseEvolve, opDelta) +
				phaseCount(tr, "CTBIL", phaseEvolve, opApply); got == 0 {
				t.Error("traced run recorded no evolve-phase measure calls")
			}
			known := map[string]bool{}
			for _, m := range perLayer() {
				known[m.name] = true
			}
			for _, m := range engineLayers(tr, []engineRep{traced}) {
				if !known[m.name] {
					t.Errorf("layer metric %s is missing from the per-layer catalogue", m.name)
				}
			}
		})
	}
}

// TestTracedServiceIsBitIdentical runs a small job mix against a server
// on the plain store and one on the traced store; every job's result must
// match bit for bit apart from wall-clock fields.
func TestTracedServiceIsBitIdentical(t *testing.T) {
	specs := serviceMix(3, 4)
	for i := range specs {
		specs[i].Generations = 20
	}
	results := func(traced bool) []serve.JobResult {
		s, err := bootService(traced)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := s.stop(); err != nil {
				t.Error(err)
			}
		}()
		l := s.load(specs, traced)
		out := make([]serve.JobResult, len(specs))
		for i, js := range l.samples {
			if js.err != nil {
				t.Fatalf("job %d: %v", i, js.err)
			}
			if _, err := s.call("GET", "/v1/jobs/"+js.id+"/result", nil, &out[i]); err != nil {
				t.Fatal(err)
			}
			out[i].ID = ""
			out[i].History = timeless(out[i].History)
		}
		if traced && s.store.ops[stAppend].n.Load() == 0 {
			t.Error("traced store recorded no appends")
		}
		return out
	}
	if plain, traced := results(false), results(true); !reflect.DeepEqual(plain, traced) {
		t.Error("traced service results differ from untraced ones")
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json and the metrics
// the program prints in step.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads()) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloads())
	}
	names = nil
	for _, m := range spec.EndToEnd {
		names = append(names, m.Name)
	}
	if !reflect.DeepEqual(names, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program prints %v", names, endToEnd)
	}
	want := perLayer()
	if len(spec.PerLayer) != len(want) {
		t.Fatalf("BENCHMARK.json has %d per_layer metrics, program prints %d", len(spec.PerLayer), len(want))
	}
	for i, m := range want {
		if spec.PerLayer[i].Name != m.name || spec.PerLayer[i].Unit != m.unit {
			t.Errorf("per_layer[%d] = %s (%s), program prints %s (%s)", i, spec.PerLayer[i].Name, spec.PerLayer[i].Unit, m.name, m.unit)
		}
	}
}

// TestStatistics pins the quantile conventions: nearest-rank
// percentiles, and quartiles equal to Python's statistics.quantiles.
func TestStatistics(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if m := median(xs); m != 5.5 {
		t.Errorf("median = %v, want 5.5", m)
	}
	if p := percentile(xs, 0.9); p != 9 {
		t.Errorf("p90 = %v, want 9", p)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}
