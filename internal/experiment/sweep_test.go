package experiment

import (
	"bytes"
	"strings"
	"testing"

	"evoprot/internal/datagen"
	"evoprot/internal/datagen/datagentest"
	"evoprot/internal/score"
)

func sweepSetup(t *testing.T) (*score.Evaluator, []int) {
	t.Helper()
	orig := datagentest.MustByName("flare", 120, 3)
	names, _ := datagen.ProtectedAttrs("flare")
	attrs, err := orig.Schema().Indices(names...)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := score.NewEvaluator(orig, attrs, score.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return eval, attrs
}

func TestSweepPRAMTrajectory(t *testing.T) {
	eval, attrs := sweepSetup(t)
	points, err := Sweep(eval.Orig(), attrs, eval, SweepSpec{
		Method: "pram", Param: "theta", From: 0.2, To: 0.9, Steps: 5, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 5 {
		t.Fatalf("points = %d", len(points))
	}
	if points[0].Param != 0.2 || points[4].Param != 0.9 {
		t.Fatalf("grid endpoints = %v, %v", points[0].Param, points[4].Param)
	}
	// More retention (higher theta) must mean less information loss.
	if points[0].Eval.IL <= points[4].Eval.IL {
		t.Fatalf("IL not decreasing in theta: %v -> %v", points[0].Eval.IL, points[4].Eval.IL)
	}
}

func TestSweepIntegralParams(t *testing.T) {
	eval, attrs := sweepSetup(t)
	points, err := Sweep(eval.Orig(), attrs, eval, SweepSpec{
		Method: "micro", Param: "k", From: 2, To: 10, Steps: 5, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if points[0].Spec != "micro:k=2" || points[4].Spec != "micro:k=10" {
		t.Fatalf("specs = %v ... %v", points[0].Spec, points[4].Spec)
	}
	// Larger k loses more information.
	if points[0].Eval.IL >= points[4].Eval.IL {
		t.Fatalf("IL not increasing in k: %v -> %v", points[0].Eval.IL, points[4].Eval.IL)
	}
}

func TestSweepSingleStep(t *testing.T) {
	eval, attrs := sweepSetup(t)
	points, err := Sweep(eval.Orig(), attrs, eval, SweepSpec{
		Method: "top", Param: "q", From: 0.2, To: 0.9, Steps: 1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 || points[0].Param != 0.2 {
		t.Fatalf("points = %+v", points)
	}
}

func TestSweepErrors(t *testing.T) {
	eval, attrs := sweepSetup(t)
	if _, err := Sweep(eval.Orig(), attrs, eval, SweepSpec{Method: "pram", Param: "theta", Steps: 0}); err == nil {
		t.Error("zero steps accepted")
	}
	if _, err := Sweep(eval.Orig(), attrs, eval, SweepSpec{Method: "wat", Param: "x", From: 1, To: 2, Steps: 2}); err == nil {
		t.Error("unknown method accepted")
	}
	// Out-of-range parameter values surface as parse/validation errors.
	if _, err := Sweep(eval.Orig(), attrs, eval, SweepSpec{Method: "pram", Param: "theta", From: 2, To: 3, Steps: 2}); err == nil {
		t.Error("invalid theta range accepted")
	}
}

func TestWriteSweepCSV(t *testing.T) {
	eval, attrs := sweepSetup(t)
	points, err := Sweep(eval.Orig(), attrs, eval, SweepSpec{
		Method: "rankswap", Param: "p", From: 5, To: 15, Steps: 3, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSweepCSV(&buf, points); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("rows = %d, want 4", len(lines))
	}
	header := lines[0]
	for _, col := range []string{"param", "il", "dr", "score", "CTBIL", "DBIL", "EBIL", "DBRL", "ID", "PRL", "RSRL"} {
		if !strings.Contains(header, col) {
			t.Fatalf("header missing %s: %q", col, header)
		}
	}
	if err := WriteSweepCSV(&buf, nil); err == nil {
		t.Error("empty points accepted")
	}
}
