package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"evoprot"
)

func runCLI(t *testing.T, args []string, out *strings.Builder) error {
	t.Helper()
	return run(context.Background(), args, out)
}

func TestRunBuiltinDataset(t *testing.T) {
	bestPath := filepath.Join(t.TempDir(), "best.csv")
	var out strings.Builder
	err := runCLI(t, []string{
		"-dataset", "flare", "-rows", "80", "-gens", "15", "-seed", "3",
		"-best", bestPath, "-plots",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	report := out.String()
	for _, want := range []string{"evolved 104 individuals", "best protection:", "M=max"} {
		if !strings.Contains(report, want) {
			t.Errorf("output missing %q:\n%s", want, report)
		}
	}
	best, err := evoprot.LoadCSV(bestPath)
	if err != nil {
		t.Fatal(err)
	}
	if best.Rows() != 80 {
		t.Fatalf("best rows = %d", best.Rows())
	}
}

func TestRunIslands(t *testing.T) {
	var out strings.Builder
	err := runCLI(t, []string{
		"-dataset", "flare", "-rows", "80", "-gens", "20", "-seed", "3",
		"-islands", "3", "-migrate-every", "5", "-topology", "broadcast",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	report := out.String()
	for _, want := range []string{"3 islands", "island 0:", "island 2:", "best protection:"} {
		if !strings.Contains(report, want) {
			t.Errorf("output missing %q:\n%s", want, report)
		}
	}
}

// TestRunHeterogeneousIslands: -per-island drives a niched broadcast run,
// and without -islands runs one island per override (the implied-count
// contract the flag's help text documents).
func TestRunHeterogeneousIslands(t *testing.T) {
	var out strings.Builder
	err := runCLI(t, []string{
		"-dataset", "flare", "-rows", "80", "-gens", "20", "-seed", "3",
		"-islands", "3", "-migrate-every", "5", "-topology", "broadcast",
		"-per-island", `[{},{"mutation_rate":0.5,"leader_fraction":0.15},{"mutation_rate":0.75,"leader_fraction":0.25,"selection":"uniform"}]`,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	report := out.String()
	for _, want := range []string{"3 islands", "best protection:"} {
		if !strings.Contains(report, want) {
			t.Errorf("output missing %q:\n%s", want, report)
		}
	}

	out.Reset()
	err = runCLI(t, []string{
		"-dataset", "flare", "-rows", "80", "-gens", "10", "-seed", "3",
		"-per-island", `[{},{"selection":"rank","mutation_rate":0.7}]`,
	}, &out)
	if err != nil {
		t.Fatalf("-per-island without -islands: %v", err)
	}
	if !strings.Contains(out.String(), "2 islands") {
		t.Errorf("implied island count not honoured:\n%s", out.String())
	}

	// The removed -niches and -adaptive flags are rejected, not ignored.
	for _, flag := range [][]string{{"-niches", "explore-exploit"}, {"-adaptive"}} {
		args := append([]string{"-dataset", "flare", "-rows", "80", "-gens", "10", "-islands", "3"}, flag...)
		if err := runCLI(t, args, &out); err == nil {
			t.Errorf("%s accepted", flag[0])
		}
	}
}

// TestRunParetoObjective: -objective pareto reports and plots the front,
// -pareto-ref is parsed as "il,dr", malformed values are rejected, and
// a scalar/Pareto -per-island split drives a mixed-objective archipelago.
func TestRunParetoObjective(t *testing.T) {
	var out strings.Builder
	err := runCLI(t, []string{
		"-dataset", "flare", "-rows", "80", "-gens", "15", "-seed", "3",
		"-objective", "pareto", "-pareto-ref", "120,110", "-plots",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	report := out.String()
	for _, want := range []string{"pareto front:", "hypervolume", "@=front", "best protection:"} {
		if !strings.Contains(report, want) {
			t.Errorf("output missing %q:\n%s", want, report)
		}
	}

	for name, args := range map[string][]string{
		"malformed ref":  {"-dataset", "flare", "-rows", "80", "-gens", "5", "-pareto-ref", "abc"},
		"bad objective":  {"-dataset", "flare", "-rows", "80", "-gens", "5", "-objective", "lexicographic"},
		"non-finite ref": {"-dataset", "flare", "-rows", "80", "-gens", "5", "-objective", "pareto", "-pareto-ref", "-5,100"},
	} {
		if err := runCLI(t, args, &out); err == nil {
			t.Errorf("%s accepted", name)
		}
	}

	out.Reset()
	err = runCLI(t, []string{
		"-dataset", "flare", "-rows", "80", "-gens", "20", "-seed", "3",
		"-islands", "3", "-migrate-every", "5", "-per-island", `[{},{"objective":"pareto"},{}]`,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "3 islands") {
		t.Errorf("scalar-pareto niche run malformed:\n%s", out.String())
	}
}

func TestRunCheckpointAndResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	var out strings.Builder
	err := runCLI(t, []string{
		"-dataset", "flare", "-rows", "80", "-gens", "10", "-seed", "3",
		"-checkpoint", ckpt, "-checkpoint-every", "4",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}
	out.Reset()
	err = runCLI(t, []string{
		"-dataset", "flare", "-rows", "80", "-gens", "5", "-seed", "3",
		"-resume", ckpt,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "resumed 1 island(s) at generation 10") {
		t.Fatalf("resume banner missing:\n%s", out.String())
	}
}

// TestSameSeedWritesIdenticalCheckpoints: two -checkpoint runs of one
// seed write byte-identical files, nothing zeroed. The run has two
// islands with per-island overrides, so the in-place islands document
// (version 4) and the packed engine documents are both compared.
func TestSameSeedWritesIdenticalCheckpoints(t *testing.T) {
	dir := t.TempDir()
	var files [2][]byte
	for i := range files {
		ckpt := filepath.Join(dir, fmt.Sprintf("run%d.ckpt", i))
		var out strings.Builder
		err := runCLI(t, []string{
			"-dataset", "flare", "-rows", "80", "-gens", "12", "-seed", "3",
			"-islands", "2", "-migrate-every", "4", "-per-island", `[{},{"selection":"rank"}]`,
			"-checkpoint", ckpt, "-checkpoint-every", "4",
		}, &out)
		if err != nil {
			t.Fatal(err)
		}
		if files[i], err = os.ReadFile(ckpt); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatalf("same-seed checkpoints differ (%d and %d bytes)", len(files[0]), len(files[1]))
	}
}

func TestRunMultiIslandCheckpointAndResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	var out strings.Builder
	err := runCLI(t, []string{
		"-dataset", "flare", "-rows", "80", "-gens", "10", "-seed", "3",
		"-islands", "2", "-migrate-every", "5",
		"-checkpoint", ckpt, "-checkpoint-every", "5",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	out.Reset()
	err = runCLI(t, []string{
		"-dataset", "flare", "-rows", "80", "-gens", "5", "-seed", "3",
		"-islands", "2", "-migrate-every", "5",
		"-resume", ckpt,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "resumed 2 island(s) at generation 10") {
		t.Fatalf("resume banner missing:\n%s", out.String())
	}
}

func TestRunCancelledContextReportsBestSoFar(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the run starts: zero generations, still a report
	var out strings.Builder
	err := run(ctx, []string{"-dataset", "flare", "-rows", "80", "-gens", "50", "-seed", "3"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "interrupted; reporting best so far") {
		t.Fatalf("cancel banner missing:\n%s", out.String())
	}
}

func TestRunTimeoutFlag(t *testing.T) {
	var out strings.Builder
	err := runCLI(t, []string{
		"-dataset", "flare", "-rows", "80", "-gens", "1000000", "-seed", "3",
		"-timeout", "300ms",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "timeout reached; reporting best so far") {
		t.Fatalf("timeout banner missing:\n%s", out.String())
	}
}

// TestRunExternalCSV: -orig/-attrs runs over a CSV file, and -attrs
// also selects the protected attributes of a built-in -dataset.
func TestRunExternalCSV(t *testing.T) {
	dir := t.TempDir()
	origPath := filepath.Join(dir, "orig.csv")
	d, _ := evoprot.GenerateDataset("german", 70, 5)
	if err := evoprot.SaveCSV(d, origPath); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err := runCLI(t, []string{
		"-orig", origPath, "-attrs", "EXISTACC,SAVINGS,PRESEMPLOY",
		"-grid", "german", "-gens", "8", "-seed", "5",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "evolved 104 individuals") {
		t.Fatalf("output:\n%s", out.String())
	}

	// -attrs narrows a built-in dataset's protected set, as "attributes"
	// does in a job spec: the best protection differs from the original
	// only in the named attribute, and an unknown name is rejected.
	attrs, err := evoprot.ProtectedAttributes("flare")
	if err != nil {
		t.Fatal(err)
	}
	bestPath := filepath.Join(dir, "best.csv")
	out.Reset()
	if err := runCLI(t, []string{
		"-dataset", "flare", "-rows", "80", "-gens", "5", "-seed", "3",
		"-attrs", attrs[0], "-best", bestPath,
	}, &out); err != nil {
		t.Fatal(err)
	}
	orig, _ := evoprot.GenerateDataset("flare", 80, 3)
	best, err := evoprot.LoadCSV(bestPath)
	if err != nil {
		t.Fatal(err)
	}
	want, got := orig.Records(), best.Records()
	changed := false
	for c, name := range orig.Schema().AttrNames() {
		for r := range want {
			if want[r][c] == got[r][c] {
				continue
			}
			if name != attrs[0] {
				t.Fatalf("attribute %s changed at row %d; only %s is protected", name, r, attrs[0])
			}
			changed = true
		}
	}
	if !changed {
		t.Fatalf("best protection leaves %s untouched", attrs[0])
	}
	if err := runCLI(t, []string{"-dataset", "flare", "-rows", "50", "-attrs", "GHOST"}, &out); err == nil {
		t.Fatal("unknown -attrs name accepted with -dataset")
	}
}

func TestRunValidation(t *testing.T) {
	cases := [][]string{
		{},                                     // no input
		{"-dataset", "nosuch"},                 // unknown dataset
		{"-orig", "absent.csv", "-attrs", "A"}, // missing file
		{"-dataset", "flare", "-rows", "50", "-agg", "median"},       // bad aggregator
		{"-dataset", "flare", "-rows", "50", "-resume", "nope"},      // missing checkpoint
		{"-dataset", "flare", "-rows", "50", "-topology", "star"},    // bad topology
		{"-dataset", "flare", "-rows", "50", "-islands", "-2"},       // bad island count
		{"-dataset", "flare", "-rows", "50", "-migrate-every", "-1"}, // bad epoch
		{"-dataset", "flare", "-rows", "50", "-workers", "-1"},       // bad worker count
		{"-dataset", "flare", "-rows", "50", "-stall", "-1"},         // bad stagnation window
		{"-dataset", "flare", "-orig", "x.csv", "-attrs", "A"},       // two dataset sources
	}
	for _, args := range cases {
		if err := runCLI(t, args, &strings.Builder{}); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
