package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"reflect"
	"strings"
	"testing"

	"evoprot/internal/dataset"
	"evoprot/internal/dataset/datasettest"
	"evoprot/internal/score"
)

// TestSnapshotResumeContinuesIdentically is the defining checkpoint
// property: run(N+M) == run(N) + snapshot + resume + run(M).
func TestSnapshotResumeContinuesIdentically(t *testing.T) {
	const n, m = 15, 20

	// Reference: one uninterrupted run.
	ref := testEngine(t, Config{Generations: n + m, Seed: 91})
	refRes := mustRun(t, ref)

	// Checkpointed: run n, snapshot, resume into a fresh engine, run m.
	first := testEngine(t, Config{Generations: n, Seed: 91})
	mustRun(t, first)
	var buf bytes.Buffer
	if err := first.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	eval, _ := testPopulation(t)
	resumed, err := Resume(eval, &buf, Config{Generations: m, Seed: 91})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Generation() != n {
		t.Fatalf("resumed at generation %d, want %d", resumed.Generation(), n)
	}
	resRes := mustRun(t, resumed)

	if len(resRes.History) != n+m {
		t.Fatalf("resumed history = %d, want %d", len(resRes.History), n+m)
	}
	for i := range refRes.History {
		a, b := refRes.History[i], resRes.History[i]
		a.EvalTime, a.TotalTime = 0, 0
		b.EvalTime, b.TotalTime = 0, 0
		if a != b {
			t.Fatalf("generation %d diverged:\nref: %+v\nres: %+v", i+1, a, b)
		}
	}
	if refRes.Best.Eval.Score != resRes.Best.Eval.Score {
		t.Fatalf("best diverged: %v vs %v", refRes.Best.Eval.Score, resRes.Best.Eval.Score)
	}
	if !refRes.Best.Data.Equal(resRes.Best.Data) {
		t.Fatal("best individual data diverged")
	}
	if refRes.Evaluations != resRes.Evaluations {
		t.Fatalf("evaluations diverged: %d vs %d", refRes.Evaluations, resRes.Evaluations)
	}
}

func TestSnapshotPreservesEvaluations(t *testing.T) {
	e := testEngine(t, Config{Generations: 10, Seed: 93})
	mustRun(t, e)
	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	eval, _ := testPopulation(t)
	resumed, err := Resume(eval, &buf, Config{Generations: 1, Seed: 93})
	if err != nil {
		t.Fatal(err)
	}
	a, b := e.Population(), resumed.Population()
	if len(a) != len(b) {
		t.Fatal("population sizes differ")
	}
	for i := range a {
		if a[i].Eval.Score != b[i].Eval.Score || a[i].Origin != b[i].Origin {
			t.Fatalf("individual %d differs after resume", i)
		}
		if !a[i].Data.Equal(b[i].Data) {
			t.Fatalf("individual %d data differs after resume", i)
		}
	}
}

// corruptSnapshot decodes a version-3 snapshot, lets edit damage it and
// encodes it again.
func corruptSnapshot(t *testing.T, good []byte, edit func(*snapshotJSON[[]byte])) string {
	t.Helper()
	var snap snapshotJSON[[]byte]
	if err := json.Unmarshal(good, &snap); err != nil {
		t.Fatal(err)
	}
	edit(&snap)
	out, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// replaceOnce substitutes old in s and fails when s does not contain it,
// so a corruption case cannot silently pass a good document through.
func replaceOnce(t *testing.T, s, old, new string) string {
	t.Helper()
	if !strings.Contains(s, old) {
		t.Fatalf("snapshot lacks %q", old)
	}
	return strings.Replace(s, old, new, 1)
}

func TestResumeRejectsCorruptSnapshots(t *testing.T) {
	e := testEngine(t, Config{Generations: 5, Seed: 95})
	mustRun(t, e)
	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	v2, err := os.ReadFile("testdata/engine_v2.json")
	if err != nil {
		t.Fatal(err)
	}
	eval, _ := testPopulation(t)

	cases := map[string]string{
		"not json":      "{broken",
		"wrong version": replaceOnce(t, string(good), `"version":3`, `"version":99`),
		"version 1":     replaceOnce(t, string(good), `"version":3`, `"version":1`),
		"out-of-domain cell": corruptSnapshot(t, good, func(s *snapshotJSON[[]byte]) {
			s.Individuals[3].Cells[7] = 255 // flare's protected domains are far smaller
		}),
		"packed length one long": corruptSnapshot(t, good, func(s *snapshotJSON[[]byte]) {
			s.Individuals[0].Cells = append(s.Individuals[0].Cells, 0)
		}),
		"packed length one short": corruptSnapshot(t, good, func(s *snapshotJSON[[]byte]) {
			s.Individuals[1].Cells = s.Individuals[1].Cells[1:]
		}),
		"v2 wrong version": replaceOnce(t, string(v2), `"version":2`, `"version":99`),
		"v2 bad cells":     replaceOnce(t, string(v2), `"cells":[`, `"cells":[99999,`),
		"v2 cell count":    replaceOnce(t, string(v2), `"cells":[`, `"cells":[0,`),
	}
	for name, payload := range cases {
		if _, err := Resume(eval, strings.NewReader(payload), Config{Generations: 1, Seed: 95}); err == nil {
			t.Errorf("%s: corrupt snapshot accepted", name)
		}
	}
	if _, err := Resume(nil, bytes.NewReader(good), Config{Generations: 1, Seed: 95}); err == nil {
		t.Error("nil evaluator accepted")
	}
	if _, err := Resume(eval, bytes.NewReader(good), Config{Generations: -1, Seed: 95}); err == nil {
		t.Error("bad config accepted")
	}
}

// TestResumeVersion2Fixture resumes a version-2 snapshot (integer cells),
// written by the last build that wrote version 2 from testEngine after 5
// generations at seed 95, and checks it continues exactly as the
// version-3 round trip of the same engine does: same population, same
// trajectory.
func TestResumeVersion2Fixture(t *testing.T) {
	v2, err := os.ReadFile("testdata/engine_v2.json")
	if err != nil {
		t.Fatal(err)
	}
	e := testEngine(t, Config{Generations: 5, Seed: 95})
	mustRun(t, e)
	var v3 bytes.Buffer
	if err := e.Snapshot(&v3); err != nil {
		t.Fatal(err)
	}
	resume := func(doc []byte) *Engine {
		eval, _ := testPopulation(t)
		r, err := Resume(eval, bytes.NewReader(doc), Config{Generations: 20, Seed: 95})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	old, cur := resume(v2), resume(v3.Bytes())
	requireSamePopulation(t, old.Population(), cur.Population())
	if old.Generation() != cur.Generation() {
		t.Fatalf("resumed at generation %d and %d", old.Generation(), cur.Generation())
	}
	oldRes, curRes := mustRun(t, old), mustRun(t, cur)
	if len(oldRes.History) != len(curRes.History) {
		t.Fatalf("history lengths %d and %d", len(oldRes.History), len(curRes.History))
	}
	for i := range oldRes.History {
		a, b := oldRes.History[i], curRes.History[i]
		a.EvalTime, a.TotalTime = 0, 0
		b.EvalTime, b.TotalTime = 0, 0
		if a != b {
			t.Fatalf("generation %d diverged:\nv2: %+v\nv3: %+v", i+1, a, b)
		}
	}
	requireSamePopulation(t, old.Population(), cur.Population())
}

// requireSamePopulation fails unless both populations hold the same
// individuals, in order: cells, cached evaluation and origin.
func requireSamePopulation(t *testing.T, a, b []*Individual) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("population sizes %d and %d", len(a), len(b))
	}
	for i := range a {
		if !reflect.DeepEqual(a[i].Eval, b[i].Eval) || a[i].Origin != b[i].Origin || !a[i].Data.Equal(b[i].Data) {
			t.Fatalf("individual %d differs", i)
		}
	}
}

// TestSnapshotWideCells round-trips an engine whose protected attribute
// has 300 categories: its cells pack at four bytes each, values past 255
// survive, and a length that is not a whole number of cells or a value
// outside the domain is rejected.
func TestSnapshotWideCells(t *testing.T) {
	eval, pop := widePopulation(t)
	e, err := NewEngine(eval, pop, Config{Generations: 5, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, e)
	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	var snap snapshotJSON[[]byte]
	if err := json.Unmarshal(good, &snap); err != nil {
		t.Fatal(err)
	}
	if want := eval.Orig().Rows() * len(eval.Attrs()) * 4; len(snap.Individuals[0].Cells) != want {
		t.Fatalf("packed %d bytes, want %d", len(snap.Individuals[0].Cells), want)
	}
	resumed, err := Resume(eval, bytes.NewReader(good), Config{Generations: 1, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	requireSamePopulation(t, e.Population(), resumed.Population())
	past := false
	for _, ind := range resumed.Population() {
		for r := range ind.Data.Rows() {
			past = past || ind.Data.At(r, 0) > 255
		}
	}
	if !past {
		t.Fatal("no cell past 255: the wide width is not exercised")
	}

	cases := map[string]string{
		"length not a multiple of 4": corruptSnapshot(t, good, func(s *snapshotJSON[[]byte]) {
			s.Individuals[0].Cells = s.Individuals[0].Cells[:len(s.Individuals[0].Cells)-1]
		}),
		"narrow length": corruptSnapshot(t, good, func(s *snapshotJSON[[]byte]) {
			s.Individuals[0].Cells = s.Individuals[0].Cells[:len(s.Individuals[0].Cells)/4]
		}),
		"out-of-domain cell": corruptSnapshot(t, good, func(s *snapshotJSON[[]byte]) {
			binary.LittleEndian.PutUint32(s.Individuals[2].Cells[4*len(eval.Attrs()):], 300)
		}),
	}
	for name, payload := range cases {
		if _, err := Resume(eval, strings.NewReader(payload), Config{Generations: 1, Seed: 99}); err == nil {
			t.Errorf("%s: corrupt snapshot accepted", name)
		}
	}
}

// widePopulation builds 60 records over a protected p0 of 300 ordered
// categories and the protected p1 (3) and p2 (5), and six random
// maskings of them.
func widePopulation(t *testing.T) (*score.Evaluator, []*Individual) {
	t.Helper()
	rng := rand.New(rand.NewPCG(5, 300))
	attr := func(name string, card int, ordered bool) *dataset.Attribute {
		cats := make([]string, card)
		for i := range cats {
			cats[i] = fmt.Sprintf("%s-%d", name, i)
		}
		return dataset.MustAttribute(name, cats, ordered)
	}
	s := dataset.MustSchema(attr("p0", 300, true), attr("p1", 3, false), attr("p2", 5, true))
	orig := dataset.New(s, 60)
	for r := range orig.Rows() {
		for c := range s.NumAttrs() {
			orig.Set(r, c, rng.IntN(s.Attr(c).Cardinality()))
		}
	}
	attrs := []int{0, 1, 2}
	eval, err := score.NewEvaluator(orig, attrs, score.Config{})
	if err != nil {
		t.Fatal(err)
	}
	pop := make([]*Individual, 6)
	for i := range pop {
		masked := orig.Clone()
		for range 20 * (i + 1) {
			datasettest.RandomChange(rng, masked, attrs)
		}
		pop[i] = NewIndividual(masked, fmt.Sprintf("random[%d]", i))
	}
	return eval, pop
}

func TestResumeRejectsMismatchedEvaluator(t *testing.T) {
	e := testEngine(t, Config{Generations: 5, Seed: 97})
	mustRun(t, e)
	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// An evaluator over different attribute indices must be rejected.
	orig := e.eval.Orig()
	other, err := scoreEvaluatorOverFirstAttr(orig)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(other, bytes.NewReader(buf.Bytes()), Config{Generations: 1, Seed: 97}); err == nil {
		t.Error("mismatched attrs accepted")
	}
}
