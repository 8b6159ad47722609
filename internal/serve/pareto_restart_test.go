package serve

// The Pareto-mode crash-safety gate: a fixed-seed Pareto-objective job
// interrupted by a server restart resumes from its checkpoint onto the
// identical trajectory — the per-generation event feed (front payloads
// included) and the final non-dominated front reproduce the uninterrupted
// run's bit for bit.

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"evoprot"
	"evoprot/internal/storage"
)

// sameFrontStats compares two front payloads by value.
func sameFrontStats(a, b *evoprot.FrontStats) bool {
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

// genStatsByGen extracts a feed's generation events (Done entries
// dropped) keyed by generation number.
func genStatsByGen(events []evoprot.Event) map[int]evoprot.GenStats {
	out := map[int]evoprot.GenStats{}
	for _, ev := range events {
		if ev.Done {
			continue
		}
		out[ev.Stats.Gen] = ev.Stats
	}
	return out
}

func TestKillAndRestartParetoJob(t *testing.T) {
	be := storage.NewMem()
	cfg := Config{
		Store:           be,
		Workers:         1,
		CheckpointEvery: 5,
		Logf:            t.Logf,
	}
	// A single Pareto island: the resumed trajectory must be bit-identical
	// to the uninterrupted one wherever the interruption lands.
	spec := evoprot.JobSpec{
		Dataset:      "flare",
		Rows:         120,
		Generations:  600,
		Islands:      1,
		MigrateEvery: 10,
		Objective:    "pareto",
		Seed:         19,
	}

	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	ts1 := httptest.NewServer(s1.Handler())
	status := postJob(t, ts1.URL, spec)
	interrupted := waitFor(t, ts1.URL, status.ID, 60*time.Second, func(s JobStatus) bool {
		return s.Generation >= 40
	})
	if interrupted.State.Terminal() {
		t.Fatalf("job finished (%s) before the test could interrupt it; slow the spec down", interrupted.State)
	}
	ts1.Close()
	stopCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	if err := s1.Stop(stopCtx); err != nil {
		t.Fatal(err)
	}
	cancel()

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s2.Start()
	ts2 := httptest.NewServer(s2.Handler())
	defer func() {
		ts2.Close()
		stopCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s2.Stop(stopCtx); err != nil {
			t.Error(err)
		}
	}()
	done := waitFor(t, ts2.URL, status.ID, 120*time.Second, func(s JobStatus) bool {
		return s.State.Terminal()
	})
	if done.State != StateDone {
		t.Fatalf("resumed Pareto job finished as %s (error %q)", done.State, done.Error)
	}
	if done.Resumes != 1 {
		t.Fatalf("resumes = %d, want 1", done.Resumes)
	}

	// The uninterrupted reference run of the identical spec.
	ref := postJob(t, ts2.URL, spec)
	refDone := waitFor(t, ts2.URL, ref.ID, 120*time.Second, func(s JobStatus) bool {
		return s.State.Terminal()
	})
	if refDone.State != StateDone {
		t.Fatalf("reference job finished as %s", refDone.State)
	}

	// Every generation's event — front payload included — must reproduce
	// bit for bit across the interruption.
	resumedGens := genStatsByGen(fetchEvents(t, ts2.URL, status.ID, 0))
	refGens := genStatsByGen(fetchEvents(t, ts2.URL, ref.ID, 0))
	if len(resumedGens) != len(refGens) || len(refGens) != 600 {
		t.Fatalf("generation event counts: resumed %d, reference %d, want 600", len(resumedGens), len(refGens))
	}
	for gen, want := range refGens {
		got, ok := resumedGens[gen]
		if !ok {
			t.Fatalf("resumed feed misses generation %d", gen)
		}
		if !sameFrontStats(got.Front, want.Front) {
			t.Fatalf("generation %d fronts diverged across restart:\n%+v\n%+v", gen, got.Front, want.Front)
		}
		got.Front, want.Front = nil, nil
		if got != want {
			t.Fatalf("generation %d diverged across restart:\n%+v\n%+v", gen, got, want)
		}
	}

	// The persisted results agree: final front, hypervolume, best dataset.
	resumedResult := fetchResult(t, ts2.URL, status.ID)
	refResult := fetchResult(t, ts2.URL, ref.ID)
	if len(refResult.Front) == 0 || refResult.FrontSize != len(refResult.Front) || refResult.Hypervolume <= 0 {
		t.Fatalf("reference result carries no usable front: %+v", refResult)
	}
	if resumedResult.Hypervolume != refResult.Hypervolume || resumedResult.FrontSize != refResult.FrontSize ||
		len(resumedResult.Front) != len(refResult.Front) {
		t.Fatalf("final fronts diverged across restart:\n%+v\n%+v", resumedResult, refResult)
	}
	for i := range refResult.Front {
		if resumedResult.Front[i] != refResult.Front[i] {
			t.Fatalf("front point %d diverged: %+v vs %+v", i, resumedResult.Front[i], refResult.Front[i])
		}
	}
	if resumedResult.Best.Score != refResult.Best.Score {
		t.Fatalf("resumed run converged to %.6f, uninterrupted run to %.6f",
			resumedResult.Best.Score, refResult.Best.Score)
	}
	if resumedResult.DatasetCSV != refResult.DatasetCSV {
		t.Fatal("resumed run's protected dataset differs from the uninterrupted run's")
	}
}

// TestFinalFrontReadsFinalPopulation: the result document's front is
// each island's final-population front, never its last generation's —
// migration after the final epoch can move a population past its last
// GenStats — both for the best island and for the hypervolume pick
// among Pareto islands when the best island ran scalarized.
func TestFinalFrontReadsFinalPopulation(t *testing.T) {
	stale := &evoprot.FrontStats{Size: 1, Hypervolume: 9000, Pairs: []evoprot.Pair{{IL: 10, DR: 10}}}
	final := &evoprot.FrontStats{Size: 1, Hypervolume: 8100, Pairs: []evoprot.Pair{{IL: 10, DR: 10.5}}}
	paretoIsl := &evoprot.Result{History: []evoprot.GenStats{{Gen: 20, Front: stale}}, Front: final}
	scalar := &evoprot.Result{History: []evoprot.GenStats{{Gen: 20}}}
	if got := finalFront(&evoprot.RunResult{Islands: []*evoprot.Result{paretoIsl, scalar}, BestIsland: 0}); got != final {
		t.Fatalf("best island's front %+v, want the final population's %+v", got, final)
	}
	if got := finalFront(&evoprot.RunResult{Islands: []*evoprot.Result{scalar, paretoIsl}, BestIsland: 0}); got != final {
		t.Fatalf("largest-hypervolume front %+v, want the final population's %+v", got, final)
	}
	if got := finalFront(&evoprot.RunResult{Islands: []*evoprot.Result{scalar}, BestIsland: 0}); got != nil {
		t.Fatalf("scalar run reported front %+v", got)
	}
}
