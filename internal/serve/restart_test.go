package serve

// The crash-safety property the service is built around: a job
// interrupted mid-run survives a server restart, resumes from its last
// checkpoint with only its remaining budget, and — because snapshot
// resume continues the identical stochastic trajectory — converges to
// the same result an uninterrupted run produces. Both restart tests run
// against each storage backend: the same crash-and-resume semantics,
// and the same results bit for bit, whatever the store.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"evoprot"
	"evoprot/internal/storage"
)

func TestKillAndRestartResumesFromCheckpoint(t *testing.T) {
	for name, be := range testStores(t) {
		t.Run(name, func(t *testing.T) { killAndRestartResumes(t, be) })
	}
}

func killAndRestartResumes(t *testing.T, be storage.Store) {
	// Both server lifetimes share the backend instance: the filesystem
	// store is stateless over its root, and the in-memory store IS the
	// persistence, so handing the same one to the restarted server is the
	// mem analogue of pointing a new server at the old data dir.
	cfg := Config{
		Store:           be,
		Workers:         1,
		CheckpointEvery: 5,
		Logf:            t.Logf,
	}
	// A single island keeps the resumed trajectory bit-identical to the
	// uninterrupted one regardless of where the interruption lands
	// relative to migration barriers.
	spec := evoprot.JobSpec{
		Dataset:      "flare",
		Rows:         120,
		Generations:  800,
		Islands:      1,
		MigrateEvery: 10,
		Seed:         17,
	}

	// Server 1: accept the job, let it evolve, then go down mid-run.
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

	// The persisted state must describe a resumable, non-terminal job
	// whose checkpoint is no more than one checkpoint interval behind.
	st := &store{be: be}
	var diskStatus JobStatus
	if err := st.loadJSON(status.ID, statusKey, &diskStatus); err != nil {
		t.Fatal(err)
	}
	if diskStatus.State.Terminal() {
		t.Fatalf("interrupted job persisted as terminal %s", diskStatus.State)
	}
	ckpt, err := be.Get(status.ID, checkpointKey)
	if err != nil {
		t.Fatalf("no checkpoint after interruption: %v", err)
	}
	meta, err := evoprot.PeekCheckpoint(bytes.NewReader(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	if meta.Generation < diskStatus.Generation-cfg.CheckpointEvery {
		t.Fatalf("checkpoint at generation %d lags interrupted generation %d by more than the interval %d",
			meta.Generation, diskStatus.Generation, cfg.CheckpointEvery)
	}
	t.Logf("interrupted at generation %d, checkpoint at %d", diskStatus.Generation, meta.Generation)

	// Server 2 over the same data dir: recovery re-enqueues and resumes.
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
		t.Fatalf("resumed job finished as %s (error %q)", done.State, done.Error)
	}
	if done.Generation != 800 {
		t.Fatalf("resumed job executed %d generations, want 800", done.Generation)
	}
	if done.Resumes != 1 {
		t.Fatalf("resumes = %d, want 1", done.Resumes)
	}

	// The event feed spans both server lifetimes with contiguous offsets:
	// every generation once, plus the interruption's Done event and the
	// final one.
	events := fetchEvents(t, ts2.URL, status.ID, 0)
	if len(events) != 800+2 {
		t.Fatalf("feed has %d events, want %d", len(events), 800+2)
	}
	maxGen, doneEvents := 0, 0
	for i, ev := range events {
		if ev.Seq != uint64(i) {
			t.Fatalf("event %d has seq %d: restart broke the offset space", i, ev.Seq)
		}
		if ev.Stats.Gen > maxGen {
			maxGen = ev.Stats.Gen
		}
		if ev.Done {
			doneEvents++
		}
	}
	if maxGen != 800 || doneEvents != 2 {
		t.Fatalf("feed reaches generation %d with %d Done events, want 800 and 2", maxGen, doneEvents)
	}

	// Same-quality convergence: an uninterrupted run of the identical
	// spec on the restarted server must land on the identical result —
	// checkpoint resume continues the exact stochastic trajectory.
	ref := postJob(t, ts2.URL, spec)
	refDone := waitFor(t, ts2.URL, ref.ID, 120*time.Second, func(s JobStatus) bool {
		return s.State.Terminal()
	})
	if refDone.State != StateDone {
		t.Fatalf("reference job finished as %s", refDone.State)
	}
	resumedResult := fetchResult(t, ts2.URL, status.ID)
	refResult := fetchResult(t, ts2.URL, ref.ID)
	if resumedResult.Best.Score != refResult.Best.Score {
		t.Fatalf("resumed run converged to %.6f, uninterrupted run to %.6f",
			resumedResult.Best.Score, refResult.Best.Score)
	}
	if resumedResult.DatasetCSV != refResult.DatasetCSV {
		t.Fatal("resumed run's protected dataset differs from the uninterrupted run's")
	}
}

func fetchResult(t *testing.T, base, id string) JobResult {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: HTTP %s", resp.Status)
	}
	var result JobResult
	if err := json.NewDecoder(resp.Body).Decode(&result); err != nil {
		t.Fatal(err)
	}
	return result
}

// TestKillAndRestartHeterogeneousJob: a niched multi-island job survives
// a server restart — per-island configs come back from the persisted
// spec and checkpoint, the resumed job completes its full budget, and the
// event feed spans both server lifetimes with contiguous offsets.
func TestKillAndRestartHeterogeneousJob(t *testing.T) {
	for name, be := range testStores(t) {
		t.Run(name, func(t *testing.T) { killAndRestartHeterogeneous(t, be) })
	}
}

func killAndRestartHeterogeneous(t *testing.T, be storage.Store) {
	cfg := Config{
		Store:           be,
		Workers:         1,
		CheckpointEvery: 5,
		Logf:            t.Logf,
	}
	spec := evoprot.JobSpec{
		Dataset:      "flare",
		Rows:         120,
		Generations:  400,
		Islands:      3,
		MigrateEvery: 10,
		PerIsland: []evoprot.IslandConfig{
			{},
			{MutationRate: 0.5, LeaderFraction: 0.15},
			{MutationRate: 0.75, LeaderFraction: 0.25, Selection: "uniform"},
		},
		Seed: 23,
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

	// The persisted checkpoint must advertise the heterogeneous shape.
	ckpt, err := be.Get(status.ID, checkpointKey)
	if err != nil {
		t.Fatalf("no checkpoint after interruption: %v", err)
	}
	meta, err := evoprot.PeekCheckpoint(bytes.NewReader(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	if meta.Islands != 3 || !meta.Heterogeneous {
		t.Fatalf("checkpoint meta %+v, want 3 heterogeneous islands", meta)
	}

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
		t.Fatalf("resumed heterogeneous job finished as %s (error %q)", done.State, done.Error)
	}
	// Budget arithmetic counts from the checkpoint's MinGeneration so no
	// island ends up short; islands ahead of a mid-epoch checkpoint
	// overshoot by at most the cross-island spread at the interruption,
	// which one epoch bounds.
	maxOver := 400 + spec.MigrateEvery
	if done.Generation < 400 || done.Generation > maxOver {
		t.Fatalf("resumed job executed %d generations, want 400..%d", done.Generation, maxOver)
	}
	if done.Resumes != 1 {
		t.Fatalf("resumes = %d, want 1", done.Resumes)
	}

	// The feed spans both lifetimes contiguously.
	events := fetchEvents(t, ts2.URL, status.ID, 0)
	maxGen, doneEvents := 0, 0
	for i, ev := range events {
		if ev.Seq != uint64(i) {
			t.Fatalf("event %d has seq %d: restart broke the offset space", i, ev.Seq)
		}
		if ev.Stats.Gen > maxGen {
			maxGen = ev.Stats.Gen
		}
		if ev.Done {
			doneEvents++
		}
	}
	if maxGen != done.Generation {
		t.Fatalf("feed reaches generation %d, status reports %d", maxGen, done.Generation)
	}
	// One Done per island per lifetime the island ended in: 3 at the
	// interruption plus 3 at completion.
	if doneEvents != 6 {
		t.Fatalf("feed carries %d Done events, want 6", doneEvents)
	}

	result := fetchResult(t, ts2.URL, status.ID)
	if result.Islands != 3 || result.Best.Score <= 0 {
		t.Fatalf("heterogeneous result malformed: %+v", result)
	}
}

// TestRestartRecoversQueuedJobs: a job accepted but never started also
// survives a restart — recovery re-enqueues it from scratch.
func TestRestartRecoversQueuedJobs(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Store: fsStore(t, dir), Workers: 1, Logf: t.Logf}

	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// No Start: the job can only queue.
	ts1 := httptest.NewServer(s1.Handler())
	spec := smallSpec()
	status := postJob(t, ts1.URL, spec)
	if status.State != StateQueued {
		t.Fatalf("job state %s with no workers", status.State)
	}
	ts1.Close()
	stopCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := s1.Stop(stopCtx); err != nil {
		t.Fatal(err)
	}
	cancel()

	cfg.Store = fsStore(t, dir)
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
	done := waitFor(t, ts2.URL, status.ID, 60*time.Second, func(s JobStatus) bool {
		return s.State.Terminal()
	})
	if done.State != StateDone || done.Resumes != 0 {
		t.Fatalf("recovered queued job: state %s, resumes %d", done.State, done.Resumes)
	}
}

// TestRestartLoadsSpecWithRemovedRouteKnobs: specs persisted while
// JobSpec still had the evaluation-route knobs ("disable_delta",
// "lazy_prepare") or the search add-ons ("niches", "adaptive", per-island
// "crossover_points") must keep loading on restart. The store decodes
// leniently, so the dropped fields are ignored and the recovered job
// runs to completion with its remaining per-island override intact.
func TestRestartLoadsSpecWithRemovedRouteKnobs(t *testing.T) {
	cfg := Config{Store: storage.NewMem(), Workers: 1, Logf: t.Logf}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// No Start: the job can only queue.
	ts1 := httptest.NewServer(s1.Handler())
	jobSpec := smallSpec()
	jobSpec.PerIsland = []evoprot.IslandConfig{{}, {Selection: "rank"}}
	status := postJob(t, ts1.URL, jobSpec)
	ts1.Close()
	stopCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := s1.Stop(stopCtx); err != nil {
		t.Fatal(err)
	}
	cancel()

	raw, err := cfg.Store.Get(status.ID, statusKey)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	spec := doc["spec"].(map[string]any)
	spec["disable_delta"] = true
	spec["lazy_prepare"] = true
	spec["niches"] = "explore-exploit"
	spec["adaptive"] = map[string]any{"max_every": 40, "high_divergence": 0.2}
	spec["per_island"].([]any)[1].(map[string]any)["crossover_points"] = 4
	if raw, err = json.Marshal(doc); err != nil {
		t.Fatal(err)
	}
	if err := cfg.Store.Put(status.ID, statusKey, raw); err != nil {
		t.Fatal(err)
	}

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
	done := waitFor(t, ts2.URL, status.ID, 60*time.Second, func(s JobStatus) bool {
		return s.State.Terminal()
	})
	if done.State != StateDone {
		t.Fatalf("recovered job with legacy spec fields: state %s (error %q)", done.State, done.Error)
	}
	if done.Generation != jobSpec.Generations || len(done.Spec.PerIsland) != 2 || done.Spec.PerIsland[1].Selection != "rank" {
		t.Fatalf("recovered job ran %d generations with spec %+v", done.Generation, done.Spec)
	}
	if result := fetchResult(t, ts2.URL, status.ID); result.Islands != 2 {
		t.Fatalf("recovered job ran %d islands, want 2", result.Islands)
	}
}
