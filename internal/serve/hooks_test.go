package serve

// In-package coverage of the coordinator surface: the Executor (the
// execution half a cluster worker wraps around a remote store) and the
// hooks that fold out-of-process writes back into a coordinator's live
// state. The cluster package exercises the same seams over real HTTP;
// these tests pin their contracts at the package boundary.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"evoprot"
	"evoprot/internal/storage"
)

// queuedJob submits a job on a server whose workers never start, so it
// stays queued in the shared store for an Executor to claim.
func queuedJob(t *testing.T, be storage.Store) (*Server, *httptest.Server, string) {
	t.Helper()
	s, err := New(Config{Store: be, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	status := postJob(t, ts.URL, smallSpec())
	return s, ts, status.ID
}

func TestExecutorRunsPersistedJob(t *testing.T) {
	be := storage.NewMem()
	_, _, id := queuedJob(t, be)

	x := NewExecutor(be, 5, t.Logf)
	done, err := x.Execute(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateDone || done.Generation != smallSpec().Generations {
		t.Fatalf("executed job: state %s, generation %d", done.State, done.Generation)
	}

	// A terminal job comes back untouched, no error.
	again, err := x.Execute(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if again.State != StateDone || again.Resumes != done.Resumes {
		t.Fatalf("re-executing a done job changed it: %+v", again)
	}

	// Unknown jobs are an infrastructure error, not a zero status.
	if _, err := x.Execute(context.Background(), "ghost"); err == nil {
		t.Fatal("executing an unknown job succeeded")
	}
}

// interruptAtCheckpoint is a store that cancels its run with
// ErrInterrupted when the first checkpoint is written: the run is then
// interrupted mid-way however fast its generations are.
type interruptAtCheckpoint struct {
	storage.Store
	cancel context.CancelCauseFunc
}

func (s interruptAtCheckpoint) Put(job, key string, data []byte) error {
	if key == checkpointKey {
		s.cancel(ErrInterrupted)
	}
	return s.Store.Put(job, key, data)
}

func TestExecutorInterruptLeavesResumable(t *testing.T) {
	be := storage.NewMem()
	_, _, id := queuedJob(t, be)

	// Interrupt the run at its first checkpoint: ErrInterrupted is the
	// shutdown cause, so the job must persist resumable, not terminal.
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	x := NewExecutor(interruptAtCheckpoint{Store: be, cancel: cancel}, 5, t.Logf)
	interrupted, err := x.Execute(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if interrupted.State.Terminal() {
		t.Fatalf("interrupted job persisted terminal %s", interrupted.State)
	}
	// The feed marker carries the final checkpoint's own generation, so a
	// crash resume from that checkpoint trusts it and rewinds the feed.
	st := &store{be: be}
	ckpt, err := be.Get(id, checkpointKey)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := evoprot.PeekCheckpoint(bytes.NewReader(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	var mark ckptMeta
	if err := st.loadJSON(id, ckptMetaKey, &mark); err != nil {
		t.Fatal(err)
	}
	if mark.Generation != meta.Generation || meta.Generation == 0 {
		t.Fatalf("feed marker at generation %d, checkpoint at %d", mark.Generation, meta.Generation)
	}

	// A second executor claims and finishes it — the worker-handoff flow.
	// Claiming requires the queued state a coordinator's requeue restores.
	var status JobStatus
	if err := st.loadJSON(id, statusKey, &status); err != nil {
		t.Fatal(err)
	}
	status.State = StateQueued
	if err := st.saveJSON(id, statusKey, status); err != nil {
		t.Fatal(err)
	}
	done, err := NewExecutor(be, 5, t.Logf).Execute(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateDone || done.Generation != smallSpec().Generations {
		t.Fatalf("handed-off job: state %s, generation %d", done.State, done.Generation)
	}
}

func TestCoordinatorHooks(t *testing.T) {
	be := storage.NewMem()
	s, _, id := queuedJob(t, be)

	if _, ok := s.JobSnapshot("ghost"); ok {
		t.Fatal("snapshot of an unknown job")
	}
	snap, ok := s.JobSnapshot(id)
	if !ok || snap.State != StateQueued {
		t.Fatalf("snapshot: %+v, %v", snap, ok)
	}

	if s.CancelRequested(id) || s.CancelRequested("ghost") {
		t.Fatal("phantom cancel request")
	}
	j := s.job(id)
	j.mu.Lock()
	j.clientCancel = true
	j.mu.Unlock()
	if !s.CancelRequested(id) {
		t.Fatal("pending DELETE not reported")
	}

	// RequeueJob on a job caught running counts the resumption its next
	// leaseholder will perform; requeueing an already-queued job does not.
	if err := s.RequeueJob(id); err != nil {
		t.Fatal(err)
	}
	if snap, _ = s.JobSnapshot(id); snap.Resumes != 0 {
		t.Fatalf("requeue of a queued job counted %d resumes", snap.Resumes)
	}
	j.mu.Lock()
	j.status.State = StateRunning
	j.mu.Unlock()
	if err := s.RequeueJob(id); err != nil {
		t.Fatal(err)
	}
	snap, _ = s.JobSnapshot(id)
	if snap.State != StateQueued || snap.Resumes != 1 {
		t.Fatalf("requeue of a running job: state %s, resumes %d", snap.State, snap.Resumes)
	}
	if err := s.RequeueJob("ghost"); err == nil {
		t.Fatal("requeueing an unknown job succeeded")
	}

	// SyncJobStatus installs a remote worker's status document; garbage is
	// dropped, not installed.
	remote := snap
	remote.State = StateDone
	remote.Generation = 99
	remote.Finished = time.Now().UTC()
	raw, err := json.Marshal(remote)
	if err != nil {
		t.Fatal(err)
	}
	s.SyncJobStatus(id, raw)
	if snap, _ = s.JobSnapshot(id); snap.State != StateDone || snap.Generation != 99 {
		t.Fatalf("synced status not installed: %+v", snap)
	}
	s.SyncJobStatus(id, []byte("{not json"))
	if snap, _ = s.JobSnapshot(id); snap.Generation != 99 {
		t.Fatalf("garbage status overwrote the cache: %+v", snap)
	}
	s.SyncJobStatus("ghost", raw) // unknown id: ignored, not fatal

	// NoteJobEvents advances the live feed counters for remotely-appended
	// lines; ResyncJobEvents recounts from the store after a truncate.
	line := []byte(`{"seq":0}` + "\n")
	if err := be.Append(id, eventsKey, line); err != nil {
		t.Fatal(err)
	}
	s.NoteJobEvents(id, 1, int64(len(line)))
	if snap, _ = s.JobSnapshot(id); snap.Events != 1 {
		t.Fatalf("noted event not counted: %d", snap.Events)
	}
	s.ResyncJobEvents(id)
	if snap, _ = s.JobSnapshot(id); snap.Events != 1 {
		t.Fatalf("resync miscounted the feed: %d", snap.Events)
	}
	s.NoteJobEvents("ghost", 1, 1) // unknown id: ignored
	s.ResyncJobEvents("ghost")
}

func TestLoadKeyringFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "keys.txt")
	if err := os.WriteFile(path, []byte("k1 alpha\n# rotation\nk2 alpha\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	k, err := LoadKeyring(path)
	if err != nil {
		t.Fatal(err)
	}
	if tenant, ok := k.Resolve("k2"); !ok || tenant != "alpha" {
		t.Fatalf("Resolve(k2) = %q, %v", tenant, ok)
	}

	bad := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(bad, []byte("just-a-key\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadKeyring(bad); err == nil {
		t.Fatal("malformed auth file accepted")
	}
}

// TestExecutorFinalizesExhaustedCheckpoint: a job whose final checkpoint
// already holds its whole budget (the crash landed before finalization)
// is finalized from the resumed state without running, and its result
// still reports the run's shape — here a per_island spec with no island
// count, which runs one island per override.
func TestExecutorFinalizesExhaustedCheckpoint(t *testing.T) {
	be := storage.NewMem()
	s, err := New(Config{Store: be, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	spec := smallSpec()
	spec.Islands = 0
	spec.Generations = 10
	spec.PerIsland = []evoprot.IslandConfig{{}, {Selection: "rank"}, {}}
	id := postJob(t, ts.URL, spec).ID

	x := NewExecutor(be, 5, t.Logf)
	if done, err := x.Execute(context.Background(), id); err != nil || done.State != StateDone {
		t.Fatalf("first execution: state %s, err %v", done.State, err)
	}
	// Re-queue the finished job as if finalization never happened.
	st := &store{be: be}
	var status JobStatus
	if err := st.loadJSON(id, statusKey, &status); err != nil {
		t.Fatal(err)
	}
	status.State = StateQueued
	if err := st.saveJSON(id, statusKey, status); err != nil {
		t.Fatal(err)
	}
	if done, err := x.Execute(context.Background(), id); err != nil || done.State != StateDone {
		t.Fatalf("finalizing execution: state %s, err %v", done.State, err)
	}
	var result JobResult
	if err := st.loadJSON(id, resultKey, &result); err != nil {
		t.Fatal(err)
	}
	if result.Evaluations != 0 {
		t.Fatalf("result reports %d evaluations: the job ran again instead of finalizing", result.Evaluations)
	}
	if result.Islands != 3 || result.Generations != 10 || result.Best.Score <= 0 {
		t.Fatalf("finalized result: %d islands, %d generations, best %v; want 3 islands, 10 generations",
			result.Islands, result.Generations, result.Best.Score)
	}
}
