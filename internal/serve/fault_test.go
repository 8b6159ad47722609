package serve

// Storage fault-injection tests: the service's contract under a failing
// or corrupting backend. A checkpoint write failure surfaces as
// ErrCheckpoint and fails the job rather than silently dropping
// durability; a corrupt status document is skipped at recovery without
// taking down neighboring jobs; and a recovered over-bound backlog
// counts against admission until workers drain it.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"evoprot/internal/storage"
)

// serveHTTP exposes an already-built server over real HTTP with cleanup.
func serveHTTP(t *testing.T, s *Server) string {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		stopCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Stop(stopCtx); err != nil {
			t.Errorf("stopping server: %v", err)
		}
	})
	return ts.URL
}

// TestCheckpointWriteFailureFailsJob: when every checkpoint write fails,
// the run's final checkpoint write failure (evoprot.ErrCheckpoint) must
// fail the job with the cause recorded — a job whose durability contract
// was broken must not report success.
func TestCheckpointWriteFailureFailsJob(t *testing.T) {
	flaky := &storage.Flaky{
		Store:           storage.NewMem(),
		Key:             checkpointKey,
		FailWritesAfter: 1,
	}
	_, ts := testServer(t, Config{Store: flaky, Workers: 1, CheckpointEvery: 5})
	status := postJob(t, ts.URL, smallSpec())
	done := waitFor(t, ts.URL, status.ID, 60*time.Second, func(s JobStatus) bool {
		return s.State.Terminal()
	})
	if done.State != StateFailed {
		t.Fatalf("job with a failing checkpoint store finished as %s, want %s", done.State, StateFailed)
	}
	if !strings.Contains(done.Error, "checkpoint") {
		t.Fatalf("failure cause %q does not name the checkpoint write", done.Error)
	}
}

// TestEventLogWriteFailureRecordedNotFatal: a failing event feed latches
// the log and records the error on the status, but the optimization
// itself still completes — the feed is observability, not the result.
func TestEventLogWriteFailureRecordedNotFatal(t *testing.T) {
	flaky := &storage.Flaky{
		Store:           storage.NewMem(),
		Key:             eventsKey,
		FailWritesAfter: 2, // the feed's creation append succeeds; event appends fail
	}
	_, ts := testServer(t, Config{Store: flaky, Workers: 1})
	status := postJob(t, ts.URL, smallSpec())
	done := waitFor(t, ts.URL, status.ID, 60*time.Second, func(s JobStatus) bool {
		return s.State.Terminal()
	})
	if done.State != StateDone {
		t.Fatalf("job with a failing event feed finished as %s, want %s", done.State, StateDone)
	}
	if !strings.Contains(done.Error, "event log") {
		t.Fatalf("status error %q does not record the event log failure", done.Error)
	}
}

// TestRecoverySkipsCorruptStatus: recovery over a store holding one
// healthy terminal job, one job with a garbage status document, and one
// whose status reads back torn must boot, keep the healthy job
// queryable, and skip the broken ones.
func TestRecoverySkipsCorruptStatus(t *testing.T) {
	for name, be := range testStores(t) {
		t.Run(name, func(t *testing.T) {
			st := &store{be: be}
			good := JobStatus{ID: "jgood", State: StateDone, Created: time.Now().UTC()}
			if err := st.saveJSON("jgood", statusKey, good); err != nil {
				t.Fatal(err)
			}
			if err := be.Put("jbad", statusKey, []byte(`{"id": "jbad", "state":`)); err != nil {
				t.Fatal(err)
			}
			// jtorn's document is valid at rest but reads back torn.
			if err := st.saveJSON("jtorn", statusKey, good); err != nil {
				t.Fatal(err)
			}
			flaky := &storage.Flaky{Store: be, Key: statusKey, TornReads: true}
			s, err := New(Config{Store: &tornForJob{flaky: flaky, be: be, job: "jtorn"}, Logf: t.Logf})
			if err != nil {
				t.Fatalf("recovery died on corrupt neighbors: %v", err)
			}
			ts := serveHTTP(t, s)
			resp, err := http.Get(ts + "/v1/jobs/jgood")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("healthy neighbor: HTTP %d, want 200", resp.StatusCode)
			}
			for _, id := range []string{"jbad", "jtorn"} {
				resp, err := http.Get(ts + "/v1/jobs/" + id)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusNotFound {
					t.Fatalf("corrupt job %s: HTTP %d, want 404", id, resp.StatusCode)
				}
			}
		})
	}
}

// tornForJob routes one job's reads through a torn-read injector and
// everything else to the real store.
type tornForJob struct {
	flaky *storage.Flaky
	be    storage.Store
	job   string
}

func (s *tornForJob) Get(job, key string) ([]byte, error) {
	if job == s.job {
		return s.flaky.Get(job, key)
	}
	return s.be.Get(job, key)
}
func (s *tornForJob) Put(job, key string, data []byte) error    { return s.be.Put(job, key, data) }
func (s *tornForJob) Append(job, key string, data []byte) error { return s.be.Append(job, key, data) }
func (s *tornForJob) Open(job, key string) (io.ReadCloser, error) {
	return s.be.Open(job, key)
}
func (s *tornForJob) Truncate(job, key string, size int64) error {
	return s.be.Truncate(job, key, size)
}
func (s *tornForJob) List() ([]string, error) { return s.be.List() }
func (s *tornForJob) Delete(job string) error { return s.be.Delete(job) }

// TestRecoveredBacklogCountsAgainstAdmission: jobs force-pushed at
// recovery are never stranded, but they occupy queue capacity — while
// the recovered backlog holds the queue at or over its bound, new
// submissions get 503; once workers drain it, admission reopens.
func TestRecoveredBacklogCountsAgainstAdmission(t *testing.T) {
	be := storage.NewMem()

	// Server 1 (no workers): bank three queued jobs.
	s1, err := New(Config{Store: be, QueueDepth: 3, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := serveHTTP(t, s1)
	var ids []string
	for i := 0; i < 3; i++ {
		ids = append(ids, postJob(t, ts1, smallSpec()).ID)
	}

	// Server 2 over the same store, bound 2: recovery must enqueue all
	// three (ForcePush bypasses the bound), and the over-bound backlog
	// must refuse new submissions.
	s2, err := New(Config{Store: be, Workers: 1, QueueDepth: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.queue.Depth(); got != 3 {
		t.Fatalf("recovered queue depth %d, want 3: recovery stranded persisted jobs", got)
	}
	ts2 := serveHTTP(t, s2)
	if code := postJobCode(t, ts2, smallSpec()); code != http.StatusServiceUnavailable {
		t.Fatalf("submission against a recovered over-bound backlog: HTTP %d, want 503", code)
	}

	// Drain: once the recovered jobs finish, admission reopens.
	s2.Start()
	for _, id := range ids {
		waitFor(t, ts2, id, 120*time.Second, func(s JobStatus) bool { return s.State.Terminal() })
	}
	if code := postJobCode(t, ts2, smallSpec()); code != http.StatusCreated {
		t.Fatalf("submission after the backlog drained: HTTP %d, want 201", code)
	}
}

// postJobCode submits a spec and returns only the HTTP status code.
func postJobCode(t *testing.T, base string, spec any) int {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestStoresBitIdentical: the storage backend is an implementation
// detail of persistence, never of the optimization — the same spec run
// on a filesystem-backed and a memory-backed server must converge to the
// identical protected dataset, byte for byte.
func TestStoresBitIdentical(t *testing.T) {
	results := map[string]JobResult{}
	for name, be := range testStores(t) {
		_, ts := testServer(t, Config{Store: be, Workers: 1})
		status := postJob(t, ts.URL, smallSpec())
		waitFor(t, ts.URL, status.ID, 60*time.Second, func(s JobStatus) bool {
			return s.State.Terminal()
		})
		results[name] = fetchResult(t, ts.URL, status.ID)
	}
	fs, mem := results["fs"], results["mem"]
	if fs.Best.Score != mem.Best.Score || fs.Generations != mem.Generations {
		t.Fatalf("stores diverged: fs best %.9f over %d generations, mem best %.9f over %d",
			fs.Best.Score, fs.Generations, mem.Best.Score, mem.Generations)
	}
	if fs.DatasetCSV == "" || fs.DatasetCSV != mem.DatasetCSV {
		t.Fatal("protected datasets differ between storage backends")
	}
}
