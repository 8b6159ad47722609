package cluster

// Edge-of-the-protocol units: config validation, and the error branches a healthy cluster never walks —
// unreachable coordinators, refused leases, garbage payloads.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"evoprot/internal/serve"
	"evoprot/internal/storage"
)

// TestConfigValidation: both constructors refuse configs they cannot
// serve.
func TestConfigValidation(t *testing.T) {
	if _, err := NewCoordinator(Config{}); err == nil {
		t.Fatal("coordinator without a store accepted")
	}
	if _, err := NewWorker(WorkerConfig{}); err == nil {
		t.Fatal("worker without a coordinator URL accepted")
	}
	w, err := NewWorker(WorkerConfig{Coordinator: "http://head:8080/"})
	if err != nil {
		t.Fatal(err)
	}
	if w.base != "http://head:8080" {
		t.Fatalf("trailing slash kept: %q", w.base)
	}
	if w.cfg.Name != "worker" || w.cfg.Concurrency != 1 || w.cfg.Wait != DefaultAcquireWait {
		t.Fatalf("defaults not applied: %+v", w.cfg)
	}
}

// TestWorkerSurvivesRefusedCoordinator: a worker whose acquires are
// refused (HTTP 500) logs, backs off and keeps polling instead of
// crashing, and still winds down promptly on cancel.
func TestWorkerSurvivesRefusedCoordinator(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "no leases today", http.StatusInternalServerError)
	}))
	defer srv.Close()

	w, err := NewWorker(WorkerConfig{Coordinator: srv.URL, Wait: 50 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		w.Run(ctx)
		close(done)
	}()
	for deadline := time.Now().Add(10 * time.Second); calls.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("worker never tried to acquire")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel() // lands in the acquire-backoff sleep or the next poll
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not stop")
	}
}

// TestWorkerLeaseCallErrors: renew and release surface refusals the
// protocol does not define (anything but 200/409) as errors, without
// panicking on an unreachable endpoint.
func TestWorkerLeaseCallErrors(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "teapot", http.StatusTeapot)
	}))
	defer srv.Close()

	var logged []string
	w, err := NewWorker(WorkerConfig{Coordinator: srv.URL, Logf: func(format string, args ...any) {
		logged = append(logged, format)
	}})
	if err != nil {
		t.Fatal(err)
	}
	l := &Lease{Job: "j1", Token: "1-dead"}
	if _, err := w.renew(l); err == nil || !strings.Contains(err.Error(), "renewal refused") {
		t.Fatalf("renew against HTTP 418: %v", err)
	}
	w.release(l, "complete", nil)
	if len(logged) == 0 {
		t.Fatal("refused release not logged")
	}

	// Unreachable coordinator: transport errors, not protocol errors.
	dead, err := NewWorker(WorkerConfig{Coordinator: "http://127.0.0.1:1", Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dead.renew(l); err == nil {
		t.Fatal("renew against a dead endpoint succeeded")
	}
	dead.release(l, "fail", &failRequest{Error: "x"}) // must not panic
	if _, err := dead.acquire(context.Background()); err == nil {
		t.Fatal("acquire against a dead endpoint succeeded")
	}
}

// TestAcquireProtocolErrors: the lease endpoint rejects garbage and
// refuses once the coordinator is shutting down.
func TestAcquireProtocolErrors(t *testing.T) {
	c, ts := testCoordinator(t, storage.NewMem(), Config{})

	resp, err := http.Post(ts.URL+"/v1/lease", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage lease request: HTTP %d, want 400", resp.StatusCode)
	}

	stopCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.Stop(stopCtx); err != nil {
		t.Fatal(err)
	}
	code, _ := acquireLease(t, ts.URL, "w1", 0)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("acquire after Stop: HTTP %d, want 503", code)
	}
}

// TestReleaseProtocolErrors: complete and fail demand the live token —
// and fail rejects garbage bodies before touching the lease table.
func TestReleaseProtocolErrors(t *testing.T) {
	_, ts := testCoordinator(t, storage.NewMem(), Config{})
	postJob(t, ts.URL, smallSpec())
	code, l := acquireLease(t, ts.URL, "w1", 2*time.Second)
	if code != http.StatusOK {
		t.Fatalf("acquire: HTTP %d", code)
	}

	if code := leasePost(t, ts.URL, l.Job, "complete", "1-bogus", "{}"); code != http.StatusConflict {
		t.Fatalf("complete with a stale token: HTTP %d, want 409", code)
	}
	if code := leasePost(t, ts.URL, l.Job, "fail", l.Token, "{not json"); code != http.StatusBadRequest {
		t.Fatalf("garbage fail body: HTTP %d, want 400", code)
	}
	if code := leasePost(t, ts.URL, l.Job, "fail", "1-bogus", `{"error":"x"}`); code != http.StatusConflict {
		t.Fatalf("fail with a stale token: HTTP %d, want 409", code)
	}
	// The real holder can still finish after all those impostors.
	if code := leasePost(t, ts.URL, l.Job, "fail", l.Token, `{"error":"x","requeue":true}`); code != http.StatusNoContent {
		t.Fatalf("fail by the leaseholder: HTTP %d, want 204", code)
	}
}

// TestMarkFailedEdgeCases: recording an infra failure tolerates jobs
// with no status, unreadable status, or an outcome the engine already
// persisted (which always wins).
func TestMarkFailedEdgeCases(t *testing.T) {
	be := storage.NewMem()
	c, _ := testCoordinator(t, be, Config{})

	c.markFailed("ghost", "boom") // no status at all: logged, not fatal

	if err := be.Put("garbled", serve.StatusKey, []byte("{not json")); err != nil {
		t.Fatal(err)
	}
	c.markFailed("garbled", "boom")
	if raw, err := be.Get("garbled", serve.StatusKey); err != nil || string(raw) != "{not json" {
		t.Fatalf("unreadable status was rewritten: %q, %v", raw, err)
	}

	done, err := json.Marshal(serve.JobStatus{ID: "finished", State: serve.StateDone})
	if err != nil {
		t.Fatal(err)
	}
	if err := be.Put("finished", serve.StatusKey, done); err != nil {
		t.Fatal(err)
	}
	c.markFailed("finished", "boom")
	raw, err := be.Get("finished", serve.StatusKey)
	if err != nil {
		t.Fatal(err)
	}
	var status serve.JobStatus
	if err := json.Unmarshal(raw, &status); err != nil {
		t.Fatal(err)
	}
	if status.State != serve.StateDone || status.Error != "" {
		t.Fatalf("engine-recorded outcome overwritten: %+v", status)
	}
}
