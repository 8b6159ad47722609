package cluster

// Unit-level tests of the lease protocol: grant, renew, release,
// expiry, fencing and the cluster health surface. The determinism
// gates — leased runs matching standalone bit for bit, including
// through a forced mid-run lease expiry — live in topology_test.go.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"evoprot"
	"evoprot/internal/serve"
	"evoprot/internal/storage"
)

// testStores builds one of each storage backend for a parameterized
// test: the filesystem store over a temp dir and the in-memory store.
func testStores(t *testing.T) map[string]storage.Store {
	t.Helper()
	fs, err := storage.NewFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]storage.Store{"fs": fs, "mem": storage.NewMem()}
}

// testCoordinator boots a coordinator over be and exposes it over real
// HTTP.
func testCoordinator(t *testing.T, be storage.Store, cfg Config) (*Coordinator, *httptest.Server) {
	t.Helper()
	cfg.Serve.Store = be
	if cfg.Serve.Logf == nil {
		cfg.Serve.Logf = t.Logf
	}
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		ts.Close()
		stopCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := c.Stop(stopCtx); err != nil {
			t.Errorf("stopping coordinator: %v", err)
		}
	})
	return c, ts
}

// startWorker runs a worker against the coordinator at base until the
// returned stop function is called (also registered as cleanup).
func startWorker(t *testing.T, base, name string, checkpointEvery int) (stop func()) {
	t.Helper()
	return startWorkerClient(t, base, name, checkpointEvery, nil)
}

// startWorkerClient is startWorker with a custom HTTP client — the hook
// fault tests inject a FlakyTransport through.
func startWorkerClient(t *testing.T, base, name string, checkpointEvery int, client *http.Client) (stop func()) {
	t.Helper()
	w, err := NewWorker(WorkerConfig{
		Coordinator:     base,
		Name:            name,
		CheckpointEvery: checkpointEvery,
		Wait:            100 * time.Millisecond,
		Client:          client,
		Logf:            t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	var once bool
	stop = func() {
		if once {
			return
		}
		once = true
		cancel()
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			t.Errorf("worker %s did not stop", name)
		}
	}
	t.Cleanup(stop)
	return stop
}

// smallSpec is a quick deterministic job: 2 islands, 30 generations.
func smallSpec() evoprot.JobSpec {
	return evoprot.JobSpec{
		Dataset:      "flare",
		Rows:         80,
		Generations:  30,
		Islands:      2,
		MigrateEvery: 5,
		Seed:         7,
	}
}

func postJob(t *testing.T, base string, spec evoprot.JobSpec) serve.JobStatus {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		buf := new(bytes.Buffer)
		buf.ReadFrom(resp.Body)
		t.Fatalf("submit: HTTP %s: %s", resp.Status, buf.String())
	}
	var status serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	return status
}

func getStatus(t *testing.T, base, id string) serve.JobStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status: HTTP %s", resp.Status)
	}
	var status serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	return status
}

// waitFor polls the job status until pred holds or the deadline passes.
func waitFor(t *testing.T, base, id string, deadline time.Duration, pred func(serve.JobStatus) bool) serve.JobStatus {
	t.Helper()
	end := time.Now().Add(deadline)
	for {
		status := getStatus(t, base, id)
		if pred(status) {
			return status
		}
		if time.Now().After(end) {
			t.Fatalf("job %s never reached the awaited condition; last status: %+v", id, status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// fetchEvents replays the NDJSON feed from offset 0.
func fetchEvents(t *testing.T, base, id string) []evoprot.Event {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/events?offset=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: HTTP %s", resp.Status)
	}
	var events []evoprot.Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var ev evoprot.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

func fetchResult(t *testing.T, base, id string) serve.JobResult {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: HTTP %s", resp.Status)
	}
	var result serve.JobResult
	if err := json.NewDecoder(resp.Body).Decode(&result); err != nil {
		t.Fatal(err)
	}
	return result
}

// acquireLease POSTs /v1/lease and returns the HTTP status plus the
// decoded lease when one was granted.
func acquireLease(t *testing.T, base, worker string, wait time.Duration) (int, *Lease) {
	t.Helper()
	body, _ := json.Marshal(leaseRequest{Worker: worker, WaitMillis: wait.Milliseconds()})
	resp, err := http.Post(base+"/v1/lease", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil
	}
	var l Lease
	if err := json.NewDecoder(resp.Body).Decode(&l); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, &l
}

// leasePost POSTs a lease verb with token and returns the HTTP status.
func leasePost(t *testing.T, base, job, verb, token, body string) int {
	t.Helper()
	if body == "" {
		body = "{}"
	}
	req, err := http.NewRequest(http.MethodPost, base+"/v1/lease/"+job+"/"+verb, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(storage.LeaseHeader, token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp.StatusCode
}

// TestLeaseLifecycle drives the protocol by hand: grant, renew (right
// and wrong token), release via fail-with-requeue, re-grant, and a
// final fail that records the worker's error on the job.
func TestLeaseLifecycle(t *testing.T) {
	_, ts := testCoordinator(t, storage.NewMem(), Config{})
	status := postJob(t, ts.URL, smallSpec())
	id := status.ID

	code, l := acquireLease(t, ts.URL, "w1", 0)
	if code != http.StatusOK || l == nil || l.Job != id || l.Token == "" || l.TTLMillis <= 0 {
		t.Fatalf("acquire: HTTP %d, lease %+v", code, l)
	}
	if code, _ := acquireLease(t, ts.URL, "w2", 0); code != http.StatusNoContent {
		t.Fatalf("second acquire on an empty queue: HTTP %d, want 204", code)
	}

	if code := leasePost(t, ts.URL, id, "renew", l.Token, ""); code != http.StatusOK {
		t.Fatalf("renew: HTTP %d", code)
	}
	if code := leasePost(t, ts.URL, id, "renew", "bogus", ""); code != http.StatusConflict {
		t.Fatalf("renew with a stale token: HTTP %d, want 409", code)
	}

	// Release with requeue: the job goes back for another worker and the
	// old token dies with the lease.
	if code := leasePost(t, ts.URL, id, "fail", l.Token, `{"error":"moving on","requeue":true}`); code != http.StatusNoContent {
		t.Fatalf("fail(requeue): HTTP %d", code)
	}
	if code := leasePost(t, ts.URL, id, "complete", l.Token, ""); code != http.StatusConflict {
		t.Fatalf("complete with a released token: HTTP %d, want 409", code)
	}
	code, l2 := acquireLease(t, ts.URL, "w2", time.Second)
	if code != http.StatusOK || l2 == nil || l2.Job != id {
		t.Fatalf("re-acquire: HTTP %d, lease %+v", code, l2)
	}
	if l2.Token == l.Token {
		t.Fatal("re-grant reused the old fencing token")
	}

	// A terminal fail records the worker's error.
	if code := leasePost(t, ts.URL, id, "fail", l2.Token, `{"error":"dataset unreadable"}`); code != http.StatusNoContent {
		t.Fatalf("fail: HTTP %d", code)
	}
	failed := getStatus(t, ts.URL, id)
	if failed.State != serve.StateFailed || !strings.Contains(failed.Error, "dataset unreadable") {
		t.Fatalf("failed job status: %+v", failed)
	}
}

// TestLeaseExpiryFencesAndRequeues: a worker that stops renewing loses
// its job to the janitor; the job is re-leased to someone else and the
// dead worker's token can no longer write.
func TestLeaseExpiryFencesAndRequeues(t *testing.T) {
	c, ts := testCoordinator(t, storage.NewMem(), Config{
		LeaseTTL:   80 * time.Millisecond,
		SweepEvery: 10 * time.Millisecond,
	})
	status := postJob(t, ts.URL, smallSpec())
	id := status.ID

	code, l := acquireLease(t, ts.URL, "doomed", 0)
	if code != http.StatusOK {
		t.Fatalf("acquire: HTTP %d", code)
	}

	// No renewals: the janitor must reap the lease and requeue the job.
	deadline := time.Now().Add(5 * time.Second)
	var l2 *Lease
	for l2 == nil {
		if time.Now().After(deadline) {
			t.Fatal("expired lease never re-granted")
		}
		if code, got := acquireLease(t, ts.URL, "heir", 200*time.Millisecond); code == http.StatusOK {
			l2 = got
		}
	}
	if l2.Job != id || l2.Token == l.Token {
		t.Fatalf("re-grant %+v after lease %+v", l2, l)
	}

	// The dead worker's writes bounce; the heir's pass.
	old := storage.NewRemote(ts.URL+"/v1/store", storage.RemoteWithToken(func(string) string { return l.Token }))
	if err := old.Put(id, "junk", []byte("late write")); err == nil || !strings.Contains(err.Error(), "no active lease") {
		t.Fatalf("expired token wrote through the fence: %v", err)
	}
	heir := storage.NewRemote(ts.URL+"/v1/store", storage.RemoteWithToken(func(string) string { return l2.Token }))
	if err := heir.Put(id, "junk", []byte("fine")); err != nil {
		t.Fatalf("active leaseholder refused: %v", err)
	}
	_ = c
}

// TestAcquireSkipsCancelledJob: a job cancelled while queued is
// finalized but still sitting in the queue; acquire must skip it like
// the in-process pool does, not lease a terminal job.
func TestAcquireSkipsCancelledJob(t *testing.T) {
	_, ts := testCoordinator(t, storage.NewMem(), Config{})
	status := postJob(t, ts.URL, smallSpec())

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+status.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if cancelled := getStatus(t, ts.URL, status.ID); cancelled.State != serve.StateCancelled {
		t.Fatalf("job after DELETE: %s", cancelled.State)
	}
	if code, l := acquireLease(t, ts.URL, "w", 0); code != http.StatusNoContent {
		t.Fatalf("acquire over a cancelled job: HTTP %d, lease %+v", code, l)
	}
}

// TestClusterHealth: the coordinator's health answer carries the
// cluster view — role, queue pressure and live leases.
func TestClusterHealth(t *testing.T) {
	_, ts := testCoordinator(t, storage.NewMem(), Config{})
	postJob(t, ts.URL, smallSpec())
	postJob(t, ts.URL, smallSpec())
	code, _ := acquireLease(t, ts.URL, "w", 0)
	if code != http.StatusOK {
		t.Fatalf("acquire: HTTP %d", code)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		Status   string `json:"status"`
		Role     string `json:"role"`
		Queued   int    `json:"queued"`
		Capacity int    `json:"queue_capacity"`
		Leases   int    `json:"leases"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Role != "coordinator" {
		t.Fatalf("health: %+v", health)
	}
	if health.Queued != 1 || health.Leases != 1 || health.Capacity != serve.DefaultQueueDepth {
		t.Fatalf("health counters: %+v (want 1 queued, 1 lease, capacity %d)", health, serve.DefaultQueueDepth)
	}
}

// TestWorkerRunsLeasedJob: the simplest end-to-end cluster path — one
// coordinator, one worker, one job — delivers a queryable result and
// a contiguous event feed through the coordinator's public API.
func TestWorkerRunsLeasedJob(t *testing.T) {
	_, ts := testCoordinator(t, storage.NewMem(), Config{})
	startWorker(t, ts.URL, "w1", 5)

	status := postJob(t, ts.URL, smallSpec())
	done := waitFor(t, ts.URL, status.ID, 60*time.Second, func(s serve.JobStatus) bool {
		return s.State.Terminal()
	})
	if done.State != serve.StateDone {
		t.Fatalf("leased job finished as %s (error %q)", done.State, done.Error)
	}
	if done.Generation != 30 {
		t.Fatalf("leased job executed %d generations, want 30", done.Generation)
	}

	events := fetchEvents(t, ts.URL, status.ID)
	for i, ev := range events {
		if ev.Seq != uint64(i) {
			t.Fatalf("event %d has seq %d: remote appends broke the offset space", i, ev.Seq)
		}
	}
	result := fetchResult(t, ts.URL, status.ID)
	if result.Best.Score <= 0 || result.DatasetCSV == "" {
		t.Fatalf("leased job's result malformed: %+v", result)
	}

	// The lease must be gone: nothing left to acquire, no leases held.
	if code, _ := acquireLease(t, ts.URL, "probe", 0); code != http.StatusNoContent {
		t.Fatalf("queue not drained after completion: HTTP %d", code)
	}
}

// TestWorkerShutdownRequeues: cancelling a worker's context mid-run
// interrupts the job resumable-style and hands it back to the queue —
// where a second worker picks it up and finishes the full budget.
func TestWorkerShutdownRequeues(t *testing.T) {
	_, ts := testCoordinator(t, storage.NewMem(), Config{})
	stop1 := startWorker(t, ts.URL, "w1", 5)

	spec := evoprot.JobSpec{
		Dataset:      "flare",
		Rows:         120,
		Generations:  600,
		Islands:      1,
		MigrateEvery: 10,
		Seed:         17,
	}
	status := postJob(t, ts.URL, spec)
	mid := waitFor(t, ts.URL, status.ID, 60*time.Second, func(s serve.JobStatus) bool {
		return s.Generation >= 40
	})
	if mid.State.Terminal() {
		t.Fatalf("job finished (%s) before the test could interrupt it; slow the spec down", mid.State)
	}
	stop1()

	requeued := waitFor(t, ts.URL, status.ID, 30*time.Second, func(s serve.JobStatus) bool {
		return s.State == serve.StateQueued
	})
	if requeued.Resumes != 1 {
		t.Fatalf("resumes = %d after worker shutdown, want 1", requeued.Resumes)
	}

	startWorker(t, ts.URL, "w2", 5)
	done := waitFor(t, ts.URL, status.ID, 120*time.Second, func(s serve.JobStatus) bool {
		return s.State.Terminal()
	})
	if done.State != serve.StateDone || done.Generation != 600 {
		t.Fatalf("handed-off job finished as %s at generation %d (error %q)", done.State, done.Generation, done.Error)
	}
}

// TestClientCancelReachesWorker: a DELETE on a job leased to a remote
// worker rides the renewal heartbeat to the worker, which cancels the
// run and finalizes the partial result — same contract as in-process.
func TestClientCancelReachesWorker(t *testing.T) {
	_, ts := testCoordinator(t, storage.NewMem(), Config{LeaseTTL: 300 * time.Millisecond})
	startWorker(t, ts.URL, "w1", 5)

	spec := evoprot.JobSpec{
		Dataset:      "flare",
		Rows:         120,
		Generations:  5000,
		Islands:      1,
		MigrateEvery: 10,
		Seed:         17,
	}
	status := postJob(t, ts.URL, spec)
	waitFor(t, ts.URL, status.ID, 60*time.Second, func(s serve.JobStatus) bool {
		return s.State == serve.StateRunning && s.Generation >= 10
	})

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+status.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE: HTTP %d", resp.StatusCode)
	}

	done := waitFor(t, ts.URL, status.ID, 60*time.Second, func(s serve.JobStatus) bool {
		return s.State.Terminal()
	})
	if done.State != serve.StateCancelled {
		t.Fatalf("cancelled leased job finished as %s", done.State)
	}
	if done.Generation >= 5000 {
		t.Fatal("cancel did not interrupt the run")
	}
	result := fetchResult(t, ts.URL, status.ID)
	if result.Best.Score <= 0 {
		t.Fatalf("cancelled job kept no partial result: %+v", result)
	}
}
