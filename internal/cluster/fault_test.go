package cluster

// Network-fault injection over the cluster path: a worker whose HTTP
// client loses responses, sees duplicated deliveries or added latency
// must map those faults onto the very service guarantees the local
// fault suite (internal/serve/fault_test.go) pins down — a failed
// checkpoint write fails the job with its cause, a failed event append
// is recorded but not fatal, and duplicates or delays change nothing.

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"evoprot"
	"evoprot/internal/serve"
	"evoprot/internal/storage"
	"evoprot/internal/storage/storagetest"
)

// TestRemoteCheckpointWriteFailureFailsJob: the worker's checkpoint
// Put is applied by the coordinator but its response is lost — from
// the engine's view the durability contract broke, so the job must
// fail with the checkpoint as cause, exactly as with a failing local
// store.
func TestRemoteCheckpointWriteFailureFailsJob(t *testing.T) {
	_, ts := testCoordinator(t, storage.NewMem(), Config{})
	startWorkerClient(t, ts.URL, "w1", 5, &http.Client{
		Transport: &storagetest.FlakyTransport{
			Key: "job.ckpt",
			// Exchange 1 is the claim-time checkpoint probe (a read);
			// every checkpoint write after it loses its response.
			DropResponsesAfter: 2,
		},
	})

	status := postJob(t, ts.URL, smallSpec())
	done := waitFor(t, ts.URL, status.ID, 60*time.Second, func(s serve.JobStatus) bool {
		return s.State.Terminal()
	})
	if done.State != serve.StateFailed {
		t.Fatalf("job with lost checkpoint responses finished as %s, want %s", done.State, serve.StateFailed)
	}
	if !strings.Contains(done.Error, "checkpoint") {
		t.Fatalf("failure cause %q does not name the checkpoint write", done.Error)
	}
}

// TestRemoteEventWriteFailureRecordedNotFatal: lost responses on event
// appends latch the worker's log and record the error, but the
// optimization still completes — the feed is observability, not the
// result. Same contract as the local torn-store test, across the wire.
func TestRemoteEventWriteFailureRecordedNotFatal(t *testing.T) {
	_, ts := testCoordinator(t, storage.NewMem(), Config{})
	startWorkerClient(t, ts.URL, "w1", 5, &http.Client{
		Transport: &storagetest.FlakyTransport{
			Key: "events.ndjson",
			// Exchange 1 is the worker opening the feed (a read); every
			// append after it loses its response.
			DropResponsesAfter: 2,
		},
	})

	status := postJob(t, ts.URL, smallSpec())
	done := waitFor(t, ts.URL, status.ID, 60*time.Second, func(s serve.JobStatus) bool {
		return s.State.Terminal()
	})
	if done.State != serve.StateDone {
		t.Fatalf("job with lost event-append responses finished as %s, want %s", done.State, serve.StateDone)
	}
	if !strings.Contains(done.Error, "event log") {
		t.Fatalf("status error %q does not record the event log failure", done.Error)
	}
}

// TestRemoteDuplicateAndDelayedDelivery: every event append is
// delivered twice (a middlebox replay) with added latency, yet the
// per-append write id keeps the feed exactly-once and the job lands on
// the same result an unmolested run produces.
func TestRemoteDuplicateAndDelayedDelivery(t *testing.T) {
	spec := evoprot.JobSpec{
		Dataset:      "flare",
		Rows:         80,
		Generations:  30,
		Islands:      1,
		MigrateEvery: 5,
		Seed:         7,
	}
	refEvents, refResult := runTopology(t, "standalone", storage.NewMem(), spec)

	_, ts := testCoordinator(t, storage.NewMem(), Config{})
	startWorkerClient(t, ts.URL, "w1", 5, &http.Client{
		Transport: &storagetest.FlakyTransport{
			Key:       "events.ndjson",
			Duplicate: true,
			Delay:     time.Millisecond,
		},
	})

	status := postJob(t, ts.URL, spec)
	done := waitFor(t, ts.URL, status.ID, 120*time.Second, func(s serve.JobStatus) bool {
		return s.State.Terminal()
	})
	if done.State != serve.StateDone {
		t.Fatalf("job under duplicated delivery finished as %s (error %q)", done.State, done.Error)
	}

	events := fetchEvents(t, ts.URL, status.ID)
	for i, ev := range events {
		if ev.Seq != uint64(i) {
			t.Fatalf("event %d has seq %d: a duplicated append reached the feed", i, ev.Seq)
		}
	}
	sameFeed(t, "duplicate-delivery", refEvents, events)
	sameResult(t, "duplicate-delivery", refResult, fetchResult(t, ts.URL, status.ID))
}
