package serve

// The preemption determinism gate: a running low-priority job displaced
// by a high-priority submission — checkpointed, requeued, and resumed
// through the same crash-safe machinery restarts use — must finish with
// an event feed and a result bit-identical (modulo wall-clock times) to
// a run that was never preempted. Preemption moves work in time; these
// tests prove it moves nothing else. The cluster topology's half of the
// same gate lives in internal/cluster.

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"evoprot"
	"evoprot/internal/storage"
)

// longSpec is a fixed-seed single-island job slow enough to preempt
// mid-run — the same shape the restart and lease-expiry gates use, so a
// surviving feed can be compared event for event, sequence numbers
// included.
func longSpec() evoprot.JobSpec {
	return evoprot.JobSpec{
		Dataset:      "flare",
		Rows:         120,
		Generations:  400,
		Islands:      1,
		MigrateEvery: 10,
		Seed:         17,
	}
}

// runUninterrupted executes spec to completion on a fresh one-worker
// server and returns its feed and result — the reference a preempted
// run must reproduce exactly.
func runUninterrupted(t *testing.T, spec evoprot.JobSpec) ([]evoprot.Event, JobResult) {
	t.Helper()
	s, err := New(Config{Store: storage.NewMem(), Workers: 1, CheckpointEvery: 5, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() {
		stopCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Stop(stopCtx); err != nil {
			t.Error(err)
		}
	}()
	status := postJob(t, ts.URL, spec)
	done := waitFor(t, ts.URL, status.ID, 180*time.Second, func(st JobStatus) bool {
		return st.State.Terminal()
	})
	if done.State != StateDone {
		t.Fatalf("reference job finished as %s (error %q)", done.State, done.Error)
	}
	return fetchEvents(t, ts.URL, status.ID, 0), fetchResult(t, ts.URL, status.ID)
}

// stripTimes zeroes an event's wall-clock fields — the only part of a
// deterministic run that legitimately differs between executions.
func stripTimes(ev evoprot.Event) evoprot.Event {
	ev.Stats.EvalTime, ev.Stats.TotalTime = 0, 0
	return ev
}

// sameFeed fails unless the two feeds are identical event for event
// (times stripped), sequence numbers included — the single-island
// emission order is deterministic.
func sameFeed(t *testing.T, label string, a, b []evoprot.Event) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: feed lengths %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		x, y := stripTimes(a[i]), stripTimes(b[i])
		if x != y {
			t.Fatalf("%s: event %d diverged:\n%+v\n%+v", label, i, x, y)
		}
	}
}

// sameResult fails unless the two results agree on everything a client
// can see, the protected dataset byte for byte included.
func sameResult(t *testing.T, label string, a, b JobResult) {
	t.Helper()
	if a.Best.Score != b.Best.Score || a.Best.IL != b.Best.IL || a.Best.DR != b.Best.DR {
		t.Fatalf("%s: best diverged: %+v vs %+v", label, a.Best, b.Best)
	}
	if a.Generations != b.Generations || a.Islands != b.Islands || a.BestIsland != b.BestIsland {
		t.Fatalf("%s: shape diverged: gen %d/%d islands %d/%d best island %d/%d",
			label, a.Generations, b.Generations, a.Islands, b.Islands, a.BestIsland, b.BestIsland)
	}
	if a.DatasetCSV != b.DatasetCSV {
		t.Fatalf("%s: protected datasets differ", label)
	}
}

func TestPreemptionMatchesUninterrupted(t *testing.T) {
	spec := longSpec()
	refEvents, refResult := runUninterrupted(t, spec)

	for name, be := range testStores(t) {
		t.Run(name, func(t *testing.T) {
			_, ts := testServer(t, Config{Store: be, Workers: 1, CheckpointEvery: 5})

			low := postJob(t, ts.URL, spec)
			mid := waitFor(t, ts.URL, low.ID, 60*time.Second, func(st JobStatus) bool {
				return st.Generation >= 60
			})
			if mid.State.Terminal() {
				t.Fatalf("job finished (%s) before the test could preempt it; slow the spec down", mid.State)
			}

			// A priority-5 submission against the single busy worker: the
			// running priority-0 job is checkpointed and requeued behind it.
			urgent := smallSpec()
			urgent.Priority = 5
			urgentStatus := postJob(t, ts.URL, urgent)

			urgentDone := waitFor(t, ts.URL, urgentStatus.ID, 60*time.Second, func(st JobStatus) bool {
				return st.State.Terminal()
			})
			if urgentDone.State != StateDone {
				t.Fatalf("urgent job finished as %s (error %q)", urgentDone.State, urgentDone.Error)
			}
			// The worker is serialized: the urgent job finishing first proves
			// it jumped the displaced job in line.
			if got := getStatus(t, ts.URL, low.ID); got.State.Terminal() {
				t.Fatalf("displaced job already %s when the urgent job finished", got.State)
			}

			done := waitFor(t, ts.URL, low.ID, 180*time.Second, func(st JobStatus) bool {
				return st.State.Terminal()
			})
			if done.State != StateDone {
				t.Fatalf("preempted job finished as %s (error %q)", done.State, done.Error)
			}
			if done.Generation != spec.Generations {
				t.Fatalf("preempted job executed %d generations, want %d", done.Generation, spec.Generations)
			}
			if done.Preemptions != 1 || done.Resumes != 1 {
				t.Fatalf("preemptions = %d, resumes = %d, want 1 and 1", done.Preemptions, done.Resumes)
			}

			// The headline assertion: the preempted-then-resumed run's feed
			// and result are bit-identical to the uninterrupted reference —
			// no extra Done events, no reused or skipped offsets, the same
			// protected dataset.
			events := fetchEvents(t, ts.URL, low.ID, 0)
			sameFeed(t, name, refEvents, events)
			sameResult(t, name, refResult, fetchResult(t, ts.URL, low.ID))
		})
	}
}

// TestPreemptionSparesEqualPriority: preemption demands strictly higher
// priority — an equal-priority submission waits its turn instead of
// churning the running job through a checkpoint cycle.
func TestPreemptionSparesEqualPriority(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, CheckpointEvery: 5})

	low := postJob(t, ts.URL, longSpec())
	mid := waitFor(t, ts.URL, low.ID, 60*time.Second, func(st JobStatus) bool {
		return st.Generation >= 20
	})
	if mid.State.Terminal() {
		t.Fatalf("job finished (%s) too fast", mid.State)
	}

	peer := smallSpec()
	peer.Priority = 0
	peerStatus := postJob(t, ts.URL, peer)

	// The running job keeps its worker: it finishes first, unpreempted.
	done := waitFor(t, ts.URL, low.ID, 180*time.Second, func(st JobStatus) bool {
		return st.State.Terminal()
	})
	if done.State != StateDone || done.Preemptions != 0 || done.Resumes != 0 {
		t.Fatalf("equal-priority submission disturbed the running job: %s, preemptions %d, resumes %d",
			done.State, done.Preemptions, done.Resumes)
	}
	peerDone := waitFor(t, ts.URL, peerStatus.ID, 60*time.Second, func(st JobStatus) bool {
		return st.State.Terminal()
	})
	if peerDone.State != StateDone {
		t.Fatalf("queued peer finished as %s", peerDone.State)
	}
}
