package cluster

// The determinism gates: the same fixed-seed spec, executed standalone
// (in-process pool) and executed through worker leases — including one
// whose lease is force-expired mid-run and re-leased to a second
// worker — must land on bit-identical results and event feeds, on both
// storage backends. The cluster subsystem moves execution across a
// network seam; these tests prove it moves nothing else.

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"evoprot"
	"evoprot/internal/serve"
	"evoprot/internal/storage"
)

// topologies names the two execution shapes every gate runs under.
var topologies = []string{"standalone", "cluster"}

// runTopology executes spec to completion under the named topology over
// be and returns the finished job's feed and result as served by the
// public API. Standalone is a serve.Server with its in-process pool;
// cluster is a coordinator with one attached worker.
func runTopology(t *testing.T, topology string, be storage.Store, spec evoprot.JobSpec) ([]evoprot.Event, serve.JobResult) {
	t.Helper()
	var base string
	switch topology {
	case "standalone":
		s, err := serve.New(serve.Config{
			Store:           be,
			Workers:         1,
			CheckpointEvery: 5,
			Logf:            t.Logf,
		})
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
		base = ts.URL
		return finishJob(t, base, spec)
	case "cluster":
		_, ts := testCoordinator(t, be, Config{Serve: serve.Config{CheckpointEvery: 5}})
		startWorker(t, ts.URL, "w1", 5)
		return finishJob(t, ts.URL, spec)
	default:
		t.Fatalf("unknown topology %q", topology)
		return nil, serve.JobResult{}
	}
}

// finishJob submits spec at base, waits for completion, and returns the
// feed and result.
func finishJob(t *testing.T, base string, spec evoprot.JobSpec) ([]evoprot.Event, serve.JobResult) {
	t.Helper()
	status := postJob(t, base, spec)
	done := waitFor(t, base, status.ID, 180*time.Second, func(s serve.JobStatus) bool {
		return s.State.Terminal()
	})
	if done.State != serve.StateDone {
		t.Fatalf("job finished as %s (error %q)", done.State, done.Error)
	}
	return fetchEvents(t, base, status.ID), fetchResult(t, base, status.ID)
}

// sameFeed fails unless the two feeds are identical event for event —
// sequence numbers included, so it is only for single-island runs, whose
// global emission order is deterministic.
func sameFeed(t *testing.T, label string, a, b []evoprot.Event) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: feed lengths %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if x, y := a[i], b[i]; x != y {
			t.Fatalf("%s: event %d diverged:\n%+v\n%+v", label, i, x, y)
		}
	}
}

// sameFeedPerIsland compares feeds as per-island subsequences with
// sequence numbers zeroed: cross-island interleaving is scheduling
// noise on multi-island runs, per-island order is the deterministic
// contract.
func sameFeedPerIsland(t *testing.T, label string, a, b []evoprot.Event) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: feed lengths %d vs %d", label, len(a), len(b))
	}
	group := func(events []evoprot.Event) map[int][]evoprot.Event {
		out := map[int][]evoprot.Event{}
		for _, ev := range events {
			ev.Seq = 0
			out[ev.Island] = append(out[ev.Island], ev)
		}
		return out
	}
	ga, gb := group(a), group(b)
	if len(ga) != len(gb) {
		t.Fatalf("%s: island sets %d vs %d", label, len(ga), len(gb))
	}
	for island, xs := range ga {
		ys := gb[island]
		if len(xs) != len(ys) {
			t.Fatalf("%s: island %d streamed %d vs %d events", label, island, len(xs), len(ys))
		}
		for i := range xs {
			x, y := xs[i], ys[i]
			if x != y {
				t.Fatalf("%s: island %d event %d diverged:\n%+v\n%+v", label, island, i, x, y)
			}
		}
	}
}

// sameResult fails unless the two results agree on everything a client
// can see, the protected dataset byte for byte included.
func sameResult(t *testing.T, label string, a, b serve.JobResult) {
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

// TestClusterMatchesStandalone: the heterogeneous determinism gate
// parameterized over topology and store — a niched
// multi-island job produces the same per-island feeds and the same
// result whether it runs in-process or through a worker lease, over
// either backend.
func TestClusterMatchesStandalone(t *testing.T) {
	spec := evoprot.JobSpec{
		Dataset:      "flare",
		Rows:         100,
		Generations:  200,
		Islands:      3,
		MigrateEvery: 10,
		PerIsland: []evoprot.IslandConfig{
			{},
			{MutationRate: 0.5, LeaderFraction: 0.15},
			{MutationRate: 0.75, LeaderFraction: 0.25, Selection: "uniform"},
		},
		Seed: 23,
	}
	refEvents, refResult := runTopology(t, "standalone", storage.NewMem(), spec)

	for _, topology := range topologies {
		for name, be := range testStores(t) {
			t.Run(topology+"/"+name, func(t *testing.T) {
				events, result := runTopology(t, topology, be, spec)
				sameFeedPerIsland(t, topology+"/"+name, refEvents, events)
				sameResult(t, topology+"/"+name, refResult, result)
			})
		}
	}
}

// TestClusterLeaseExpiryMatchesStandalone is the headline gate: a
// fixed-seed job whose lease is force-expired mid-run — its first
// worker fenced out with uncheckpointed progress in the feed — and
// re-leased to a second worker finishes with a result AND an event
// feed bit-identical (modulo wall-clock times) to an uninterrupted
// standalone run. Checkpoint resume replays the exact stochastic
// trajectory; the generation-tagged feed marker heals the first
// worker's over-hang exactly-once; fencing keeps its death throes out
// of the store.
func TestClusterLeaseExpiryMatchesStandalone(t *testing.T) {
	spec := evoprot.JobSpec{
		Dataset:      "flare",
		Rows:         120,
		Generations:  400,
		Islands:      1,
		MigrateEvery: 10,
		Seed:         17,
	}
	refEvents, refResult := runTopology(t, "standalone", storage.NewMem(), spec)

	for name, be := range testStores(t) {
		t.Run(name, func(t *testing.T) {
			c, ts := testCoordinator(t, be, Config{
				Serve:    serve.Config{CheckpointEvery: 5},
				LeaseTTL: 500 * time.Millisecond,
			})
			stop1 := startWorker(t, ts.URL, "w1", 5)

			status := postJob(t, ts.URL, spec)
			mid := waitFor(t, ts.URL, status.ID, 60*time.Second, func(s serve.JobStatus) bool {
				return s.Generation >= 60
			})
			if mid.State.Terminal() {
				t.Fatalf("job finished (%s) before the test could expire its lease; slow the spec down", mid.State)
			}

			// Force the expiry the janitor would apply to a dead worker, then
			// take worker 1 down so the re-leased job can only go elsewhere.
			// Worker 1 is a zombie from this instant: whatever it still
			// writes must bounce off the fence.
			if !c.expire(status.ID) {
				t.Fatal("no active lease to expire")
			}
			stop1()
			startWorker(t, ts.URL, "w2", 5)

			done := waitFor(t, ts.URL, status.ID, 180*time.Second, func(s serve.JobStatus) bool {
				return s.State.Terminal()
			})
			if done.State != serve.StateDone {
				t.Fatalf("re-leased job finished as %s (error %q)", done.State, done.Error)
			}
			if done.Generation != 400 {
				t.Fatalf("re-leased job executed %d generations, want 400", done.Generation)
			}
			if done.Resumes != 1 {
				t.Fatalf("resumes = %d, want 1", done.Resumes)
			}

			events := fetchEvents(t, ts.URL, status.ID)
			sameFeed(t, name, refEvents, events)
			sameResult(t, name, refResult, fetchResult(t, ts.URL, status.ID))
		})
	}
}

// TestClusterPreemptionMatchesStandalone: the priority-preemption half
// of the determinism gate, through the lease protocol. A high-priority
// submission against a saturated one-worker cluster rides the next
// heartbeat: the coordinator's renew reply tells the worker to preempt,
// the worker checkpoints and hands the job back requeued, runs the
// urgent job first, then resumes the displaced one — and the displaced
// job's feed and result must still be bit-identical to an uninterrupted
// standalone run.
func TestClusterPreemptionMatchesStandalone(t *testing.T) {
	spec := evoprot.JobSpec{
		Dataset:      "flare",
		Rows:         120,
		Generations:  400,
		Islands:      1,
		MigrateEvery: 10,
		Seed:         17,
	}
	refEvents, refResult := runTopology(t, "standalone", storage.NewMem(), spec)

	for name, be := range testStores(t) {
		t.Run(name, func(t *testing.T) {
			// A short lease TTL keeps heartbeats (TTL/3) frequent, so the
			// preempt signal reaches the worker within a few hundred ms.
			_, ts := testCoordinator(t, be, Config{
				Serve:    serve.Config{CheckpointEvery: 5},
				LeaseTTL: 500 * time.Millisecond,
			})
			startWorker(t, ts.URL, "w1", 5)

			low := postJob(t, ts.URL, spec)
			mid := waitFor(t, ts.URL, low.ID, 60*time.Second, func(s serve.JobStatus) bool {
				return s.Generation >= 60
			})
			if mid.State.Terminal() {
				t.Fatalf("job finished (%s) before the test could preempt it; slow the spec down", mid.State)
			}

			urgent := smallSpec()
			urgent.Priority = 9
			urgentStatus := postJob(t, ts.URL, urgent)

			urgentDone := waitFor(t, ts.URL, urgentStatus.ID, 60*time.Second, func(s serve.JobStatus) bool {
				return s.State.Terminal()
			})
			if urgentDone.State != serve.StateDone {
				t.Fatalf("urgent job finished as %s (error %q)", urgentDone.State, urgentDone.Error)
			}
			// One worker, serialized: the urgent job finishing first proves
			// the preemption actually moved it ahead of the running job.
			if got := getStatus(t, ts.URL, low.ID); got.State.Terminal() {
				t.Fatalf("displaced job already %s when the urgent job finished", got.State)
			}

			done := waitFor(t, ts.URL, low.ID, 180*time.Second, func(s serve.JobStatus) bool {
				return s.State.Terminal()
			})
			if done.State != serve.StateDone {
				t.Fatalf("preempted job finished as %s (error %q)", done.State, done.Error)
			}
			if done.Generation != 400 {
				t.Fatalf("preempted job executed %d generations, want 400", done.Generation)
			}
			if done.Preemptions != 1 || done.Resumes != 1 {
				t.Fatalf("preemptions = %d, resumes = %d, want 1 and 1", done.Preemptions, done.Resumes)
			}

			events := fetchEvents(t, ts.URL, low.ID)
			sameFeed(t, name, refEvents, events)
			sameResult(t, name, refResult, fetchResult(t, ts.URL, low.ID))
		})
	}
}
