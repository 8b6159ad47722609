package serve

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"evoprot"
	"evoprot/internal/storage"
)

// TestSameSpecWritesIdenticalBytes runs one fixed-seed spec on two fresh
// servers and compares what each persisted byte for byte, with nothing
// zeroed: the checkpoint, the event feed and the result (whose job id is
// random per server, so only the id is swapped). Wall-clock generation
// timings stay in memory, so nothing a run writes depends on the clock.
func TestSameSpecWritesIdenticalBytes(t *testing.T) {
	spec := evoprot.JobSpec{Dataset: "flare", Rows: 100, Generations: 60, Islands: 1, Seed: 23}
	run := func() (id string, files map[string][]byte) {
		be := storage.NewMem()
		s, err := New(Config{Store: be, Workers: 1, CheckpointEvery: 5, Logf: t.Logf})
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
			t.Fatalf("job finished as %s (error %q)", done.State, done.Error)
		}
		files = map[string][]byte{}
		for _, key := range []string{checkpointKey, eventsKey, resultKey} {
			data, err := be.Get(status.ID, key)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			files[key] = data
		}
		return status.ID, files
	}
	idA, a := run()
	idB, b := run()
	b[resultKey] = bytes.ReplaceAll(b[resultKey], []byte(idB), []byte(idA))
	for key, data := range a {
		if !bytes.Equal(data, b[key]) {
			t.Errorf("%s differs between two runs of one spec (%d vs %d bytes)", key, len(data), len(b[key]))
		}
	}
}
