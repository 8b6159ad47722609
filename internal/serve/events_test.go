package serve

// Unit tests for the durable event log: crash-torn tails and the
// stream/append/finish protocol.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"evoprot"
	"evoprot/internal/storage"
)

// testStores builds one of each storage backend for a parameterized
// test: the filesystem store over a temp dir and the in-memory store.
func testStores(t *testing.T) map[string]storage.Store {
	t.Helper()
	return map[string]storage.Store{"fs": fsStore(t, t.TempDir()), "mem": storage.NewMem()}
}

// TestTornTailTruncated: a crash mid-append leaves a partial trailing
// line; reopening the log must drop it so the feed stays valid NDJSON
// and new events start on a fresh line. The healing is a Store.Truncate
// over the seam, so it must hold on every backend.
func TestTornTailTruncated(t *testing.T) {
	for name, be := range testStores(t) {
		t.Run(name, func(t *testing.T) {
			st := &store{be: be}
			whole := `{"Seq":0,"Island":0}` + "\n" + `{"Seq":1,"Island":0}` + "\n"
			if err := be.Append("job1", eventsKey, []byte(whole+`{"Seq":2,"Isl`)); err != nil {
				t.Fatal(err)
			}
			l, err := openEventLog(st, "job1")
			if err != nil {
				t.Fatal(err)
			}
			if count, _, _ := l.state(); count != 2 {
				t.Fatalf("count after torn tail = %d, want 2", count)
			}
			if err := l.append(evoprot.Event{Seq: 2, Island: 1}); err != nil {
				t.Fatal(err)
			}
			l.finish()
			var lines [][]byte
			done := make(chan struct{})
			close(done)
			if err := l.stream(done, 0, func(line []byte) error {
				lines = append(lines, append([]byte(nil), line...))
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(lines) != 3 {
				t.Fatalf("replayed %d lines, want 3", len(lines))
			}
			for i, line := range lines {
				var ev evoprot.Event
				if err := json.Unmarshal(line, &ev); err != nil {
					t.Fatalf("line %d is not valid JSON after crash recovery: %q", i, line)
				}
				if ev.Seq != uint64(i) {
					t.Fatalf("line %d has Seq %d", i, ev.Seq)
				}
			}

			// An all-torn feed (single partial line) truncates to empty.
			if err := be.Append("job2", eventsKey, []byte(`{"Seq":0`)); err != nil {
				t.Fatal(err)
			}
			l2, err := openEventLog(st, "job2")
			if err != nil {
				t.Fatal(err)
			}
			if count, _, _ := l2.state(); count != 0 {
				t.Fatalf("count after fully-torn feed = %d, want 0", count)
			}
			l2.finish()
		})
	}
}

// TestStopUnblocksEventStreamers: a live event stream attached to an
// in-flight job must end promptly when the server begins stopping —
// interrupted jobs never finish their feeds, and a blocked streamer
// would otherwise stall graceful shutdown.
func TestStopUnblocksEventStreamers(t *testing.T) {
	s, err := New(Config{Store: fsStore(t, t.TempDir()), Workers: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := smallSpec()
	spec.Generations = 50000
	status := postJob(t, ts.URL, spec)
	waitFor(t, ts.URL, status.ID, 60*time.Second, func(js JobStatus) bool {
		return js.State == StateRunning && js.Generation >= 2
	})

	streamDone := make(chan error, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + status.ID + "/events?offset=0")
		if err != nil {
			streamDone <- err
			return
		}
		defer resp.Body.Close()
		buf := make([]byte, 4096)
		for {
			if _, err := resp.Body.Read(buf); err != nil {
				streamDone <- nil // the stream ended; that is the success
				return
			}
		}
	}()
	time.Sleep(50 * time.Millisecond) // let the streamer attach and catch up

	stopCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	if err := s.Stop(stopCtx); err != nil {
		t.Fatalf("Stop blocked by an attached streamer: %v", err)
	}
	select {
	case err := <-streamDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("event stream still open after Stop")
	}
	t.Logf("stop with attached streamer took %v", time.Since(start))
}
