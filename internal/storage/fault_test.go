package storage_test

// Fault-injection tests: the storagetest injectors themselves, and the
// remote store under the network faults FlakyTransport injects. They
// live in the external test package because storagetest imports storage.

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"evoprot/internal/storage"
	"evoprot/internal/storage/storagetest"
)

// TestFlaky: the Store fault injector fails matching writes past its
// threshold and tears matching reads, and leaves every other key alone.
func TestFlaky(t *testing.T) {
	fl := &storagetest.Flaky{Store: storage.NewMem(), Key: "ckpt", FailWritesAfter: 2, TornReads: true}

	// Non-matching keys never fault.
	for i := 0; i < 5; i++ {
		if err := fl.Append("j", "events", []byte("e\n")); err != nil {
			t.Fatal(err)
		}
	}

	// The first matching write succeeds, the second and later fail.
	if err := fl.Put("j", "job.ckpt", []byte("snap1")); err != nil {
		t.Fatalf("write 1: %v", err)
	}
	if err := fl.Put("j", "job.ckpt", []byte("snap2")); !errors.Is(err, storagetest.ErrInjected) {
		t.Fatalf("write 2: %v, want ErrInjected", err)
	}
	if err := fl.Append("j", "job.ckpt", []byte("x")); !errors.Is(err, storagetest.ErrInjected) {
		t.Fatalf("write 3: %v, want ErrInjected", err)
	}

	// Matching reads come back torn; others are whole.
	torn, err := fl.Get("j", "job.ckpt")
	if err != nil || !bytes.Equal(torn, []byte("sn")) {
		t.Fatalf("torn read = %q, %v", torn, err)
	}
	whole, err := fl.Get("j", "events")
	if err != nil || string(whole) != "e\ne\ne\ne\ne\n" {
		t.Fatalf("whole read = %q, %v", whole, err)
	}
	// Missing keys still answer ErrNotExist, not a torn nil.
	if _, err := fl.Get("j", "missing.ckpt"); !errors.Is(err, storage.ErrNotExist) {
		t.Fatalf("missing key: %v", err)
	}
}

// TestRemoteDuplicateDelivery: a replayed append (same write id twice on
// the wire) lands in the feed once.
func TestRemoteDuplicateDelivery(t *testing.T) {
	be := storage.NewMem()
	srv := httptest.NewServer(storage.NewRemoteHandler(be, storage.RemoteHooks{}))
	defer srv.Close()
	rt := storage.NewRemote(srv.URL, storage.RemoteWithClient(&http.Client{
		Transport: &storagetest.FlakyTransport{Key: "events.ndjson"},
	}))
	// Sanity first: without Duplicate the transport is a pass-through.
	if err := rt.Append("j", "events.ndjson", []byte("a\n")); err != nil {
		t.Fatal(err)
	}
	rt = storage.NewRemote(srv.URL, storage.RemoteWithClient(&http.Client{
		Transport: &storagetest.FlakyTransport{Key: "events.ndjson", Duplicate: true},
	}))
	for _, line := range []string{"b\n", "c\n"} {
		if err := rt.Append("j", "events.ndjson", []byte(line)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := be.Get("j", "events.ndjson")
	if err != nil || string(got) != "a\nb\nc\n" {
		t.Fatalf("feed after duplicated deliveries: %q, %v", got, err)
	}
}

// TestRemoteDroppedResponses: after the threshold, matching writes are
// applied server-side but the caller sees ErrInjected — the lost-answer
// fault the service must treat as a failed write.
func TestRemoteDroppedResponses(t *testing.T) {
	be := storage.NewMem()
	srv := httptest.NewServer(storage.NewRemoteHandler(be, storage.RemoteHooks{}))
	defer srv.Close()
	rt := storage.NewRemote(srv.URL, storage.RemoteWithClient(&http.Client{
		Transport: &storagetest.FlakyTransport{Key: "job.ckpt", DropResponsesAfter: 2},
	}))
	if err := rt.Put("j", "job.ckpt", []byte("snap1")); err != nil {
		t.Fatalf("write 1: %v", err)
	}
	if err := rt.Put("j", "job.ckpt", []byte("snap2")); !errors.Is(err, storagetest.ErrInjected) {
		t.Fatalf("write 2: %v, want ErrInjected", err)
	}
	// Non-matching keys never fault.
	if err := rt.Put("j", "status.json", []byte("s")); err != nil {
		t.Fatalf("non-matching write: %v", err)
	}
	// The dropped write was applied before its answer vanished.
	if got, _ := be.Get("j", "job.ckpt"); string(got) != "snap2" {
		t.Fatalf("backend after dropped response: %q", got)
	}
}

// TestRemoteDelayedWrites: latency alone changes nothing but timing.
func TestRemoteDelayedWrites(t *testing.T) {
	be := storage.NewMem()
	srv := httptest.NewServer(storage.NewRemoteHandler(be, storage.RemoteHooks{}))
	defer srv.Close()
	rt := storage.NewRemote(srv.URL, storage.RemoteWithClient(&http.Client{
		Transport: &storagetest.FlakyTransport{Delay: 5 * time.Millisecond},
	}))
	start := time.Now()
	if err := rt.Put("j", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 5*time.Millisecond {
		t.Fatal("delay not applied")
	}
	if got, _ := be.Get("j", "k"); string(got) != "v" {
		t.Fatalf("delayed write lost: %q", got)
	}
}
