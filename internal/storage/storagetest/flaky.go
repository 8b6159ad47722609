// Package storagetest holds fault injectors for tests of code built on
// storage.Store and storage.Remote: a Store wrapper whose writes fail and
// reads tear on demand, and an http.RoundTripper that drops, duplicates
// and delays a Remote client's exchanges.
package storagetest

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"evoprot/internal/storage"
)

// Flaky wraps a Store with deterministic fault injection: writes to
// matching keys start failing after a configured count, and reads of
// matching keys can come back torn (truncated mid-value). It exists for
// tests proving the service degrades the way its contract promises —
// checkpoint write failures surface as ErrCheckpoint, corrupt documents
// are skipped during recovery without taking down neighboring jobs.
type Flaky struct {
	// Store is the wrapped real store.
	storage.Store
	// Key restricts the injected faults to keys containing this
	// substring; empty matches every key.
	Key string
	// FailWritesAfter makes the Nth and every later matching Put or
	// Append fail (1 fails them all); 0 disables write faults.
	FailWritesAfter int
	// TornReads makes Get of matching keys return only the first half of
	// the value — a torn read — with a nil error.
	TornReads bool

	mu     sync.Mutex
	writes int
}

// ErrInjected is the failure injected writes return, wrapped with the
// job and key.
var ErrInjected = fmt.Errorf("storagetest: injected write failure")

func (f *Flaky) match(key string) bool {
	return f.Key == "" || strings.Contains(key, f.Key)
}

// failWrite counts a matching write attempt and reports whether it must
// fail.
func (f *Flaky) failWrite(key string) bool {
	if f.FailWritesAfter <= 0 || !f.match(key) {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writes++
	return f.writes >= f.FailWritesAfter
}

// Put fails matching writes past the threshold, else delegates.
func (f *Flaky) Put(job, key string, data []byte) error {
	if f.failWrite(key) {
		return fmt.Errorf("%w: put %s/%s", ErrInjected, job, key)
	}
	return f.Store.Put(job, key, data)
}

// Append fails matching writes past the threshold, else delegates.
func (f *Flaky) Append(job, key string, data []byte) error {
	if f.failWrite(key) {
		return fmt.Errorf("%w: append %s/%s", ErrInjected, job, key)
	}
	return f.Store.Append(job, key, data)
}

// Get returns a torn (half-length) value for matching keys when
// TornReads is set, else delegates.
func (f *Flaky) Get(job, key string) ([]byte, error) {
	data, err := f.Store.Get(job, key)
	if err == nil && f.TornReads && f.match(key) {
		return data[:len(data)/2], nil
	}
	return data, err
}

// FlakyTransport is Flaky's network-path sibling: an http.RoundTripper
// that injects the faults a Remote client actually meets on a wire —
// responses that never arrive (the request may or may not have been
// applied), deliveries duplicated by a retrying middlebox, and added
// latency. Wrap a Remote's client Transport with it (through
// storage.RemoteWithClient) in tests proving the remote store maps network
// failure onto the same service guarantees the local fault suite pins
// down.
type FlakyTransport struct {
	// Base performs the real exchanges; nil means
	// http.DefaultTransport.
	Base http.RoundTripper
	// Key restricts the injected faults to requests whose URL path
	// contains this substring; empty matches every request.
	Key string
	// DropResponsesAfter makes the Nth and every later matching exchange
	// lose its response: the request is delivered and applied, but the
	// caller gets ErrInjected instead of an answer — the
	// write-landed-but-looks-failed case. 0 disables.
	DropResponsesAfter int
	// Duplicate delivers every matching request twice (same body, same
	// headers — a replay, not a retry) and returns the second response.
	Duplicate bool
	// Delay sleeps before each matching exchange.
	Delay time.Duration

	mu    sync.Mutex
	calls int
}

// dropResponse counts a matching exchange and reports whether its
// response must be lost.
func (t *FlakyTransport) dropResponse() bool {
	if t.DropResponsesAfter <= 0 {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.calls++
	return t.calls >= t.DropResponsesAfter
}

// RoundTrip applies the configured faults to matching requests.
func (t *FlakyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	base := t.Base
	if base == nil {
		base = http.DefaultTransport
	}
	if t.Key != "" && !strings.Contains(req.URL.Path, t.Key) {
		return base.RoundTrip(req)
	}
	if t.Delay > 0 {
		time.Sleep(t.Delay)
	}
	if t.Duplicate && req.GetBody != nil {
		first, err := base.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		_, _ = io.Copy(io.Discard, first.Body)
		first.Body.Close()
		replay := req.Clone(req.Context())
		if replay.Body, err = req.GetBody(); err != nil {
			return nil, err
		}
		req = replay
	}
	resp, err := base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if t.dropResponse() {
		// The server handled the request; only the answer is lost.
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, fmt.Errorf("%w: response dropped for %s %s", ErrInjected, req.Method, req.URL.Path)
	}
	return resp, nil
}
