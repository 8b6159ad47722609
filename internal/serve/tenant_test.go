package serve

// Multi-tenant admission tests: keyring parsing, the token-bucket
// limiter, API-key auth over real HTTP, tenant isolation, rate/quota
// 429s with Retry-After hints, TTL garbage collection, and the bounded
// event-stream buffer dropping stalled subscribers. The standing
// contract tested throughout: a server without a Keyring behaves
// exactly as it always has, and one tenant's breaches never touch
// another tenant's service.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"evoprot"
)

func TestParseKeyring(t *testing.T) {
	k, err := ParseKeyring(strings.NewReader(`
# ops tenants
key-a1 alpha
key-a2	alpha

key-b beta
`))
	if err != nil {
		t.Fatal(err)
	}
	if k.Len() != 3 {
		t.Fatalf("parsed %d keys, want 3", k.Len())
	}
	for key, want := range map[string]string{"key-a1": "alpha", "key-a2": "alpha", "key-b": "beta"} {
		if got, ok := k.Resolve(key); !ok || got != want {
			t.Fatalf("Resolve(%q) = %q, %v; want %q", key, got, ok, want)
		}
	}
	if _, ok := k.Resolve("key-unknown"); ok {
		t.Fatal("unknown key resolved")
	}

	bad := map[string]string{
		"key naming two tenants": "k1 alpha\nk1 beta\n",
		"malformed line":         "k1 alpha extra\n",
		"no grants at all":       "# just comments\n",
	}
	for what, text := range bad {
		if _, err := ParseKeyring(strings.NewReader(text)); err == nil {
			t.Errorf("%s accepted", what)
		}
	}
}

func TestLoadKeyringMissingFile(t *testing.T) {
	if _, err := LoadKeyring("/nonexistent/keys.txt"); err == nil {
		t.Fatal("missing auth file accepted")
	}
}

func TestTenantLimiter(t *testing.T) {
	l := newTenantLimiter(1, 2) // 1 token/s, burst 2
	now := time.Unix(1000, 0)
	l.now = func() time.Time { return now }

	for i := 0; i < 2; i++ {
		if ok, _ := l.allow("alpha"); !ok {
			t.Fatalf("burst submission %d refused", i)
		}
	}
	ok, retry := l.allow("alpha")
	if ok {
		t.Fatal("empty bucket granted")
	}
	if retry <= 0 || retry > time.Second {
		t.Fatalf("retry hint %v, want (0, 1s]", retry)
	}
	// Another tenant's bucket is untouched by alpha's breach.
	if ok, _ := l.allow("beta"); !ok {
		t.Fatal("beta refused while alpha breached")
	}
	// One second later a token has accrued.
	now = now.Add(time.Second)
	if ok, _ := l.allow("alpha"); !ok {
		t.Fatal("refill did not grant")
	}

	// A zero rate disables limiting entirely.
	open := newTenantLimiter(0, 0)
	for i := 0; i < 100; i++ {
		if ok, _ := open.allow("anyone"); !ok {
			t.Fatal("disabled limiter refused")
		}
	}
}

// authPost submits spec with an API key and returns the response.
func authPost(t *testing.T, base, key string, spec evoprot.JobSpec) *http.Response {
	t.Helper()
	body, _ := json.Marshal(spec)
	req, err := http.NewRequest("POST", base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// authGet issues a GET with an API key.
func authGet(t *testing.T, url, key string) *http.Response {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func testKeyring(t *testing.T) *Keyring {
	t.Helper()
	k, err := ParseKeyring(strings.NewReader("key-alpha alpha\nkey-beta beta\n"))
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestAuthRequired(t *testing.T) {
	_, ts := testServer(t, Config{Keyring: testKeyring(t)})

	// No key and a bad key both bounce with 401 + a challenge.
	for _, key := range []string{"", "key-wrong"} {
		resp := authPost(t, ts.URL, key, smallSpec())
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("key %q: HTTP %d, want 401", key, resp.StatusCode)
		}
		if resp.Header.Get("WWW-Authenticate") == "" {
			t.Fatalf("key %q: 401 without a WWW-Authenticate challenge", key)
		}
	}

	// /healthz stays open for load balancers.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz behind auth: HTTP %d", resp.StatusCode)
	}

	// X-API-Key works; so does Authorization: Bearer.
	resp = authPost(t, ts.URL, "key-alpha", smallSpec())
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("X-API-Key submit: HTTP %d", resp.StatusCode)
	}
	var status JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if status.Tenant != "alpha" {
		t.Fatalf("job tenant %q, want alpha", status.Tenant)
	}

	req, err := http.NewRequest("GET", ts.URL+"/v1/jobs/"+status.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer key-alpha")
	bresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	bresp.Body.Close()
	if bresp.StatusCode != http.StatusOK {
		t.Fatalf("Bearer status: HTTP %d", bresp.StatusCode)
	}
}

func TestTenantIsolation(t *testing.T) {
	_, ts := testServer(t, Config{Keyring: testKeyring(t)})

	resp := authPost(t, ts.URL, "key-alpha", smallSpec())
	var status JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Every per-job route answers a foreign tenant exactly like an
	// unknown id — 404, leaking nothing.
	for _, path := range []string{"", "/events", "/result"} {
		r := authGet(t, ts.URL+"/v1/jobs/"+status.ID+path, "key-beta")
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Fatalf("foreign GET %s: HTTP %d, want 404", path, r.StatusCode)
		}
	}
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+status.ID, nil)
	req.Header.Set("X-API-Key", "key-beta")
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNotFound {
		t.Fatalf("foreign DELETE: HTTP %d, want 404", dresp.StatusCode)
	}

	// Listings are scoped to the caller.
	var list struct{ Jobs []JobStatus }
	r := authGet(t, ts.URL+"/v1/jobs", "key-beta")
	if err := json.NewDecoder(r.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if len(list.Jobs) != 0 {
		t.Fatalf("beta sees %d of alpha's jobs", len(list.Jobs))
	}
	r = authGet(t, ts.URL+"/v1/jobs", "key-alpha")
	if err := json.NewDecoder(r.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if len(list.Jobs) != 1 || list.Jobs[0].ID != status.ID {
		t.Fatalf("alpha's listing: %+v", list.Jobs)
	}

	// The owner keeps full access.
	r = authGet(t, ts.URL+"/v1/jobs/"+status.ID, "key-alpha")
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("owner status: HTTP %d", r.StatusCode)
	}
}

func TestAnonymousModeIgnoresKeys(t *testing.T) {
	// Without a Keyring the service stays in the historical open mode:
	// requests pass with no key, with a key, and all jobs share the ""
	// tenant.
	_, ts := testServer(t, Config{})
	resp := authPost(t, ts.URL, "some-random-key", smallSpec())
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("keyed submit in anonymous mode: HTTP %d", resp.StatusCode)
	}
	var status JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if status.Tenant != "" {
		t.Fatalf("anonymous job got tenant %q", status.Tenant)
	}
}

// quotaServer builds a server whose workers never start, so submitted
// jobs stay queued (and count against quotas) deterministically.
func quotaServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	cfg.Store = fsStore(t, t.TempDir())
	cfg.Logf = t.Logf
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func TestTenantQuota429(t *testing.T) {
	ts := quotaServer(t, Config{Keyring: testKeyring(t), TenantMaxActive: 1})

	resp := authPost(t, ts.URL, "key-alpha", smallSpec())
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first submit: HTTP %d", resp.StatusCode)
	}

	// Alpha's second active job breaches the quota: 429 with a concrete
	// Retry-After hint.
	resp = authPost(t, ts.URL, "key-alpha", smallSpec())
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("quota breach: HTTP %d, want 429", resp.StatusCode)
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 1 {
		t.Fatalf("quota 429 Retry-After %q, want a positive integer", resp.Header.Get("Retry-After"))
	}

	// Beta is a different tenant: alpha's breach costs beta nothing.
	resp = authPost(t, ts.URL, "key-beta", smallSpec())
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("beta submit during alpha's breach: HTTP %d", resp.StatusCode)
	}
}

func TestTenantRateLimit429(t *testing.T) {
	// One token refilling at a glacial rate: the first submission spends
	// the bucket, the second must breach.
	ts := quotaServer(t, Config{Keyring: testKeyring(t), TenantRate: 0.001, TenantBurst: 1})

	resp := authPost(t, ts.URL, "key-alpha", smallSpec())
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first submit: HTTP %d", resp.StatusCode)
	}
	resp = authPost(t, ts.URL, "key-alpha", smallSpec())
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("rate breach: HTTP %d, want 429", resp.StatusCode)
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 1 {
		t.Fatalf("rate 429 Retry-After %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
	resp = authPost(t, ts.URL, "key-beta", smallSpec())
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("beta submit during alpha's breach: HTTP %d", resp.StatusCode)
	}
}

func TestGCSweepCollectsExpiredJobs(t *testing.T) {
	s, ts := testServer(t, Config{TTL: time.Hour, Workers: 1})

	status := postJob(t, ts.URL, smallSpec())
	done := waitFor(t, ts.URL, status.ID, 60*time.Second, func(st JobStatus) bool {
		return st.State.Terminal()
	})
	if done.State != StateDone {
		t.Fatalf("job finished as %s", done.State)
	}

	// Freshly finished: inside the TTL, the sweep spares it.
	if n := s.gcSweep(time.Now()); n != 0 {
		t.Fatalf("sweep collected %d fresh jobs", n)
	}
	if got := getStatus(t, ts.URL, status.ID); got.State != StateDone {
		t.Fatalf("fresh job state %s after sweep", got.State)
	}

	// Past the TTL the whole entry goes: the store's data first, then the
	// job table.
	if n := s.gcSweep(time.Now().Add(2 * time.Hour)); n != 1 {
		t.Fatalf("sweep collected %d expired jobs, want 1", n)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + status.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("collected job still answers HTTP %d", resp.StatusCode)
	}
	var ghost JobStatus
	if err := s.st.loadJSON(status.ID, statusKey, &ghost); !isNotExist(err) {
		t.Fatalf("collected job's status still in the store: %v", err)
	}
	if _, err := s.st.be.Get(status.ID, eventsKey); !isNotExist(err) {
		t.Fatalf("collected job's event log still in the store: %v", err)
	}
}

func TestGCSweepSparesActiveJobs(t *testing.T) {
	// No workers running: the job stays queued — non-terminal jobs are
	// never collected no matter how old.
	cfg := Config{Store: fsStore(t, t.TempDir()), TTL: time.Hour, Logf: t.Logf}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	status := postJob(t, ts.URL, smallSpec())
	if n := s.gcSweep(time.Now().Add(1000 * time.Hour)); n != 0 {
		t.Fatalf("sweep collected %d non-terminal jobs", n)
	}
	if got := getStatus(t, ts.URL, status.ID); got.State != StateQueued {
		t.Fatalf("queued job state %s after sweep", got.State)
	}
}

// stalledWriter blocks every body write until released — a subscriber
// that stopped reading.
type stalledWriter struct {
	header  http.Header
	release chan struct{}
}

func (w *stalledWriter) Header() http.Header { return w.header }
func (w *stalledWriter) WriteHeader(int)     {}
func (w *stalledWriter) Write(p []byte) (int, error) {
	<-w.release
	return len(p), nil
}

func TestStreamStalledSubscriberDropped(t *testing.T) {
	var mu sync.Mutex
	var logs []string
	logf := func(format string, args ...any) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	s, ts := testServer(t, Config{Workers: 1, StreamBuffer: 1, StreamStall: 50 * time.Millisecond, Logf: logf})

	status := postJob(t, ts.URL, smallSpec())
	done := waitFor(t, ts.URL, status.ID, 60*time.Second, func(st JobStatus) bool {
		return st.State.Terminal()
	})
	if done.State != StateDone {
		t.Fatalf("job finished as %s", done.State)
	}

	// Subscribe through the handler with a writer that never completes a
	// write: the one-event buffer fills, the stall window passes, and the
	// pump gives the subscriber up instead of blocking the feed forever.
	w := &stalledWriter{header: http.Header{}, release: make(chan struct{})}
	req := httptest.NewRequest("GET", "/v1/jobs/"+status.ID+"/events", nil)
	served := make(chan struct{})
	go func() {
		s.Handler().ServeHTTP(w, req)
		close(served)
	}()
	time.Sleep(250 * time.Millisecond) // several stall windows with the write still hung
	close(w.release)
	select {
	case <-served:
	case <-time.After(10 * time.Second):
		t.Fatal("handler never returned after the writer unblocked")
	}
	mu.Lock()
	defer mu.Unlock()
	for _, line := range logs {
		if strings.Contains(line, "stalled event-stream subscriber") {
			return
		}
	}
	t.Fatalf("stalled subscriber was not dropped; logs:\n%s", strings.Join(logs, "\n"))
}
