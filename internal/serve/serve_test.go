package serve

// End-to-end tests of the job service over real HTTP: submission,
// status, live/replayed event streams, results, cancellation and
// admission control. The kill-and-restart resumption property has its
// own file (restart_test.go).

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"evoprot"
	"evoprot/internal/storage"
)

// fsStore opens the filesystem store over dir.
func fsStore(t *testing.T, dir string) *storage.FS {
	t.Helper()
	st, err := storage.NewFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// testServer boots a server over a fresh filesystem store, unless cfg
// names a store, and exposes it over real HTTP.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Store == nil {
		cfg.Store = fsStore(t, t.TempDir())
	}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		stopCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Stop(stopCtx); err != nil {
			t.Errorf("stopping server: %v", err)
		}
	})
	return s, ts
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

func postJob(t *testing.T, base string, spec evoprot.JobSpec) JobStatus {
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
	var status JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	return status
}

func getStatus(t *testing.T, base, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status: HTTP %s", resp.Status)
	}
	var status JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	return status
}

// waitFor polls the job status until pred holds or the deadline passes.
func waitFor(t *testing.T, base, id string, deadline time.Duration, pred func(JobStatus) bool) JobStatus {
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

// fetchEvents replays the NDJSON feed from offset and decodes every line.
func fetchEvents(t *testing.T, base, id string, offset uint64) []evoprot.Event {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/events?offset=%d", base, id, offset))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: HTTP %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events content type %q", ct)
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

// TestNewRequiresStore: a server has no default backend, so a Config
// without Store is refused before anything is built.
func TestNewRequiresStore(t *testing.T) {
	s, err := New(Config{Workers: 1, Logf: t.Logf})
	if err == nil || s != nil {
		t.Fatalf("New without Store = %v, %v; want an error", s, err)
	}
	if !strings.Contains(err.Error(), "Store is required") {
		t.Fatalf("error %q does not name the missing Store", err)
	}
}

func TestJobLifecycleAndEvents(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	spec := smallSpec()
	status := postJob(t, ts.URL, spec)
	if status.State != StateQueued && status.State != StateRunning {
		t.Fatalf("fresh job state %s", status.State)
	}
	if len(status.Spec.Attributes) == 0 || status.Spec.Grid != "flare" {
		t.Fatalf("spec not normalized at admission: %+v", status.Spec)
	}

	done := waitFor(t, ts.URL, status.ID, 60*time.Second, func(s JobStatus) bool {
		return s.State.Terminal()
	})
	if done.State != StateDone {
		t.Fatalf("job finished as %s (error %q)", done.State, done.Error)
	}
	if done.StopReason != string(evoprot.StopCompleted) {
		t.Fatalf("stop reason %q", done.StopReason)
	}
	if done.Generation != 30 {
		t.Fatalf("generation %d, want 30", done.Generation)
	}
	wantEvents := uint64(2*30 + 2) // per-generation events plus one Done per island
	if done.Events != wantEvents {
		t.Fatalf("events %d, want %d", done.Events, wantEvents)
	}
	if done.Best == nil || done.Best.Score <= 0 {
		t.Fatalf("best-so-far missing from terminal status: %+v", done.Best)
	}
	if done.Started.IsZero() || done.Finished.IsZero() {
		t.Fatal("lifecycle timestamps missing")
	}

	// Full replay: contiguous sequence numbers from 0, decodable lines.
	events := fetchEvents(t, ts.URL, status.ID, 0)
	if uint64(len(events)) != wantEvents {
		t.Fatalf("replayed %d events, want %d", len(events), wantEvents)
	}
	doneEvents := 0
	for i, ev := range events {
		if ev.Seq != uint64(i) {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
		if ev.Done {
			doneEvents++
		}
	}
	if doneEvents != 2 {
		t.Fatalf("%d Done events, want 2", doneEvents)
	}

	// Partial replay from an offset.
	tail := fetchEvents(t, ts.URL, status.ID, 50)
	if uint64(len(tail)) != wantEvents-50 {
		t.Fatalf("offset replay returned %d events, want %d", len(tail), wantEvents-50)
	}
	if tail[0].Seq != 50 {
		t.Fatalf("offset replay starts at seq %d, want 50", tail[0].Seq)
	}

	// SSE framing: ids present, resumable via Last-Event-ID.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/"+status.ID+"/events", nil)
	req.Header.Set("Accept", "text/event-stream")
	req.Header.Set("Last-Event-ID", "59")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("sse content type %q", ct)
	}
	sse := new(bytes.Buffer)
	sse.ReadFrom(resp.Body)
	if !strings.Contains(sse.String(), "id: 60\n") {
		t.Fatalf("sse resume after id 59 lacks id 60:\n%s", sse.String())
	}
	if !strings.Contains(sse.String(), "event: end\n") {
		t.Fatal("sse stream missing end marker")
	}
	if strings.Contains(sse.String(), "id: 59\n") {
		t.Fatal("sse resume replayed the already-delivered id 59")
	}

	// Result: summary, trajectory and the protected dataset.
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + status.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var result JobResult
	if err := json.NewDecoder(resp2.Body).Decode(&result); err != nil {
		t.Fatal(err)
	}
	if result.State != StateDone || result.StopReason != string(evoprot.StopCompleted) {
		t.Fatalf("result state %s stop %s", result.State, result.StopReason)
	}
	if result.Generations != 30 || len(result.History) != 30 {
		t.Fatalf("result generations %d, history %d", result.Generations, len(result.History))
	}
	if result.Best.Score != done.Best.Score {
		t.Fatalf("result best %.4f, status best %.4f", result.Best.Score, done.Best.Score)
	}
	if result.Best.Origin == "" {
		t.Fatal("result best lacks origin")
	}
	protected, err := evoprot.ReadCSV(strings.NewReader(result.DatasetCSV))
	if err != nil {
		t.Fatalf("result dataset does not parse: %v", err)
	}
	if protected.Rows() != 80 {
		t.Fatalf("protected dataset has %d rows, want 80", protected.Rows())
	}

	// CSV download variant.
	resp3, err := http.Get(ts.URL + "/v1/jobs/" + status.ID + "/result?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if ct := resp3.Header.Get("Content-Type"); ct != "text/csv" {
		t.Fatalf("csv content type %q", ct)
	}
	csv := new(bytes.Buffer)
	csv.ReadFrom(resp3.Body)
	if csv.String() != result.DatasetCSV {
		t.Fatal("csv download differs from the inlined dataset")
	}

	// The job shows up in the listing.
	resp4, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp4.Body.Close()
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(resp4.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != status.ID {
		t.Fatalf("listing: %+v", list.Jobs)
	}
}

// TestInlineCSVJobRuns: an uploaded dataset travels as dataset_csv, is
// persisted at admission, and the job runs to completion from the
// persisted file (regression: the stripped spec used to fail execution-
// time validation with "needs exactly one dataset source").
func TestInlineCSVJobRuns(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	gen, err := evoprot.GenerateDataset("flare", 60, 11)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := gen.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	attrs, _ := evoprot.ProtectedAttributes("flare")
	spec := evoprot.JobSpec{
		DatasetCSV:   sb.String(),
		Attributes:   attrs,
		Generations:  15,
		Islands:      2,
		MigrateEvery: 5,
		Seed:         11,
	}
	status := postJob(t, ts.URL, spec)
	if status.Spec.DatasetCSV != "" {
		t.Fatal("inline dataset leaked into the persisted spec")
	}
	done := waitFor(t, ts.URL, status.ID, 60*time.Second, func(s JobStatus) bool {
		return s.State.Terminal()
	})
	if done.State != StateDone {
		t.Fatalf("inline-CSV job finished as %s (error %q)", done.State, done.Error)
	}
	result := fetchResult(t, ts.URL, status.ID)
	if result.Islands != 2 || result.Best.Score <= 0 {
		t.Fatalf("inline-CSV result: %+v", result.Best)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := testServer(t, Config{})
	cases := map[string]struct {
		body string
		code int
	}{
		"no source":       {`{}`, http.StatusBadRequest},
		"unknown field":   {`{"dataset":"flare","turbo":true}`, http.StatusBadRequest},
		"bad dataset":     {`{"dataset":"census"}`, http.StatusBadRequest},
		"bad aggregator":  {`{"dataset":"flare","aggregator":"median"}`, http.StatusBadRequest},
		"NaN weight":      {`{"dataset":"flare","aggregator":"weighted:NaN"}`, http.StatusBadRequest},
		"weight + junk":   {`{"dataset":"flare","aggregator":"weighted:0.5junk"}`, http.StatusBadRequest},
		"csv sans attrs":  {`{"dataset_csv":"A\nx\n"}`, http.StatusBadRequest},
		"rows unbounded":  {`{"dataset":"flare","rows":999999999}`, http.StatusBadRequest},
		"repeated attr":   {`{"dataset":"flare","attributes":["ACTIVITY","ACTIVITY","EVOLUTION"]}`, http.StatusBadRequest},
		"forbidden paths": {`{"dataset_path":"/etc/passwd","attributes":["A"]}`, http.StatusForbidden},
		"bad json":        {`{`, http.StatusBadRequest},
	}
	for name, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var apiErr apiError
		json.NewDecoder(resp.Body).Decode(&apiErr)
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("%s: HTTP %d, want %d", name, resp.StatusCode, tc.code)
		}
		if apiErr.Error == "" {
			t.Errorf("%s: no error body", name)
		}
	}

	// Unknown job ids 404 across the read endpoints.
	for _, path := range []string{"/v1/jobs/jdeadbeef", "/v1/jobs/jdeadbeef/events", "/v1/jobs/jdeadbeef/result"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: HTTP %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestRemovedRouteKnobRejected: the evaluation-route knobs, the search
// add-ons (adaptive migration, the niche presets, k-point crossover) and
// the offspring pool width are gone from JobSpec, and the strict submit
// decoder answers a spec still naming one with a 400 that names the
// field.
func TestRemovedRouteKnobRejected(t *testing.T) {
	_, ts := testServer(t, Config{})
	for field, extra := range map[string]string{
		"disable_delta":    `"disable_delta":true`,
		"lazy_prepare":     `"lazy_prepare":true`,
		"niches":           `"islands":2,"niches":"explore-exploit"`,
		"adaptive":         `"islands":2,"adaptive":{}`,
		"crossover_points": `"per_island":[{},{"crossover_points":4}]`,
		"eval_workers":     `"eval_workers":2`,
	} {
		body := `{"dataset":"flare","rows":60,"generations":2,` + extra + `}`
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var apiErr apiError
		json.NewDecoder(resp.Body).Decode(&apiErr)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(apiErr.Error, field) {
			t.Fatalf("spec with %s: HTTP %d %q, want 400 naming the field", field, resp.StatusCode, apiErr.Error)
		}
	}
}

// TestWidePRLSpecRejectedServerStaysUp is the regression test for a job
// over more protected attributes than probabilistic record linkage
// supports: admission must answer 400, and the server keeps serving. The
// spec used to be admitted, and its evaluation panicked on the worker
// goroutine, taking the whole daemon down.
func TestWidePRLSpecRejectedServerStaysUp(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	const cols, rows = 17, 40
	var sb strings.Builder
	names := make([]string, cols)
	for c := range names {
		names[c] = fmt.Sprintf("Q%d", c)
	}
	sb.WriteString(strings.Join(names, ",") + "\n")
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString([]string{"lo", "hi"}[(r>>(c%5)+c)&1])
		}
		sb.WriteByte('\n')
	}
	body, _ := json.Marshal(evoprot.JobSpec{DatasetCSV: sb.String(), Attributes: names, Generations: 2})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var apiErr apiError
	json.NewDecoder(resp.Body).Decode(&apiErr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(apiErr.Error, "at most 16") {
		t.Fatalf("17-attribute spec: HTTP %d %q, want 400 naming the PRL limit", resp.StatusCode, apiErr.Error)
	}
	status := postJob(t, ts.URL, smallSpec())
	done := waitFor(t, ts.URL, status.ID, 60*time.Second, func(s JobStatus) bool { return s.State.Terminal() })
	if done.State != StateDone {
		t.Fatalf("job after the rejected spec finished as %s (error %q)", done.State, done.Error)
	}
}

func TestCancelRunningJob(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	spec := smallSpec()
	spec.Generations = 50000 // far more than the test will allow to run
	status := postJob(t, ts.URL, spec)

	// Let it evolve a little before cancelling.
	waitFor(t, ts.URL, status.ID, 60*time.Second, func(s JobStatus) bool {
		return s.State == StateRunning && s.Generation >= 5
	})
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+status.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: HTTP %s", resp.Status)
	}

	done := waitFor(t, ts.URL, status.ID, 60*time.Second, func(s JobStatus) bool {
		return s.State.Terminal()
	})
	if done.State != StateCancelled {
		t.Fatalf("cancelled job finished as %s", done.State)
	}
	if done.StopReason != string(evoprot.StopCancelled) {
		t.Fatalf("stop reason %q", done.StopReason)
	}
	if done.Best == nil {
		t.Fatal("cancellation dropped the partial best")
	}

	// The partial result is kept and served.
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + status.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("result of cancelled job: HTTP %s", resp2.Status)
	}
	var result JobResult
	if err := json.NewDecoder(resp2.Body).Decode(&result); err != nil {
		t.Fatal(err)
	}
	if result.State != StateCancelled || result.DatasetCSV == "" {
		t.Fatalf("partial result incomplete: state %s, dataset %d bytes", result.State, len(result.DatasetCSV))
	}

	// Cancelling again is a no-op, not an error.
	req2, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+status.ID, nil)
	resp3, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusAccepted {
		t.Fatalf("repeat cancel: HTTP %s", resp3.Status)
	}
}

func TestQueueAdmissionControl(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, QueueDepth: 1})
	long := smallSpec()
	long.Generations = 50000

	// Job 1 occupies the only worker.
	j1 := postJob(t, ts.URL, long)
	waitFor(t, ts.URL, j1.ID, 60*time.Second, func(s JobStatus) bool {
		return s.State == StateRunning
	})
	// Job 2 occupies the only queue slot; a cancelled-while-queued job
	// never runs.
	j2 := postJob(t, ts.URL, long)

	// Job 3 is refused.
	body, _ := json.Marshal(long)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity submit: HTTP %d, want 503", resp.StatusCode)
	}

	// Cancel the queued job, then the running one; the worker must skip
	// the dead queue entry.
	for _, id := range []string{j2.ID, j1.ID} {
		req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	done2 := waitFor(t, ts.URL, j2.ID, 60*time.Second, func(s JobStatus) bool {
		return s.State.Terminal()
	})
	if done2.State != StateCancelled || done2.Generation != 0 {
		t.Fatalf("queued job cancelled as %s at generation %d", done2.State, done2.Generation)
	}
	// A never-run job has no result.
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + j2.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("result of never-run job: HTTP %d, want 404", resp2.StatusCode)
	}
	waitFor(t, ts.URL, j1.ID, 60*time.Second, func(s JobStatus) bool {
		return s.State.Terminal()
	})
}

func TestResultBeforeTerminalConflicts(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	spec := smallSpec()
	spec.Generations = 50000
	status := postJob(t, ts.URL, spec)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + status.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("early result fetch: HTTP %d, want 409", resp.StatusCode)
	}
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+status.ID, nil)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	waitFor(t, ts.URL, status.ID, 60*time.Second, func(s JobStatus) bool {
		return s.State.Terminal()
	})
}
