package main

// The service-mix workload: an in-process serve.Server on the in-memory
// store behind a loopback HTTP listener, driven by closed-loop clients.
// Each client submits a job, streams its NDJSON event feed to the end,
// then fetches the result, and only then takes the next job of a fixed,
// seeded list.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"evoprot"
	"evoprot/internal/serve"
	"evoprot/internal/storage"
)

// serviceBoots is how many times a run boots a server to measure set-up;
// the last boot serves the load. A boot costs a fraction of a second, so
// set-up is the median of several.
const serviceBoots = 7

// serviceWorkers is the server's worker pool and serviceClients the
// number of closed-loop clients. One job at a time already spreads over
// two vCPUs: its islands, the server encoding its event feed and the
// client decoding it. With two workers and two clients on a 2-vCPU
// machine, up to four islands shared the two vCPUs, every job's time
// followed the other job's scheduling, and the run-to-run spread of
// gens_per_s and job_s was two to three times as wide.
const (
	serviceWorkers = 1
	serviceClients = 1
)

// serviceJobRate sizes the fixed job list from --seconds: jobs per second
// of --seconds, near the measured rate on a 2-vCPU machine. At least
// minServiceJobs run, so job_s.p90 has ten samples beyond it.
const (
	serviceJobRate = 3
	minServiceJobs = 100
)

// warmupSpec is the job every boot runs before it counts as set up.
var warmupSpec = evoprot.JobSpec{Dataset: "flare", Rows: 100, Generations: 40, Seed: 1}

// serviceMix draws the fixed job list from seed: small flare, german and
// adult jobs of 100-200 rows and 40-120 generations on one or two islands,
// half of them Pareto. The mix is stratified so every list carries nearly
// the same work: datasets, island counts and objectives cycle through all
// twelve combinations, rows and generations each take one value from
// every n-th of their range (in a seeded order), and the seed decides the
// pairings, the job order and every job's own seed.
func serviceMix(seed uint64, n int) []evoprot.JobSpec {
	rng := rand.New(rand.NewPCG(seed, 0x5e41ce5eed))
	datasets := []string{"flare", "german", "adult"}
	rowStrata, genStrata := rng.Perm(n), rng.Perm(n)
	stratum := func(k, lo, width int) int {
		return lo + int((float64(k)+rng.Float64())*float64(width)/float64(n))
	}
	specs := make([]evoprot.JobSpec, n)
	for i := range specs {
		specs[i] = evoprot.JobSpec{
			Dataset:     datasets[i%3],
			Rows:        stratum(rowStrata[i], 100, 101),
			Generations: stratum(genStrata[i], 40, 81),
			Islands:     1 + (i/3)%min(2, runtime.NumCPU()),
			Seed:        rng.Uint64(),
		}
		if (i/6)%2 == 1 {
			specs[i].Objective = "pareto"
		}
	}
	rng.Shuffle(n, func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs
}

// service is one booted server with its listener and client.
type service struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
	store  *tracedStore // nil when untraced
}

// bootService starts a server over a fresh in-memory store and waits
// until /healthz answers.
func bootService(traced bool) (*service, error) {
	var st storage.Store = storage.NewMem()
	s := &service{served: make(chan error, 1)}
	if traced {
		s.store = &tracedStore{inner: st}
		st = s.store
	}
	srv, err := serve.New(serve.Config{Store: st, Workers: serviceWorkers})
	if err != nil {
		return nil, err
	}
	s.srv = srv
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Stop(context.Background())
		return nil, err
	}
	s.hs = &http.Server{Handler: srv.Handler()}
	go func() { s.served <- s.hs.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     serviceClients,
		MaxIdleConnsPerHost: serviceClients,
	}}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := s.client.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("server did not answer /healthz: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the listener and the server down and waits for both.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	s.client.CloseIdleConnections()
	return errors.Join(err, s.srv.Stop(ctx))
}

// jobSample is one job's client-side timings and check outcome.
type jobSample struct {
	id                        string
	total, submit, firstEvent time.Duration
	queueWait, run            time.Duration // from the final status; detail mode only
	gens                      int           // island-generations
	rejected                  bool
	err                       error
}

// runJob drives one job through the API: submit, stream the event feed to
// its end, fetch the result, and check all three. With detail set it also
// reads the final status for the server-side timestamps.
func (s *service) runJob(spec evoprot.JobSpec, detail bool) jobSample {
	var js jobSample
	start := time.Now()
	body, err := json.Marshal(spec)
	if err != nil {
		js.err = err
		return js
	}
	var status serve.JobStatus
	code, err := s.call(http.MethodPost, "/v1/jobs", body, &status)
	js.submit = time.Since(start)
	if err != nil || code != http.StatusCreated {
		js.rejected = true
		js.err = fmt.Errorf("submit: status %d: %v", code, err)
		return js
	}
	js.id = status.ID
	events, dones, err := s.streamEvents(status.ID, start, &js)
	if err != nil {
		js.err = err
		return js
	}
	var res serve.JobResult
	if code, err := s.call(http.MethodGet, "/v1/jobs/"+status.ID+"/result", nil, &res); err != nil || code != http.StatusOK {
		js.err = fmt.Errorf("job %s result: status %d: %v", status.ID, code, err)
		return js
	}
	js.total = time.Since(start)
	islandsN := max(spec.Islands, 1)
	js.gens = islandsN * spec.Generations
	switch {
	case res.State != serve.StateDone:
		js.err = fmt.Errorf("job %s ended %s", status.ID, res.State)
	case res.Generations != spec.Generations:
		js.err = fmt.Errorf("job %s ran %d generations, want %d", status.ID, res.Generations, spec.Generations)
	case len(res.History) == 0 || res.DatasetCSV == "":
		js.err = fmt.Errorf("job %s result is missing its history or dataset", status.ID)
	case events != uint64(islandsN*(spec.Generations+1)) || dones != islandsN:
		js.err = fmt.Errorf("job %s feed has %d events and %d done markers, want %d and %d",
			status.ID, events, dones, islandsN*(spec.Generations+1), islandsN)
	}
	if detail && js.err == nil {
		var final serve.JobStatus
		if code, err := s.call(http.MethodGet, "/v1/jobs/"+status.ID, nil, &final); err != nil || code != http.StatusOK {
			js.err = fmt.Errorf("job %s status: status %d: %v", status.ID, code, err)
			return js
		}
		js.queueWait = final.Started.Sub(final.Created)
		js.run = final.Finished.Sub(final.Started)
	}
	return js
}

// streamEvents reads a job's NDJSON feed to its end, checking that Seq
// runs contiguously from 0, and returns the event and island-done counts.
func (s *service) streamEvents(id string, start time.Time, js *jobSample) (events uint64, dones int, err error) {
	resp, err := s.client.Get(s.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("job %s events: status %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		if events == 0 {
			js.firstEvent = time.Since(start)
		}
		var ev struct {
			Seq  uint64
			Done bool
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return events, dones, fmt.Errorf("job %s event %d: %w", id, events, err)
		}
		if ev.Seq != events {
			return events, dones, fmt.Errorf("job %s feed skips from seq %d to %d", id, events, ev.Seq)
		}
		events++
		if ev.Done {
			dones++
		}
	}
	return events, dones, sc.Err()
}

// call makes one JSON request and decodes a 2xx response into out.
func (s *service) call(method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}

// serviceLoad is one load phase's outcome.
type serviceLoad struct {
	wall       time.Duration
	samples    []jobSample
	allocBytes uint64
	heapBytes  uint64
}

// load runs the job list through serviceClients closed-loop clients.
func (s *service) load(specs []evoprot.JobSpec, detail bool) serviceLoad {
	var l serviceLoad
	l.samples = make([]jobSample, len(specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(specs) {
					return
				}
				l.samples[i] = s.runJob(specs[i], detail)
			}
		}()
	}
	wg.Wait()
	l.wall = time.Since(start)
	runtime.ReadMemStats(&after)
	l.allocBytes = after.TotalAlloc - before.TotalAlloc
	runtime.GC()
	runtime.ReadMemStats(&after)
	l.heapBytes = after.HeapAlloc // every job's data is still in the store
	return l
}

// bootAndWarm boots a server and runs the warm-up job, returning the
// set-up time.
func bootAndWarm(traced bool) (*service, time.Duration, jobSample, error) {
	runtime.GC()
	start := time.Now()
	s, err := bootService(traced)
	if err != nil {
		return nil, 0, jobSample{}, err
	}
	warm := s.runJob(warmupSpec, false)
	return s, time.Since(start), warm, nil
}

// runService runs the service-mix workload for the command line.
func runService(seed uint64, seconds int, trace bool) (result, error) {
	var r result
	specs := serviceMix(seed, max(minServiceJobs, serviceJobRate*seconds))
	var setups []float64
	var s *service
	boots := serviceBoots
	if trace {
		boots = 1
	}
	for b := 0; b < boots; b++ {
		svc, setup, warm, err := bootAndWarm(false)
		if err != nil {
			return r, err
		}
		r.count(warm)
		setups = append(setups, setup.Seconds())
		if b < boots-1 {
			if err := svc.stop(); err != nil {
				return r, err
			}
			continue
		}
		s = svc
	}
	plain := s.load(specs, false)
	for _, js := range plain.samples {
		r.count(js)
	}
	if err := s.stop(); err != nil {
		return r, err
	}
	gens := totalGens(plain.samples)
	r.note = fmt.Sprintf("%d set-up(s); %d jobs of %d island-generations in all, %d closed-loop client(s)",
		len(setups), len(specs), gens, serviceClients)
	if !trace {
		var jobs []float64
		for _, js := range plain.samples {
			jobs = append(jobs, js.total.Seconds())
		}
		r.metrics = []metric{
			{"setup_s", median(setups), "s"},
			{"gens_per_s", float64(gens) / plain.wall.Seconds(), "1/s"},
			{"job_s.p50", median(jobs), "s"},
			{"job_s.p90", percentile(jobs, 0.9), "s"},
			{"alloc_kb_per_gen", float64(plain.allocBytes) / 1024 / float64(max(gens, 1)), "KB"},
			{"heap_live_mb", float64(plain.heapBytes) / (1 << 20), "MB"},
		}
		return r, nil
	}

	s, _, warm, err := bootAndWarm(true)
	if err != nil {
		return r, err
	}
	r.count(warm)
	traced := s.load(specs, true)
	for _, js := range traced.samples {
		r.count(js)
	}
	if err := s.stop(); err != nil {
		return r, err
	}
	var submit, first, wait, run []float64
	rejected := 0
	for _, js := range traced.samples {
		if js.rejected {
			rejected++
			continue
		}
		submit = append(submit, float64(js.submit)/1e6)
		first = append(first, float64(js.firstEvent)/1e6)
		wait = append(wait, float64(js.queueWait)/1e6)
		run = append(run, js.run.Seconds())
	}
	plainRate := float64(gens) / plain.wall.Seconds()
	tracedRate := float64(totalGens(traced.samples)) / traced.wall.Seconds()
	r.metrics = []metric{
		{"serve.submit_ms.p50", median(submit), "ms"},
		{"serve.first_event_ms.p50", median(first), "ms"},
		{"serve.queue_wait_ms.p50", median(wait), "ms"},
		{"serve.run_s.p50", median(run), "s"},
		{"serve.rejected_n", float64(rejected), "count"},
		{"serve.jobs_n", float64(len(traced.samples)), "count"},
		{"trace.gens_per_s", tracedRate, "1/s"},
		{"trace.overhead", plainRate/tracedRate - 1, "ratio"},
	}
	for op, name := range storeOpNames {
		r.metrics = append(r.metrics,
			metric{"storage." + name + ".n", float64(s.store.ops[op].n.Load()), "count"},
			metric{"storage." + name + ".s", s.store.ops[op].seconds(), "s"},
			metric{"storage." + name + ".kb", float64(s.store.bytes[op].Load()) / 1024, "KB"},
		)
	}
	return r, nil
}

func totalGens(samples []jobSample) int {
	n := 0
	for _, js := range samples {
		n += js.gens
	}
	return n
}
