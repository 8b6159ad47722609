// Package cluster makes the job service horizontally scalable: a
// coordinator owns admission, the durable store and the public HTTP API
// (an embedded serve.Server that never starts its in-process pool),
// while stateless workers lease queued jobs over HTTP, run them through
// the very same execution engine (serve.Executor), and persist every
// byte — spec, status, events, checkpoints — back through the
// coordinator's store handler.
//
// The lease protocol is the whole coordination surface:
//
//	POST /v1/lease                    acquire a queued job (long-polls
//	                                  up to wait_ms; 204 when none)
//	POST /v1/lease/{job}/renew        heartbeat; extends the TTL and
//	                                  reports a pending client cancel
//	POST /v1/lease/{job}/complete     release after a terminal status
//	POST /v1/lease/{job}/fail         release with an error; optional
//	                                  requeue for another worker
//	/v1/store/...                     the storage.Remote protocol, every
//	                                  mutation fenced by the lease token
//
// A lease is a TTL plus a fencing token. The worker heartbeats renew;
// if renewals stop — worker death, a network partition — the
// coordinator's janitor expires the lease, returns the job to the queue
// (ForcePush, mirroring boot recovery) and a later worker resumes it
// from its last checkpoint, so a worker's death costs at most one
// checkpoint interval of work. The expired lease's token keeps fencing:
// should the old worker still be alive and writing, every mutation
// bounces with 409/ErrFenced and cannot corrupt the re-leased run.
// Determinism carries across the seam — a fixed-seed job run through a
// worker lease, even one interrupted mid-run and re-leased elsewhere,
// reproduces the single-node run bit for bit.
package cluster

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"evoprot/internal/serve"
	"evoprot/internal/storage"
)

// Defaults for Config's zero values.
const (
	// DefaultLeaseTTL is how long a lease survives without a renewal.
	DefaultLeaseTTL = 15 * time.Second
)

// Config configures a Coordinator.
type Config struct {
	// Serve configures the embedded admission server. Store is required:
	// the coordinator must hold the same backend handle it serves to
	// workers, so it cannot let serve build a private one. Workers is
	// ignored — the in-process pool never starts; execution capacity is
	// whatever workers attach.
	Serve serve.Config
	// LeaseTTL is how long a granted lease survives without a renewal
	// before the janitor re-queues its job; 0 selects DefaultLeaseTTL.
	LeaseTTL time.Duration
	// SweepEvery is the janitor's sweep interval; 0 selects LeaseTTL/4.
	SweepEvery time.Duration
}

// lease is one granted lease: the fencing token authorizing job's
// mutations until deadline. pri and seq feed the preemption policy —
// the job's submission priority and the grant order (higher seq = newer
// lease = less sunk work to throw away on a tie).
type lease struct {
	job      string
	token    string
	worker   string
	deadline time.Time
	pri      int
	seq      int64
}

// Coordinator is the cluster's head: admission, recovery, the job table
// and the public API come from the embedded serve.Server; the lease
// table, the fenced store handler and the janitor are its own. Build
// with NewCoordinator, mount Handler, call Start, and Stop on the way
// out.
type Coordinator struct {
	cfg   Config
	srv   *serve.Server
	store storage.Store
	queue *serve.JobQueue
	logf  func(format string, args ...any)

	mu     sync.Mutex
	leases map[string]*lease // job id -> active lease
	jobMu  map[string]*sync.Mutex
	seq    int64

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewCoordinator builds a coordinator over cfg and recovers persisted
// jobs (non-terminal ones re-enter the queue for the next worker).
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if cfg.Serve.Store == nil {
		return nil, fmt.Errorf("cluster: Config.Serve.Store is required")
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.SweepEvery <= 0 {
		cfg.SweepEvery = cfg.LeaseTTL / 4
	}
	bound := cfg.Serve.QueueDepth
	if bound <= 0 {
		bound = serve.DefaultQueueDepth
	}
	c := &Coordinator{
		cfg:    cfg,
		store:  cfg.Serve.Store,
		queue:  serve.NewFIFOQueue(bound),
		leases: make(map[string]*lease),
		jobMu:  make(map[string]*sync.Mutex),
		stop:   make(chan struct{}),
	}
	c.logf = cfg.Serve.Logf
	if c.logf == nil {
		c.logf = func(string, ...any) {}
	}
	// The coordinator's queue doubles as serve's admission queue, so
	// submissions and boot recovery land directly where leases drain.
	cfg.Serve.Queue = c.queue
	srv, err := serve.New(cfg.Serve)
	if err != nil {
		return nil, err
	}
	c.srv = srv
	return c, nil
}

// Start launches the janitor. The embedded server's pool intentionally
// never starts: workers are the pool.
func (c *Coordinator) Start() {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		t := time.NewTicker(c.cfg.SweepEvery)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.sweep()
			}
		}
	}()
}

// Stop halts the janitor and shuts the embedded server down (closing
// the queue, so blocked acquires drain with 503).
func (c *Coordinator) Stop(ctx context.Context) error {
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
	return c.srv.Stop(ctx)
}

// Handler returns the coordinator's full HTTP surface: the lease
// protocol and the fenced store handler layered over the embedded
// server's public API.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/lease", c.handleAcquire)
	mux.HandleFunc("POST /v1/lease/{job}/renew", c.handleRenew)
	mux.HandleFunc("POST /v1/lease/{job}/complete", c.handleComplete)
	mux.HandleFunc("POST /v1/lease/{job}/fail", c.handleFail)
	mux.Handle("/v1/store/", http.StripPrefix("/v1/store", storage.NewRemoteHandler(c.store, storage.RemoteHooks{
		Authorize:  c.authorizeWrite,
		OnPut:      c.onRemotePut,
		OnAppend:   c.onRemoteAppend,
		OnTruncate: c.onRemoteTruncate,
	})))
	mux.HandleFunc("GET /healthz", c.handleHealth)
	mux.Handle("/", c.srv.Handler())
	return mux
}

// Lease is the wire form of a granted lease.
type Lease struct {
	// Job is the leased job's id.
	Job string `json:"job"`
	// Token fences the job's mutations: the worker sends it on every
	// store write and lease call; the coordinator refuses stale ones.
	Token string `json:"token"`
	// TTLMillis is how long the lease lives without a renewal.
	TTLMillis int64 `json:"ttl_ms"`
}

// leaseRequest is POST /v1/lease's body.
type leaseRequest struct {
	// Worker names the acquiring worker (for logs and /healthz).
	Worker string `json:"worker"`
	// WaitMillis long-polls: how long the coordinator may hold the
	// request open waiting for a queued job before answering 204.
	WaitMillis int64 `json:"wait_ms"`
}

// renewReply is POST /v1/lease/{job}/renew's body.
type renewReply struct {
	TTLMillis int64 `json:"ttl_ms"`
	// Cancel reports a pending client DELETE: the worker should cancel
	// the run and finalize the partial result.
	Cancel bool `json:"cancel"`
	// Preempt asks the worker to yield: a higher-priority job is queued
	// with no free worker, and this lease holds the cluster's
	// lowest-priority running job. The worker checkpoints, persists the
	// job queued and releases with requeue=true; the job resumes
	// bit-identically once capacity frees up.
	Preempt bool `json:"preempt"`
}

// failRequest is POST /v1/lease/{job}/fail's body.
type failRequest struct {
	// Error describes why the worker gave the job up.
	Error string `json:"error"`
	// Requeue returns the job to the queue (still resumable — worker
	// shutdown) instead of marking it failed (infrastructure error).
	Requeue bool `json:"requeue"`
}

// handleAcquire grants a lease on the next queued job, long-polling up
// to the requested wait: 200 with a Lease, 204 when none arrived in
// time, 503 once the coordinator is shutting down.
func (c *Coordinator) handleAcquire(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad lease request: %v", err), http.StatusBadRequest)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), time.Duration(req.WaitMillis)*time.Millisecond)
	defer cancel()
	for {
		id, pri, ok := c.queue.Pop(ctx)
		if !ok {
			// Only Stop closes the queue, and it marks the coordinator
			// stopping first; otherwise the wait ran out.
			if c.stopping() {
				http.Error(w, "coordinator shutting down", http.StatusServiceUnavailable)
			} else {
				w.WriteHeader(http.StatusNoContent)
			}
			return
		}
		// A job cancelled while queued is finalized but still in the
		// queue; skip it like the in-process pool's claim does.
		if st, known := c.srv.JobSnapshot(id); !known || st.State != serve.StateQueued {
			continue
		}
		l := c.grant(id, req.Worker, pri)
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(Lease{Job: l.job, Token: l.token, TTLMillis: c.cfg.LeaseTTL.Milliseconds()})
		return
	}
}

// stopping reports whether Stop has been called.
func (c *Coordinator) stopping() bool {
	select {
	case <-c.stop:
		return true
	default:
		return false
	}
}

// grant records a fresh lease on job for worker at priority pri.
func (c *Coordinator) grant(job, worker string, pri int) *lease {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	l := &lease{
		job:      job,
		token:    fmt.Sprintf("%d-%s", c.seq, randHex(8)),
		worker:   worker,
		deadline: time.Now().Add(c.cfg.LeaseTTL),
		pri:      pri,
		seq:      c.seq,
	}
	c.leases[job] = l
	c.logf("cluster: job %s leased to worker %q (lease %s)", job, worker, l.token)
	return l
}

// validate looks job's active lease up and checks token against it;
// expired-but-unswept leases fail too, so a renewal cannot revive a
// lease the janitor is about to reap.
func (c *Coordinator) validate(job, token string) (*lease, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	l, ok := c.leases[job]
	if !ok || l.token != token || time.Now().After(l.deadline) {
		return nil, false
	}
	return l, true
}

// lockJob returns job's mutation lock, creating it on first use. The
// lock is held across a remote write's apply (authorizeWrite) and
// across lease revocation plus requeue (requeue), which makes fencing
// atomic: a write is either wholly before a revocation — and the
// requeue's status persist lands after it — or wholly after, and
// bounces off the empty lease table.
func (c *Coordinator) lockJob(job string) *sync.Mutex {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.jobMu[job]
	if !ok {
		m = &sync.Mutex{}
		c.jobMu[job] = m
	}
	return m
}

// authorizeWrite is the store handler's fencing hook: only the job's
// active leaseholder may mutate its keys. The job's mutation lock is
// held until the handler releases it after the apply.
func (c *Coordinator) authorizeWrite(job, token string) (func(), error) {
	m := c.lockJob(job)
	m.Lock()
	if _, ok := c.validate(job, token); !ok {
		m.Unlock()
		return nil, fmt.Errorf("job %s: no active lease for token %q", job, token)
	}
	return m.Unlock, nil
}

// requeue returns job to the queue under its mutation lock, so the
// requeued (queued, resumes-bumped) status persists strictly after any
// write that beat the revocation.
func (c *Coordinator) requeue(job string) {
	m := c.lockJob(job)
	m.Lock()
	defer m.Unlock()
	if err := c.srv.RequeueJob(job); err != nil {
		c.logf("cluster: job %s: re-queueing: %v", job, err)
	}
}

// Store-handler callbacks folding workers' remote writes back into the
// embedded server's live job table, so status polls, event streams and
// admission checks see leased jobs as if they ran in-process.

func (c *Coordinator) onRemotePut(job, key string, data []byte) {
	if key == serve.StatusKey {
		c.srv.SyncJobStatus(job, data)
	}
}

func (c *Coordinator) onRemoteAppend(job, key string, data []byte) {
	if key == serve.EventsKey {
		var lines uint64
		for _, b := range data {
			if b == '\n' {
				lines++
			}
		}
		c.srv.NoteJobEvents(job, lines, int64(len(data)))
	}
}

func (c *Coordinator) onRemoteTruncate(job, key string, size int64) {
	if key == serve.EventsKey {
		c.srv.ResyncJobEvents(job)
	}
}

// handleRenew heartbeats a lease: 200 with the refreshed TTL and the
// pending-cancel flag, 409 when the lease is gone, stale or expired —
// the worker's signal to stop the run (it stays resumable; the janitor
// or an explicit expire already re-queued it, or soon will).
func (c *Coordinator) handleRenew(w http.ResponseWriter, r *http.Request) {
	job, token := r.PathValue("job"), r.Header.Get(storage.LeaseHeader)
	c.mu.Lock()
	l, ok := c.leases[job]
	if !ok || l.token != token || time.Now().After(l.deadline) {
		c.mu.Unlock()
		http.Error(w, fmt.Sprintf("job %s: no active lease for token %q", job, token), http.StatusConflict)
		return
	}
	l.deadline = time.Now().Add(c.cfg.LeaseTTL)
	preempt := c.shouldPreemptLocked(l)
	c.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(renewReply{
		TTLMillis: c.cfg.LeaseTTL.Milliseconds(),
		Cancel:    c.srv.CancelRequested(job),
		Preempt:   preempt,
	})
}

// shouldPreemptLocked decides, at renew time, whether l's worker must
// yield: a strictly higher-priority job waits in the queue AND l is the
// preemption victim — the lowest-priority active lease, ties broken
// toward the newest grant (the least sunk work). Piggybacking the
// decision on heartbeats makes it self-healing: no coordinator state
// tracks "pending preemptions"; as long as the queue head outranks the
// victim, every renewal re-derives the same answer. Callers hold c.mu.
func (c *Coordinator) shouldPreemptLocked(l *lease) bool {
	maxPri, ok := c.queue.MaxPriority()
	if !ok || maxPri <= l.pri {
		return false
	}
	victim := l
	for _, o := range c.leases {
		if o.pri < victim.pri || (o.pri == victim.pri && o.seq > victim.seq) {
			victim = o
		}
	}
	return victim == l
}

// handleComplete releases a lease after the worker persisted a terminal
// status. Defensively, a job that somehow is not terminal goes back to
// the queue rather than getting stranded leaseless.
func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	job, token := r.PathValue("job"), r.Header.Get(storage.LeaseHeader)
	if _, ok := c.validate(job, token); !ok {
		http.Error(w, fmt.Sprintf("job %s: no active lease for token %q", job, token), http.StatusConflict)
		return
	}
	c.release(job)
	if st, known := c.srv.JobSnapshot(job); known && !st.State.Terminal() {
		c.logf("cluster: job %s completed by its worker but is %s; re-queueing", job, st.State)
		c.requeue(job)
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleFail releases a lease the worker gives up: requeue=true returns
// the (still resumable) job to the queue — the graceful-shutdown path —
// while requeue=false marks it failed with the worker's error.
func (c *Coordinator) handleFail(w http.ResponseWriter, r *http.Request) {
	job, token := r.PathValue("job"), r.Header.Get(storage.LeaseHeader)
	var req failRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad fail request: %v", err), http.StatusBadRequest)
		return
	}
	if _, ok := c.validate(job, token); !ok {
		http.Error(w, fmt.Sprintf("job %s: no active lease for token %q", job, token), http.StatusConflict)
		return
	}
	c.release(job)
	if req.Requeue {
		c.requeue(job)
	} else {
		c.markFailed(job, req.Error)
	}
	w.WriteHeader(http.StatusNoContent)
}

// release drops job's lease from the table.
func (c *Coordinator) release(job string) {
	c.mu.Lock()
	delete(c.leases, job)
	c.mu.Unlock()
}

// markFailed persists job as failed with the worker's error — the path
// for infrastructure failures the worker could not record itself (its
// engine never got far enough to write a status).
func (c *Coordinator) markFailed(job, msg string) {
	raw, err := c.store.Get(job, serve.StatusKey)
	if err != nil {
		c.logf("cluster: job %s: loading status to record failure: %v", job, err)
		return
	}
	var status serve.JobStatus
	if err := json.Unmarshal(raw, &status); err != nil {
		c.logf("cluster: job %s: unreadable status while recording failure: %v", job, err)
		return
	}
	if status.State.Terminal() {
		// The worker's engine recorded the real outcome before the release;
		// keep it.
		return
	}
	status.State = serve.StateFailed
	status.Error = msg
	status.Finished = time.Now().UTC()
	updated, err := json.MarshalIndent(status, "", "  ")
	if err != nil {
		c.logf("cluster: job %s: encoding failed status: %v", job, err)
		return
	}
	if err := c.store.Put(job, serve.StatusKey, updated); err != nil {
		c.logf("cluster: job %s: persisting failed status: %v", job, err)
		return
	}
	c.srv.SyncJobStatus(job, updated)
	c.logf("cluster: job %s failed by its worker: %s", job, msg)
}

// sweep expires leases past their deadline and re-queues their jobs —
// the worker-death path. The expired token keeps fencing the (possibly
// still alive) old worker's writes.
func (c *Coordinator) sweep() {
	now := time.Now()
	c.mu.Lock()
	var expired []*lease
	for job, l := range c.leases {
		if now.After(l.deadline) {
			delete(c.leases, job)
			expired = append(expired, l)
		}
	}
	c.mu.Unlock()
	for _, l := range expired {
		c.logf("cluster: job %s: lease %s (worker %q) expired; re-queueing", l.job, l.token, l.worker)
		c.requeue(l.job)
	}
}

// handleHealth overrides the embedded server's health answer with the
// cluster view: queue pressure plus the live lease count.
func (c *Coordinator) handleHealth(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	leases := len(c.leases)
	c.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"status":         "ok",
		"role":           "coordinator",
		"queued":         c.queue.Depth(),
		"queue_capacity": c.queue.Cap(),
		"leases":         leases,
	})
}

// randHex returns n random bytes hex-encoded; lease tokens stay unique
// without it (the sequence number does that), it only makes them
// unguessable.
func randHex(n int) string {
	buf := make([]byte, n)
	if _, err := rand.Read(buf); err != nil {
		return "0"
	}
	return hex.EncodeToString(buf)
}
