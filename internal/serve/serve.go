// Package serve is the optimization job service behind cmd/evoprotd: an
// HTTP layer over the evoprot Runner that accepts JSON job specs, runs
// them on a bounded worker pool fed by a priority JobQueue, streams
// every run's per-generation events (replayable from any offset, as
// NDJSON or SSE), and persists enough — spec, dataset, status, event
// log, checkpoints — that a restarted server resumes in-flight jobs from
// their last migration snapshot instead of losing them.
//
// Persistence goes through the storage.Store seam: the filesystem store
// by default (byte-for-byte the historical data-dir layout), an
// in-memory store for tests and ephemeral deployments, or any other
// conforming backend via Config.Store. No handler or worker touches the
// filesystem directly.
//
// The service is multi-tenant under load: an optional Keyring puts the
// API behind per-tenant keys (jobs are invisible across tenants),
// token-bucket rate limits and active-job quotas answer per-tenant
// breaches with 429 without touching other tenants, job priorities
// preempt the lowest-priority running job through the crash-safe
// checkpoint/requeue/resume path (provably without changing its
// result), finished jobs' data is garbage-collected after a TTL, and
// each event-stream subscriber is bounded by a buffer + stall window so
// a stuck consumer cannot pin a feed reader. All of it is opt-in; the
// zero Config is the historical single-tenant open service.
//
// Restart semantics: stopping the server does not cancel jobs, it
// interrupts them. The runner's final checkpoint write on interruption
// persists the exact cancellation-point state, the job stays non-terminal
// in the store, and the next boot re-enqueues it with its remaining
// generation budget; a hard crash instead resumes from the last periodic
// checkpoint, bounding the loss to one checkpoint interval. Client
// cancellation (DELETE) is the terminal variant: the partial result is
// finalized and kept.
package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"evoprot"
	"evoprot/internal/storage"
)

// Defaults for Config's zero values.
const (
	DefaultWorkers         = 2
	DefaultQueueDepth      = 64
	DefaultCheckpointEvery = 25
	DefaultMaxRows         = 1 << 20
	// DefaultStreamBuffer is the per-subscriber event-stream buffer in
	// events: how far a consumer may fall behind the feed pump before the
	// stall clock starts against it.
	DefaultStreamBuffer = 256
	// DefaultStreamStall is how long a subscriber with a full buffer may
	// block before the server drops the connection (the feed is durable —
	// a dropped consumer reconnects at its offset and loses nothing).
	DefaultStreamStall = 30 * time.Second
)

// Config parameterizes a Server. Zero values select the defaults above.
type Config struct {
	// Store is the persistence backend, required: storage.NewFS(dir) for
	// the durable on-disk layout, storage.NewMem() for a throwaway server.
	Store storage.Store
	// Queue shares an existing admission queue (a cluster coordinator's,
	// drained by leases); nil selects a new one of depth QueueDepth.
	Queue *JobQueue
	// Workers bounds how many jobs evolve concurrently.
	Workers int
	// QueueDepth bounds how many accepted jobs may wait for a worker;
	// submissions beyond it are refused with 503. Ignored when Queue is
	// set — a shared queue brings its own bound.
	QueueDepth int
	// CheckpointEvery is the minimum generation distance between periodic
	// checkpoint writes — the most work a hard crash can lose.
	CheckpointEvery int
	// AllowDatasetPath permits specs naming server-side CSV paths. Off by
	// default: a network-reachable server should not read arbitrary local
	// files on request.
	AllowDatasetPath bool
	// MaxRows bounds a spec's built-in dataset scaling — admission
	// materializes the dataset synchronously, so an unbounded row count
	// would let one request allocate arbitrary memory.
	MaxRows int
	// Keyring enables API-key auth: every /v1 request must present a key
	// the ring resolves to a tenant id, jobs belong to the submitting
	// tenant, and one tenant never sees another's jobs. Nil keeps the
	// historical anonymous mode — no auth, one shared unlimited tenant.
	Keyring *Keyring
	// TenantRate rate-limits each tenant's submissions (token bucket, in
	// submissions per second); breaches answer 429 + Retry-After.
	// 0 disables rate limiting.
	TenantRate float64
	// TenantBurst is the rate limiter's bucket capacity; 0 derives it
	// from TenantRate (at least 1).
	TenantBurst int
	// TenantMaxActive caps one tenant's queued + running jobs; breaches
	// answer 429 + Retry-After. 0 disables the quota.
	TenantMaxActive int
	// TTL garbage-collects terminal jobs: once a job has been done,
	// cancelled or failed for longer than TTL, the GC sweep deletes its
	// whole data-dir entry through the storage seam and drops it from the
	// job table. 0 keeps jobs forever (the historical behavior).
	TTL time.Duration
	// GCEvery is the garbage-collection sweep interval; 0 selects TTL/4
	// (bounded below at one second). Ignored when TTL is 0.
	GCEvery time.Duration
	// StreamBuffer is the per-subscriber event-stream buffer in events;
	// 0 selects DefaultStreamBuffer.
	StreamBuffer int
	// StreamStall is how long a subscriber whose buffer is full may stall
	// the pump before being disconnected; 0 selects DefaultStreamStall.
	StreamStall time.Duration
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() (Config, error) {
	if c.Store == nil {
		return c, fmt.Errorf("serve: Config.Store is required")
	}
	if c.Workers <= 0 {
		c.Workers = DefaultWorkers
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = DefaultCheckpointEvery
	}
	if c.MaxRows <= 0 {
		c.MaxRows = DefaultMaxRows
	}
	if c.StreamBuffer <= 0 {
		c.StreamBuffer = DefaultStreamBuffer
	}
	if c.StreamStall <= 0 {
		c.StreamStall = DefaultStreamStall
	}
	if c.TTL > 0 && c.GCEvery <= 0 {
		c.GCEvery = c.TTL / 4
		if c.GCEvery < time.Second {
			c.GCEvery = time.Second
		}
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c, nil
}

// isNotExist reports whether err means the store has no such key.
func isNotExist(err error) bool { return errors.Is(err, storage.ErrNotExist) }

// Cancellation causes, distinguished through context.Cause: a shutdown
// leaves the job resumable in the store, a client cancel finalizes it,
// and a preemption checkpoints the job back onto the queue so a
// higher-priority submission can take its worker.
var (
	errShutdown  = errors.New("serve: server shutting down")
	errCancelled = errors.New("serve: job cancelled by client")
	errPreempted = errors.New("serve: job preempted by a higher-priority submission")
)

// job is the in-memory face of one persisted job.
type job struct {
	id  string
	log *eventLog
	agg evoprot.Aggregator // the job's shared fitness aggregation (see jobAggregator)

	mu           sync.Mutex
	status       JobStatus
	cancel       context.CancelCauseFunc // non-nil while a worker runs it
	clientCancel bool                    // DELETE arrived; wins over shutdown races
	sincePers    int                     // events since the last status persist
	logErr       error                   // first event-log append failure
	heldDone     []evoprot.Event         // island-Done events held back under a preemption (see onEvent)
}

// priority returns the job's submission priority.
func (j *job) priority() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status.Spec.Priority
}

// jobAggregator resolves the job's shared fitness aggregation — the
// metric live best-so-far tracking judges island bests under. Islands
// with per-island aggregator overrides emit Stats scored on their own
// scales, so comparing raw Min values across islands would mix scales;
// re-combining each island best's (IL, DR) pair under the job's own
// aggregator keeps the live status consistent with the final result
// (which islands.Runner judges the same way). The spec was validated at
// admission; an unresolvable name cannot reach here, and the fallback
// only guards recovery of a hand-corrupted status file.
func jobAggregator(spec evoprot.JobSpec) evoprot.Aggregator {
	name := spec.Aggregator
	if name == "" {
		name = evoprot.DefaultAggregatorName
	}
	agg, err := evoprot.AggregatorByName(name)
	if err != nil {
		return evoprot.Max{}
	}
	return agg
}

// clientCancelled reports whether a DELETE was received for the job.
func (j *job) clientCancelled() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.clientCancel
}

// snapshotStatus returns a copy of the current status with the live event
// count folded in.
func (j *job) snapshotStatus() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := j.status
	count, _, _ := j.log.state()
	st.Events = count
	return st
}

// Server owns the job table, the queue and the worker pool. Build with
// New (which also recovers persisted jobs), install Handler somewhere,
// call Start, and Stop on the way out. The embedded engine is the
// execution half — shared, via Executor, with cluster workers.
type Server struct {
	*engine
	cfg     Config
	queue   *JobQueue
	limiter *tenantLimiter

	ctx      context.Context
	shutdown context.CancelCauseFunc
	wg       sync.WaitGroup

	// stopping is closed when Stop begins so event streamers of
	// in-flight jobs unblock promptly (their logs never finish on the
	// shutdown path — the jobs stay resumable).
	stopping chan struct{}
	stopOnce sync.Once

	mu   sync.Mutex
	jobs map[string]*job
}

// New builds a server over the configured store and recovers every
// persisted job: terminal jobs become queryable history, non-terminal
// ones are re-enqueued (oldest first) to resume from their last
// checkpoint.
func New(cfg Config) (*Server, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	queue := c.Queue
	if queue == nil {
		queue = NewFIFOQueue(c.QueueDepth)
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	s := &Server{
		engine:   &engine{st: &store{be: c.Store}, ckptEvery: c.CheckpointEvery, logf: c.Logf},
		cfg:      c,
		queue:    queue,
		limiter:  newTenantLimiter(c.TenantRate, c.TenantBurst),
		ctx:      ctx,
		shutdown: cancel,
		stopping: make(chan struct{}),
		jobs:     make(map[string]*job),
	}
	// A preempted job's worker hands it straight back to the queue at its
	// own priority; the higher-priority submission that displaced it pops
	// first.
	s.engine.requeue = func(j *job) {
		if !s.queue.ForcePush(j.id, j.priority()) {
			s.cfg.Logf("serve: job %s: queue refused preemption requeue (closed)", j.id)
		}
	}
	if err := s.recover(); err != nil {
		cancel(errShutdown)
		return nil, err
	}
	return s, nil
}

// recover loads persisted jobs and re-enqueues unfinished work. A job
// whose status document is unreadable or corrupt is skipped — logged,
// left in the store for the operator — without taking down its
// neighbors or the boot.
func (s *Server) recover() error {
	ids, err := s.st.listJobIDs()
	if err != nil {
		return err
	}
	var pending []*job
	for _, id := range ids {
		var status JobStatus
		if err := s.st.loadJSON(id, statusKey, &status); err != nil {
			s.cfg.Logf("serve: skipping job %s: unreadable status: %v", id, err)
			continue
		}
		log, err := openEventLog(s.st, id)
		if err != nil {
			s.cfg.Logf("serve: skipping job %s: event log: %v", id, err)
			continue
		}
		j := &job{id: id, log: log, agg: jobAggregator(status.Spec), status: status}
		if status.State.Terminal() {
			log.finish()
		} else {
			// Interrupted mid-run or never started: back to the queue. The
			// persisted state becomes queued so clients see the truth while
			// it waits for a worker.
			if status.State == StateRunning {
				j.status.Resumes++
			}
			j.status.State = StateQueued
			if err := s.st.saveJSON(id, statusKey, j.status); err != nil {
				s.cfg.Logf("serve: job %s: persisting recovered status: %v", id, err)
			}
			pending = append(pending, j)
		}
		s.jobs[id] = j
	}
	sort.Slice(pending, func(a, b int) bool {
		return pending[a].status.Created.Before(pending[b].status.Created)
	})
	for _, j := range pending {
		s.queue.ForcePush(j.id, j.status.Spec.Priority)
		s.cfg.Logf("serve: recovered job %s at generation %d", j.id, j.status.Generation)
	}
	return nil
}

// Start launches the worker pool and, when a TTL is configured, the
// garbage collector.
func (s *Server) Start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if s.cfg.TTL > 0 {
		s.wg.Add(1)
		go s.gcLoop()
	}
}

// gcLoop sweeps expired terminal jobs every GCEvery until shutdown.
func (s *Server) gcLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.GCEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stopping:
			return
		case <-t.C:
			s.gcSweep(time.Now())
		}
	}
}

// gcSweep deletes every terminal job whose Finished timestamp is more
// than TTL in the past: the store entry goes first (through the seam —
// checkpoint, feed, result, dataset, all of it), then the job leaves the
// in-memory table. A failed delete leaves the job listed so the next
// sweep retries it.
func (s *Server) gcSweep(now time.Time) (collected int) {
	cutoff := now.Add(-s.cfg.TTL)
	type victim struct {
		id       string
		state    jobState
		finished time.Time
	}
	s.mu.Lock()
	var expired []victim
	for _, j := range s.jobs {
		j.mu.Lock()
		if j.status.State.Terminal() && !j.status.Finished.IsZero() && j.status.Finished.Before(cutoff) {
			expired = append(expired, victim{id: j.id, state: j.status.State, finished: j.status.Finished})
		}
		j.mu.Unlock()
	}
	s.mu.Unlock()
	for _, v := range expired {
		if err := s.st.be.Delete(v.id); err != nil {
			s.cfg.Logf("serve: job %s: gc delete: %v", v.id, err)
			continue
		}
		s.mu.Lock()
		delete(s.jobs, v.id)
		s.mu.Unlock()
		collected++
		s.cfg.Logf("serve: job %s garbage-collected (%s, finished %s ago)",
			v.id, v.state, now.Sub(v.finished).Round(time.Second))
	}
	return collected
}

// Stop interrupts running jobs (leaving them resumable in the store),
// unblocks event streamers, stops the workers, and waits for them up to
// ctx's deadline.
func (s *Server) Stop(ctx context.Context) error {
	s.stopOnce.Do(func() { close(s.stopping) })
	s.queue.Close()
	s.shutdown(errShutdown)
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: workers still draining: %w", ctx.Err())
	}
}

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		id, _, ok := s.queue.Pop(s.ctx)
		if !ok {
			return
		}
		j := s.job(id)
		if j == nil || !s.claim(j) {
			continue // cancelled while queued, or gone
		}
		s.runJob(s.ctx, j)
	}
}

// job returns the in-memory job for id, nil when unknown.
func (s *Server) job(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// listJobs returns status snapshots of every job, newest first.
func (s *Server) listJobs() []JobStatus {
	s.mu.Lock()
	all := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		all = append(all, j)
	}
	s.mu.Unlock()
	out := make([]JobStatus, len(all))
	for i, j := range all {
		out[i] = j.snapshotStatus()
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Created.After(out[b].Created) })
	return out
}

// specDatasetPath is the DatasetPath recorded in a persisted spec whose
// dataset was materialized into the store at admission. On path-backed
// stores it is the dataset's real absolute path — the historical format,
// valid for clients that round-trip the spec. Stores without paths get a
// synthetic "mem:<job>/dataset.csv" marker: execution always reloads the
// dataset from the store by key, so the marker only has to keep the spec
// a valid one-source spec, never to resolve.
func (s *Server) specDatasetPath(id string) string {
	if p, ok := s.st.be.(storage.Pather); ok {
		return p.Path(id, datasetFileName)
	}
	return "mem:" + id + "/" + datasetFileName
}

// tenantActive counts tenant's queued + running jobs — the quota the
// TenantMaxActive cap is enforced against.
func (s *Server) tenantActive(tenant string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	active := 0
	for _, j := range s.jobs {
		j.mu.Lock()
		if j.status.Tenant == tenant && !j.status.State.Terminal() {
			active++
		}
		j.mu.Unlock()
	}
	return active
}

// maybePreempt checkpoints and requeues the lowest-priority running job
// when a priority-pri submission would otherwise wait behind a full
// worker pool. The victim's cancellation cause routes it through the
// crash-safe resume machinery — final checkpoint, persisted queued,
// ForcePush at its own priority — so its eventual completion is
// bit-identical to a run that was never preempted. Nothing happens when
// a worker is idle or no running job ranks strictly below pri. Among
// equally low jobs the most recently started one goes, then the greatest
// id, as the cluster preempts the newest lease: the one that has done the
// least work since it last started.
func (s *Server) maybePreempt(pri int) {
	var (
		victim        *job
		victimPri     int
		victimStarted time.Time
		running       int
	)
	s.mu.Lock()
	for _, j := range s.jobs {
		j.mu.Lock()
		if j.status.State == StateRunning && j.cancel != nil {
			running++
			p, started := j.status.Spec.Priority, j.status.Started
			if victim == nil || p < victimPri || p == victimPri &&
				(started.After(victimStarted) || started.Equal(victimStarted) && j.id > victim.id) {
				victim, victimPri, victimStarted = j, p, started
			}
		}
		j.mu.Unlock()
	}
	s.mu.Unlock()
	if running < s.cfg.Workers || victim == nil || victimPri >= pri {
		return
	}
	victim.mu.Lock()
	cancel := victim.cancel
	victim.mu.Unlock()
	if cancel != nil {
		s.cfg.Logf("serve: preempting job %s (priority %d) for a priority-%d submission", victim.id, victimPri, pri)
		cancel(errPreempted)
	}
}

// submit persists and enqueues a validated spec whose dataset has already
// been materialized; it returns the new job's status snapshot. tenant is
// the authenticated submitter ("" in anonymous mode) — rate and quota
// checks already passed in the handler.
func (s *Server) submit(tenant string, spec evoprot.JobSpec, orig *evoprot.Dataset) (JobStatus, error) {
	id, err := newJobID()
	if err != nil {
		return JobStatus{}, err
	}
	cleanup := func() {
		if err := s.st.be.Delete(id); err != nil {
			s.cfg.Logf("serve: job %s: cleaning up refused submission: %v", id, err)
		}
	}
	// The dataset is persisted once at admission and runs/resumes always
	// reload it from the store, so an inline upload need not travel in the
	// spec. The persisted spec points at the stored dataset instead, so it
	// stays a valid one-source spec when execution installs it on a Runner
	// and names the true dataset even if a client round-trips it.
	if spec.DatasetCSV != "" || spec.DatasetPath != "" {
		spec.DatasetCSV = ""
		spec.DatasetPath = s.specDatasetPath(id)
	}
	if err := s.st.saveCSV(id, datasetFileName, orig); err != nil {
		cleanup()
		return JobStatus{}, err
	}
	log, err := openEventLog(s.st, id)
	if err != nil {
		cleanup()
		return JobStatus{}, err
	}
	j := &job{
		id:  id,
		log: log,
		agg: jobAggregator(spec),
		status: JobStatus{
			ID:      id,
			State:   StateQueued,
			Spec:    spec,
			Created: time.Now().UTC(),
			Tenant:  tenant,
		},
	}
	if err := s.st.saveJSON(id, statusKey, j.status); err != nil {
		log.finish()
		cleanup()
		return JobStatus{}, err
	}
	s.mu.Lock()
	s.jobs[id] = j
	s.mu.Unlock()
	if !s.queue.Push(id, spec.Priority) {
		s.mu.Lock()
		delete(s.jobs, id)
		s.mu.Unlock()
		log.finish()
		cleanup()
		return JobStatus{}, errQueueFull
	}
	if spec.Priority > 0 {
		s.maybePreempt(spec.Priority)
	}
	s.cfg.Logf("serve: job %s accepted (queue depth %d)", id, s.queue.Depth())
	return j.snapshotStatus(), nil
}

var errQueueFull = errors.New("serve: job queue is full")

// cancelJob handles DELETE: queued jobs finalize immediately, running
// jobs get their context cancelled (the worker finalizes with the partial
// result), terminal jobs are left alone.
func (s *Server) cancelJob(j *job) JobStatus {
	j.mu.Lock()
	switch j.status.State {
	case StateQueued:
		j.status.State = StateCancelled
		j.status.Finished = time.Now().UTC()
		s.persistStatusLocked(j)
		j.mu.Unlock()
		j.log.finish()
		return j.snapshotStatus()
	case StateRunning:
		// The flag, not just the context cause, records the intent: a
		// DELETE racing a server shutdown must still finalize the job as
		// cancelled (the client was told 202) rather than leave it
		// resumable.
		j.clientCancel = true
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel(errCancelled)
		}
		return j.snapshotStatus()
	default:
		j.mu.Unlock()
		return j.snapshotStatus()
	}
}

// newJobID returns a 16-hex-digit random job id.
func newJobID() (string, error) {
	var buf [8]byte
	if _, err := rand.Read(buf[:]); err != nil {
		return "", err
	}
	return "j" + hex.EncodeToString(buf[:]), nil
}
