package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"time"

	"evoprot"
	"evoprot/internal/storage"
)

// Exported cancellation causes for externally driven runs (see Executor):
// cancelling a run context with ErrInterrupted leaves the job resumable
// in the store — the lease-expiry / worker-shutdown path — while
// ErrCancelled finalizes it as cancelled with its partial result kept,
// exactly like a client DELETE. ErrPreempted checkpoints the job and
// persists it queued so it can yield its worker to higher-priority work
// and later resume bit-identically.
var (
	ErrInterrupted = errShutdown
	ErrCancelled   = errCancelled
	ErrPreempted   = errPreempted
)

// engine is the execution half of the service: everything between
// claiming a queued job and persisting its terminal state, with no
// dependence on the HTTP layer, the queue, or the job table. The Server
// embeds one for its in-process worker pool; Executor wraps one so a
// cluster worker can run leased jobs through the identical code path.
type engine struct {
	st        *store
	ckptEvery int
	logf      func(format string, args ...any)
	// requeue, when non-nil, returns a just-preempted job to the local
	// queue. Nil on the Executor path: a cluster worker's preempted job
	// travels back through the coordinator's lease-release requeue
	// instead.
	requeue func(*job)
}

// claim moves a queued job to running; false means it was cancelled (or
// otherwise left the queued state) while waiting.
func (e *engine) claim(j *job) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.State != StateQueued {
		return false
	}
	j.status.State = StateRunning
	j.status.Started = time.Now().UTC()
	e.persistStatusLocked(j)
	return true
}

// persistStatusLocked writes j.status to the store; callers hold j.mu.
func (e *engine) persistStatusLocked(j *job) {
	count, _, _ := j.log.state()
	j.status.Events = count
	if err := e.st.saveJSON(j.id, statusKey, j.status); err != nil {
		e.logf("serve: job %s: persisting status: %v", j.id, err)
	}
}

// runJob executes one claimed job end to end under parent and routes the
// outcome: shutdown interruption keeps it resumable, everything else
// finalizes.
func (e *engine) runJob(parent context.Context, j *job) {
	ctx, cancel := context.WithCancelCause(parent)
	j.mu.Lock()
	j.cancel = cancel
	j.mu.Unlock()
	defer func() {
		cancel(nil)
		j.mu.Lock()
		j.cancel = nil
		j.mu.Unlock()
	}()

	res, runErr := e.executeJob(ctx, j)
	cause := context.Cause(ctx)
	switch {
	case runErr == nil:
		// A clean completion wins even when a shutdown, cancel or
		// preemption raced the last generation — the work is done, so
		// finalize it. Island-Done events held back by a racing preemption
		// belong in the feed after all; they arrive last in an uninterrupted
		// run too, so appending them here keeps the feed's order and its
		// seq-equals-line-index invariant.
		j.mu.Lock()
		held := j.heldDone
		j.heldDone = nil
		j.mu.Unlock()
		for _, ev := range held {
			e.onEvent(context.Background(), j, ev)
		}
		e.finalize(j, res, StateDone, "")
	case errors.Is(cause, errPreempted) && !j.clientCancelled():
		// Preempted by a higher-priority submission: the runner's final
		// checkpoint persisted the exact stopping point and the feed holds
		// no interruption artifacts (onEvent held the Done markers back), so
		// the eventual resume replays into a feed and result bit-identical
		// to a run that was never preempted. Hand the job straight back to
		// the queue at its own priority.
		j.mu.Lock()
		j.heldDone = nil
		j.status.State = StateQueued
		j.status.Resumes++
		j.status.Preemptions++
		e.persistStatusLocked(j)
		gen := j.status.Generation
		j.mu.Unlock()
		e.logf("serve: job %s preempted at generation %d, requeued", j.id, gen)
		if e.requeue != nil {
			e.requeue(j)
		}
	case errors.Is(cause, errShutdown) && !j.clientCancelled():
		// Interrupted, not over: the runner's final checkpoint write has
		// already persisted the exact stopping point. Record progress and
		// leave the state non-terminal so the next boot resumes it.
		j.mu.Lock()
		j.status.State = StateRunning
		e.persistStatusLocked(j)
		j.mu.Unlock()
		e.logf("serve: job %s interrupted at generation %d, resumable", j.id, j.status.Generation)
	case errors.Is(cause, errCancelled) || j.clientCancelled():
		// The second clause catches a DELETE racing a shutdown: the parent
		// context's errShutdown cause wins the context race, but the client
		// was told 202, so the cancellation must still be honoured. Keep
		// non-context failures visible (e.g. a failed final checkpoint
		// write joined onto the cancellation).
		errMsg := ""
		if errors.Is(runErr, evoprot.ErrCheckpoint) {
			errMsg = runErr.Error()
		}
		e.finalize(j, res, StateCancelled, errMsg)
	default:
		e.finalize(j, res, StateFailed, runErr.Error())
	}
}

// executeJob rebuilds the runner a job spec describes — resuming from the
// persisted checkpoint when one exists — and runs it under ctx.
func (e *engine) executeJob(ctx context.Context, j *job) (*evoprot.RunResult, error) {
	j.mu.Lock()
	spec := j.status.Spec
	j.mu.Unlock()

	orig, err := e.st.loadCSV(j.id, datasetFileName)
	if err != nil {
		return nil, fmt.Errorf("loading original dataset: %w", err)
	}
	opts, err := spec.Options()
	if err != nil {
		return nil, err
	}

	ckpt, ckptErr := e.st.be.Get(j.id, checkpointKey)
	if ckptErr != nil && !isNotExist(ckptErr) {
		return nil, fmt.Errorf("reading checkpoint: %w", ckptErr)
	}
	resumeFrom, ckptGen := 0, 0
	if ckptErr == nil {
		meta, err := evoprot.PeekCheckpoint(bytes.NewReader(ckpt))
		if err != nil {
			return nil, fmt.Errorf("reading checkpoint: %w", err)
		}
		ckptGen = meta.Generation
		// Budget from the laggard island: a checkpoint can hold islands at
		// unequal generations when some stopped before the others (a
		// smaller per-island budget; cancellation-point checkpoints align
		// the active islands), and the per-Run budget applies to every
		// island alike. Counting from the minimum guarantees no island
		// ends short of the spec's budget. Under early stopping the
		// laggard is usually a stagnated island that should NOT be topped
		// up — its stagnation window does not persist — so there the
		// leader's generation bounds the budget instead.
		if spec.EarlyStop > 0 {
			resumeFrom = meta.Generation
		} else {
			resumeFrom = meta.MinGeneration
		}
		e.healFeed(j, ckptGen)
	}

	count, _, _ := j.log.state()
	var runner *evoprot.Runner
	opts = append(opts,
		// Checkpoints route through the store, not a private file path —
		// Put's atomicity and durability replace the facade's tmp+rename.
		evoprot.WithCheckpointSink(func(snapshot []byte) error {
			if err := e.st.be.Put(j.id, checkpointKey, snapshot); err != nil {
				return err
			}
			e.writeFeedMark(j, runner.Generation())
			return nil
		}, e.ckptEvery),
		evoprot.WithFirstEventSeq(count),
		evoprot.WithProgress(func(ev evoprot.Event) { e.onEvent(ctx, j, ev) }),
	)
	remaining := spec.Budget() - resumeFrom
	if resumeFrom > 0 && remaining > 0 {
		// WithGenerations is the per-Run budget; a resumed runner gets only
		// what the interrupted run left. Appended last, it overrides the
		// spec's own generations option.
		opts = append(opts, evoprot.WithGenerations(remaining))
	}

	runner, err = evoprot.NewRunner(orig, spec.Attributes, opts...)
	if err != nil {
		return nil, err
	}
	if resumeFrom > 0 {
		if err := runner.Resume(bytes.NewReader(ckpt)); err != nil {
			return nil, fmt.Errorf("resuming checkpoint: %w", err)
		}
		e.logf("serve: job %s resuming at generation %d (%d remaining)", j.id, resumeFrom, remaining)
		if remaining <= 0 {
			// The crash happened after the final checkpoint but before
			// finalization: the work is complete, only the paperwork is
			// missing. Synthesize the result from the resumed state.
			return e.resultFromRunner(runner), nil
		}
	}
	return runner.Run(ctx)
}

// writeFeedMark records the event feed's position alongside a just-written
// checkpoint: with every event of a generation flushed before the sink
// runs at its quiescent barrier, the (events, bytes) pair is the feed
// prefix the snapshot accounts for. The marker is tagged with the
// snapshot's generation so a resume can tell whether the two documents
// belong together. The sink passes the runner's Generation, read at that
// barrier or after Run returns: the largest per-island generation, which
// is the Generation PeekCheckpoint would read back from the snapshot, so
// the marker costs no decode. Losing the marker only degrades a crash
// resume to the legacy at-least-once feed, so its write failure is
// non-fatal.
func (e *engine) writeFeedMark(j *job, generation int) {
	events, bytes := j.log.position()
	mark := ckptMeta{Events: events, Bytes: bytes, Generation: generation}
	if err := e.st.saveJSON(j.id, ckptMetaKey, mark); err != nil {
		e.logf("serve: job %s: persisting checkpoint feed marker: %v", j.id, err)
	}
}

// healFeed makes crash resumes exactly-once: if the checkpoint's feed
// marker matches the checkpoint about to be resumed, every event logged
// past the marker belongs to generations the resumed run will re-execute
// and re-emit, so the feed is rewound to the marker first. On a graceful
// interruption the final checkpoint's marker equals the feed's end and
// the rewind is a no-op; without a trustworthy marker (older data dirs, a
// crash between the two writes) the feed is left alone and delivery
// stays at-least-once, exactly as before.
func (e *engine) healFeed(j *job, ckptGen int) {
	var mark ckptMeta
	if err := e.st.loadJSON(j.id, ckptMetaKey, &mark); err != nil || mark.Generation != ckptGen {
		return
	}
	trimmed, err := j.log.rewindTo(mark.Events, mark.Bytes)
	if err != nil {
		e.logf("serve: job %s: rewinding event feed: %v", j.id, err)
		return
	}
	if trimmed > 0 {
		e.logf("serve: job %s: rewound %d uncheckpointed events; resume re-emits them exactly once", j.id, trimmed)
	}
}

// resultFromRunner builds a RunResult for a job whose budget was already
// exhausted when resumed (a crash landed between the final checkpoint and
// finalization). Only what the quiescent runner exposes is available:
// best individual, island count and the generation marker. Evaluation
// counts and per-island histories of the pre-crash legs are gone with
// the process, so each island's result is empty; the durable event log
// remains the trajectory of record.
func (e *engine) resultFromRunner(r *evoprot.Runner) *evoprot.RunResult {
	res := &evoprot.RunResult{
		Best:        r.Best(),
		Islands:     make([]*evoprot.Result, r.Islands()),
		Generations: r.Generation(),
		StopReason:  evoprot.StopCompleted,
	}
	for i := range res.Islands {
		res.Islands[i] = &evoprot.Result{}
	}
	return res
}

// onEvent is the runner's progress callback: append to the durable feed,
// fold the event into the live status, and persist the status every so
// often so a hard crash recovers a recent generation marker.
//
// Under a preemption the islands' Done events are held back instead of
// appended: the resumed run re-emits the same sequence numbers with its
// own trajectory, so writing the interruption's Done markers would make
// a preempted-then-resumed feed diverge from an unpreempted run's. The
// held events are dropped on the preempted exit path and appended after
// all when a clean completion wins the race (see runJob).
func (e *engine) onEvent(ctx context.Context, j *job, ev evoprot.Event) {
	if ev.Done && errors.Is(context.Cause(ctx), errPreempted) {
		j.mu.Lock()
		j.heldDone = append(j.heldDone, ev)
		j.mu.Unlock()
		return
	}
	if err := j.log.append(ev); err != nil {
		j.mu.Lock()
		if j.logErr == nil {
			j.logErr = err
			j.status.Error = fmt.Sprintf("event log: %v", err)
		}
		j.mu.Unlock()
		e.logf("serve: job %s: event log append: %v", j.id, err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if ev.Err != "" && j.status.Error == "" {
		j.status.Error = ev.Err // e.g. a failed mid-run checkpoint write
	}
	if ev.Island >= 0 {
		if ev.Stats.Gen > j.status.Generation {
			j.status.Generation = ev.Stats.Gen
		}
		// Judge island bests under the job's shared aggregation: islands
		// running per-island aggregators report Stats on their own scales,
		// and for homogeneous jobs the re-combination reproduces Stats.Min
		// bit for bit.
		if !ev.Done {
			score := j.agg.Combine(ev.Stats.BestIL, ev.Stats.BestDR)
			if j.status.Best == nil || score < j.status.Best.Score {
				j.status.Best = &BestSummary{
					Score:  score,
					IL:     ev.Stats.BestIL,
					DR:     ev.Stats.BestDR,
					Island: ev.Island,
				}
			}
		}
	}
	j.sincePers++
	if j.sincePers >= 64 {
		j.sincePers = 0
		e.persistStatusLocked(j)
	}
}

// finalFront picks the run's final non-dominated front for the result
// document: the best island's when it ran Pareto selection, otherwise the
// Pareto island with the largest final hypervolume (ties keep the lowest
// island index, so the choice is deterministic). Nil when no island ran
// Pareto selection. Fronts are read off the islands' final populations,
// not their last generations: migration after the final epoch can still
// change a population.
func finalFront(res *evoprot.RunResult) *evoprot.FrontStats {
	if res.BestIsland >= 0 && res.BestIsland < len(res.Islands) {
		if f := res.Islands[res.BestIsland].Front; f != nil {
			return f
		}
	}
	var best *evoprot.FrontStats
	for _, isl := range res.Islands {
		if f := isl.Front; f != nil && (best == nil || f.Hypervolume > best.Hypervolume) {
			best = f
		}
	}
	return best
}

// finalize records a terminal outcome: result.json and best.csv when a
// result exists, then the status flip and the feed close.
func (e *engine) finalize(j *job, res *evoprot.RunResult, state jobState, errMsg string) {
	var stop string
	if res != nil && res.Best != nil {
		stop = string(res.StopReason)
		snap := j.snapshotStatus()
		// res.Generations counts only the leg since the last resume; the
		// status tracks absolute generation numbers across restarts.
		generations := res.Generations
		if snap.Generation > generations {
			generations = snap.Generation
		}
		result := JobResult{
			ID:          j.id,
			State:       state,
			StopReason:  stop,
			Generations: generations,
			Evaluations: res.Evaluations,
			Migrations:  res.Migrations,
			Islands:     len(res.Islands),
			BestIsland:  res.BestIsland,
			Best: BestSummary{
				Score:  res.Best.Eval.Score,
				IL:     res.Best.Eval.IL,
				DR:     res.Best.Eval.DR,
				Island: res.BestIsland,
				Origin: res.Best.Origin,
			},
		}
		result.History = res.Islands[res.BestIsland].History
		if front := finalFront(res); front != nil {
			result.Front = front.Pairs
			result.FrontSize = front.Size
			result.Hypervolume = front.Hypervolume
		}
		if err := e.st.saveJSON(j.id, resultKey, result); err != nil {
			e.logf("serve: job %s: persisting result: %v", j.id, err)
		}
		if err := e.st.saveCSV(j.id, bestCSVKey, res.Best.Data); err != nil {
			e.logf("serve: job %s: persisting best dataset: %v", j.id, err)
		}
	}
	j.mu.Lock()
	j.status.State = state
	j.status.Finished = time.Now().UTC()
	j.status.StopReason = stop
	if errMsg != "" {
		j.status.Error = errMsg
	} else if state != StateFailed && j.logErr == nil {
		// The run outlived any transient mid-run warning (say, one failed
		// periodic checkpoint superseded by later writes); a terminal
		// success must not read like a failure.
		j.status.Error = ""
	}
	if res != nil && res.Best != nil {
		j.status.Best = &BestSummary{
			Score:  res.Best.Eval.Score,
			IL:     res.Best.Eval.IL,
			DR:     res.Best.Eval.DR,
			Island: res.BestIsland,
			Origin: res.Best.Origin,
		}
		if res.Generations > j.status.Generation {
			j.status.Generation = res.Generations
		}
	}
	e.persistStatusLocked(j)
	j.mu.Unlock()
	j.log.finish()
	e.logf("serve: job %s %s (stop: %s)", j.id, state, stop)
}

// Executor runs persisted jobs end to end over a Store: the execution
// half of the service decoupled from admission, HTTP and the worker
// pool. A cluster worker wraps one around a storage.Remote client so a
// leased job flows through byte-for-byte the code path the in-process
// pool uses — claim, checkpointed run, feed append, finalize — with the
// coordinator's store on the far side of the seam.
type Executor struct {
	eng *engine
}

// NewExecutor builds an Executor over be. checkpointEvery <= 0 selects
// DefaultCheckpointEvery; a nil logf discards log lines.
func NewExecutor(be storage.Store, checkpointEvery int, logf func(format string, args ...any)) *Executor {
	if checkpointEvery <= 0 {
		checkpointEvery = DefaultCheckpointEvery
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Executor{eng: &engine{st: &store{be: be}, ckptEvery: checkpointEvery, logf: logf}}
}

// Execute runs the persisted job id from its stored state to its next
// stopping point and returns the resulting status. A terminal job is
// returned untouched; a queued job is claimed, resumed from its
// checkpoint when one exists, and run under ctx. Cancelling ctx with
// cause ErrInterrupted leaves the job resumable (persisted running,
// checkpoint at the stopping point); ErrCancelled finalizes it as
// cancelled. The error reports infrastructure failures only — a run that
// fails on its own terms comes back as a StateFailed status and a nil
// error.
func (x *Executor) Execute(ctx context.Context, id string) (JobStatus, error) {
	var status JobStatus
	if err := x.eng.st.loadJSON(id, statusKey, &status); err != nil {
		return JobStatus{}, fmt.Errorf("serve: job %s: loading status: %w", id, err)
	}
	log, err := openEventLog(x.eng.st, id)
	if err != nil {
		return JobStatus{}, fmt.Errorf("serve: job %s: event log: %w", id, err)
	}
	j := &job{id: id, log: log, agg: jobAggregator(status.Spec), status: status}
	if status.State.Terminal() {
		log.finish()
		return j.snapshotStatus(), nil
	}
	if !x.eng.claim(j) {
		return j.snapshotStatus(), fmt.Errorf("serve: job %s is %s, not claimable", id, status.State)
	}
	x.eng.runJob(ctx, j)
	return j.snapshotStatus(), nil
}
