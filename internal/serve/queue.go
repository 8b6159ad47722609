package serve

import (
	"context"
	"sync"
)

// JobQueue is the admission queue between the HTTP layer and the
// workers: a bounded in-memory priority queue, FIFO within each priority
// (and plain FIFO when every submission uses the default priority 0).
// Submissions enter through Push under the admission bound, recovery and
// requeues through ForcePush; the in-process worker pool and a cluster
// coordinator's lease endpoint both drain it through Pop. A coordinator
// shares its queue with its serve.Server through Config.Queue.
//
// The contract:
//
//   - Push admits id at priority pri (higher pops first, FIFO within a
//     priority), or reports false when the queue refuses it (full or
//     closed) — the HTTP layer's 503.
//   - ForcePush enqueues id regardless of the admission bound, so a
//     restarted server never strands persisted jobs behind its own
//     admission control. Force-pushed work still occupies queue
//     capacity: while a recovered backlog keeps the queue at or over
//     its bound, Push keeps refusing new submissions until workers
//     drain it back under. False only after Close. Preempted jobs
//     return through ForcePush too — they already passed admission
//     once.
//   - Pop blocks until an item arrives, the queue closes or its context
//     is done; ok reports whether an item was delivered. Close wins over
//     queued items, so workers exit promptly on shutdown.
//   - Close wakes every blocked Pop and refuses further pushes.
//   - Depth reports how many ids are queued right now; Cap the admission
//     bound Push enforces. Depth may exceed Cap while a recovered
//     (ForcePushed) backlog drains.
//   - MaxPriority reports the highest priority currently queued, false
//     when the queue is empty — the probe a preemption policy compares
//     running work against.
type JobQueue struct {
	mu     sync.Mutex
	items  []qitem // sorted: priority descending, arrival order within
	bound  int
	closed bool
	// wake is closed, and replaced, by every push and by Close: each
	// Pop parked on it rechecks the queue.
	wake chan struct{}
}

// qitem is one queued id with its priority.
type qitem struct {
	id  string
	pri int
}

// NewFIFOQueue builds a queue admitting at most bound queued jobs at a
// time through Push.
func NewFIFOQueue(bound int) *JobQueue {
	return &JobQueue{bound: bound, wake: make(chan struct{})}
}

// insert places it behind every queued item of equal or higher priority —
// the slice stays sorted by (priority desc, arrival asc). Callers hold mu.
func insert(items []qitem, it qitem) []qitem {
	i := len(items)
	for i > 0 && items[i-1].pri < it.pri {
		i--
	}
	items = append(items, qitem{})
	copy(items[i+1:], items[i:])
	items[i] = it
	return items
}

// Push admits id at priority pri; it reports false when the queue is
// full or closed. Recovered jobs enqueued by ForcePush count toward the
// fullness check: admission control sees the true backlog, not just the
// part of it that arrived over HTTP.
func (q *JobQueue) Push(id string, pri int) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || len(q.items) >= q.bound {
		return false
	}
	q.items = insert(q.items, qitem{id: id, pri: pri})
	q.wakeAll()
	return true
}

// ForcePush enqueues id at priority pri regardless of the bound — the
// recovery and preemption-requeue path. Still refused after Close.
func (q *JobQueue) ForcePush(id string, pri int) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	q.items = insert(q.items, qitem{id: id, pri: pri})
	q.wakeAll()
	return true
}

// wakeAll wakes every parked Pop. Callers hold mu.
func (q *JobQueue) wakeAll() {
	close(q.wake)
	q.wake = make(chan struct{})
}

// Pop blocks until an item arrives, the queue closes or ctx is done,
// and delivers the highest-priority head with its priority; ok reports
// whether an item was delivered. Close wins over queued items: workers
// exit promptly on shutdown and whatever remains is re-enqueued from the
// store on the next boot.
func (q *JobQueue) Pop(ctx context.Context) (id string, pri int, ok bool) {
	for {
		q.mu.Lock()
		if q.closed {
			q.mu.Unlock()
			return "", 0, false
		}
		if len(q.items) > 0 {
			it := q.items[0]
			q.items = q.items[1:]
			q.mu.Unlock()
			return it.id, it.pri, true
		}
		wake := q.wake
		q.mu.Unlock()
		select {
		case <-wake:
		case <-ctx.Done():
			return "", 0, false
		}
	}
}

// Close wakes every blocked Pop and refuses further pushes.
func (q *JobQueue) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.closed {
		q.closed = true
		q.wakeAll()
	}
}

// Depth returns the number of queued ids.
func (q *JobQueue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// Cap returns the admission bound.
func (q *JobQueue) Cap() int { return q.bound }

// MaxPriority returns the highest queued priority; false when empty.
func (q *JobQueue) MaxPriority() (int, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.items) == 0 {
		return 0, false
	}
	return q.items[0].pri, true
}
