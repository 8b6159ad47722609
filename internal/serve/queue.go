package serve

import "sync"

// JobQueue is the admission queue between the HTTP layer and the
// workers: a bounded in-memory priority queue, FIFO within each priority
// (and plain FIFO when every submission uses the default priority 0).
// Submissions enter through Push under the admission bound, recovery and
// requeues through ForcePush; the in-process worker pool drains it
// through the blocking Pop, a cluster coordinator's lease endpoint
// through the non-blocking TryPop. A coordinator shares its queue with
// its serve.Server through Config.Queue.
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
//   - Pop blocks until an item arrives or the queue closes; ok reports
//     whether an item was delivered. Close wins over queued items, so
//     workers exit promptly on shutdown.
//   - TryPop is Pop without blocking, reporting the item's priority.
//   - Close wakes every blocked Pop and refuses further pushes; Closed
//     reports whether it was called.
//   - Depth reports how many ids are queued right now; Cap the admission
//     bound Push enforces. Depth may exceed Cap while a recovered
//     (ForcePushed) backlog drains.
//   - MaxPriority reports the highest priority currently queued, false
//     when the queue is empty — the probe a preemption policy compares
//     running work against.
type JobQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []qitem // sorted: priority descending, arrival order within
	bound  int
	closed bool
}

// qitem is one queued id with its priority.
type qitem struct {
	id  string
	pri int
}

// NewFIFOQueue builds a queue admitting at most bound queued jobs at a
// time through Push.
func NewFIFOQueue(bound int) *JobQueue {
	q := &JobQueue{bound: bound}
	q.cond = sync.NewCond(&q.mu)
	return q
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
	q.cond.Signal()
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
	q.cond.Signal()
	return true
}

// Pop blocks until an item arrives or the queue closes; ok reports
// whether an item was delivered. Close wins over queued items: workers
// exit promptly on shutdown and whatever remains is re-enqueued from the
// store on the next boot.
func (q *JobQueue) Pop() (id string, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.closed {
		return "", false
	}
	id = q.items[0].id
	q.items = q.items[1:]
	return id, true
}

// TryPop pops the highest-priority head without blocking, reporting its
// priority alongside; false when empty or closed.
func (q *JobQueue) TryPop() (id string, pri int, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || len(q.items) == 0 {
		return "", 0, false
	}
	it := q.items[0]
	q.items = q.items[1:]
	return it.id, it.pri, true
}

// Close wakes every blocked Pop and refuses further pushes.
func (q *JobQueue) Close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// Closed reports whether Close has been called.
func (q *JobQueue) Closed() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closed
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
