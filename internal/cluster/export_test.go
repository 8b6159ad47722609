package cluster

// expire force-expires job's lease right now — the sweep path on
// demand, which makes mid-run lease loss deterministic in the tests.
func (c *Coordinator) expire(job string) bool {
	c.mu.Lock()
	l, ok := c.leases[job]
	if ok {
		delete(c.leases, job)
	}
	c.mu.Unlock()
	if !ok {
		return false
	}
	c.logf("cluster: job %s: lease %s (worker %q) force-expired; re-queueing", job, l.token, l.worker)
	c.requeue(job)
	return true
}
