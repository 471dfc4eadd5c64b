package batch

// Inflight returns the number of searches currently in flight.
func (c *Coalescer) Inflight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.inflight)
}

// Pending returns the number of calls queued behind the flight.
func (c *Collector[Req, Res]) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.queue)
}
