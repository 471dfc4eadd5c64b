package batch

// Inflight returns the number of searches currently in flight.
func (c *Coalescer) Inflight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.inflight)
}

// Pending returns the current batch occupancy.
func (c *Collector[Req, Res]) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}
