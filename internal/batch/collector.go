package batch

import (
	"errors"
	"sync"
)

// ErrClosed is returned by Do calls issued after Close.
var ErrClosed = errors.New("batch: queue closed")

// errNilFlush guards NewCollector.
var errNilFlush = errors.New("batch: collector requires a flush function")

// QueueOptions configures a Collector.
type QueueOptions struct {
	// MaxBatch caps the requests one flush carries; 0 means no cap.
	MaxBatch int
}

// QueueStats are cumulative collector counters.
type QueueStats struct {
	// Enqueued is the number of Do calls accepted.
	Enqueued int64
	// Flushes is the number of FlushFunc calls made.
	Flushes int64
}

// MeanBatch returns accepted Do calls per flush, or 0 before any flush.
// Calls failed behind an all-error flush, without a flush of their own,
// count toward it.
func (s QueueStats) MeanBatch() float64 {
	if s.Flushes == 0 {
		return 0
	}
	return float64(s.Enqueued) / float64(s.Flushes)
}

// Outcome is one request's share of a batched flush: its result or its
// error. FlushFuncs return one Outcome per request so a partially-failing
// batch does not force every waiter to fail.
type Outcome[Res any] struct {
	Res Res
	Err error
}

// FlushFunc serves one gathered batch, returning outcomes parallel to
// reqs. A Collector never runs two of its flushes at once. If the
// returned slice is shorter than reqs, the missing waiters fail with
// ErrClosed; extra entries are ignored.
type FlushFunc[Req, Res any] func(reqs []Req) []Outcome[Res]

// Collector is group commit without a timer. A Do that finds no flush in
// flight flushes its request at once, as a batch of one. Do calls that
// arrive while a flush is in flight queue; when it returns, the first of
// them leads the next flush, which carries everything queued (up to
// MaxBatch). A batch therefore holds what arrived during one flush, and
// a lone caller waits on nothing but its own call. If every outcome of a
// flush is an error, the calls queued behind it get that error without
// another call, so none waits behind more than one failed flush.
//
// The collector starts no goroutine: each flush runs on the goroutine of
// the Do that leads it. The cluster router (internal/cluster) puts one
// in front of each node's batched HTTP retrieval. All methods are safe
// for concurrent use.
type Collector[Req, Res any] struct {
	flushFn  FlushFunc[Req, Res]
	maxBatch int

	mu     sync.Mutex
	idle   sync.Cond // broadcast when the flight chain ends
	busy   bool      // a flush is in flight
	queue  []collectorWaiter[Req, Res]
	closed bool
	stats  QueueStats
}

// collectorWaiter is one Do call. A queued one receives on ch either its
// outcome or the batch it is to lead.
type collectorWaiter[Req, Res any] struct {
	req Req
	ch  chan collectorMsg[Req, Res]
}

// collectorMsg answers a queued waiter: lead, when non-nil, is the next
// batch to flush, the receiver first; otherwise out is its outcome.
type collectorMsg[Req, Res any] struct {
	out  Outcome[Res]
	lead []collectorWaiter[Req, Res]
}

// NewCollector creates a collector that serves batches through flush.
func NewCollector[Req, Res any](flush FlushFunc[Req, Res], opts QueueOptions) (*Collector[Req, Res], error) {
	if flush == nil {
		return nil, errNilFlush
	}
	c := &Collector[Req, Res]{flushFn: flush, maxBatch: opts.MaxBatch}
	c.idle.L = &c.mu
	return c, nil
}

// Do submits the request and blocks until a flush has served it,
// returning this request's share of the batch outcome.
func (c *Collector[Req, Res]) Do(req Req) (Res, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		var zero Res
		return zero, ErrClosed
	}
	c.stats.Enqueued++
	var batch []collectorWaiter[Req, Res]
	if c.busy {
		w := collectorWaiter[Req, Res]{req: req, ch: make(chan collectorMsg[Req, Res], 1)}
		c.queue = append(c.queue, w)
		c.mu.Unlock()
		m := <-w.ch
		if m.lead == nil {
			return m.out.Res, m.out.Err
		}
		batch = m.lead
	} else {
		c.busy = true
		c.stats.Flushes++
		c.mu.Unlock()
		batch = []collectorWaiter[Req, Res]{{req: req}}
	}
	out := c.flush(batch)
	return out.Res, out.Err
}

// Close rejects subsequent Do calls with ErrClosed and returns once the
// calls already accepted have been served.
func (c *Collector[Req, Res]) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for c.busy {
		c.idle.Wait()
	}
	return nil
}

// Stats returns a snapshot of the cumulative counters.
func (c *Collector[Req, Res]) Stats() QueueStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// flush serves batch, whose first waiter is the calling leader, with one
// FlushFunc call and answers the others. It then passes the flight on to
// the first queued call, or, after an all-error flush, fails the queue
// with that error and ends the chain. It returns the leader's outcome.
func (c *Collector[Req, Res]) flush(batch []collectorWaiter[Req, Res]) Outcome[Res] {
	reqs := make([]Req, len(batch))
	for i, w := range batch {
		reqs[i] = w.req
	}
	outs := c.flushFn(reqs)

	var own Outcome[Res]
	var errs int
	for i, w := range batch {
		out := Outcome[Res]{Err: ErrClosed}
		if i < len(outs) {
			out = outs[i]
		}
		if out.Err != nil {
			errs++
		}
		if i == 0 {
			own = out
		} else {
			w.ch <- collectorMsg[Req, Res]{out: out}
		}
	}

	c.mu.Lock()
	var failed, next []collectorWaiter[Req, Res]
	if errs == len(batch) {
		failed, c.queue = c.queue, nil
	}
	if n := len(c.queue); n == 0 {
		c.busy = false
		c.idle.Broadcast()
	} else {
		if c.maxBatch > 0 && n > c.maxBatch {
			n = c.maxBatch
		}
		next, c.queue = c.queue[:n:n], c.queue[n:]
		c.stats.Flushes++
	}
	c.mu.Unlock()

	for _, w := range failed {
		w.ch <- collectorMsg[Req, Res]{out: Outcome[Res]{Err: own.Err}}
	}
	if next != nil {
		next[0].ch <- collectorMsg[Req, Res]{lead: next}
	}
	return own
}

// FanError is the FlushFunc helper for all-or-nothing backends: it
// spreads one error across every request of a batch.
func FanError[Res any](n int, err error) []Outcome[Res] {
	outs := make([]Outcome[Res], n)
	for i := range outs {
		outs[i].Err = err
	}
	return outs
}
