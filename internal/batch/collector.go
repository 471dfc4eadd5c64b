package batch

import (
	"errors"
	"sync"
	"time"
)

// ErrClosed is returned by Do calls issued after Close.
var ErrClosed = errors.New("batch: queue closed")

// errNilFlush guards NewCollector.
var errNilFlush = errors.New("batch: collector requires a flush function")

// DefaultMaxBatch is the flush size when QueueOptions.MaxBatch is zero.
const DefaultMaxBatch = 16

// DefaultTimeout is the flush deadline when QueueOptions.Timeout is zero:
// long enough for a concurrent burst to gather, short enough to be
// invisible next to a remote retrieval.
const DefaultTimeout = 200 * time.Microsecond

// QueueOptions configures a Collector.
type QueueOptions struct {
	// MaxBatch flushes the pending batch as soon as it reaches this
	// size. Defaults to DefaultMaxBatch.
	MaxBatch int
	// Timeout flushes whatever has gathered once this much time has
	// passed since the first request of the batch arrived. Defaults to
	// DefaultTimeout.
	Timeout time.Duration
	// Clock supplies the flush timer. Defaults to SystemClock.
	Clock Clock
}

func (o *QueueOptions) fillDefaults() {
	if o.MaxBatch <= 0 {
		o.MaxBatch = DefaultMaxBatch
	}
	if o.Timeout <= 0 {
		o.Timeout = DefaultTimeout
	}
	if o.Clock == nil {
		o.Clock = SystemClock{}
	}
}

// QueueStats are cumulative collector counters.
type QueueStats struct {
	// Enqueued is the number of Do calls accepted.
	Enqueued int64
	// Flushes is the number of batch flushes issued.
	Flushes int64
	// SizeFlushes counts flushes triggered by reaching MaxBatch.
	SizeFlushes int64
	// TimeoutFlushes counts flushes triggered by the batch timer.
	TimeoutFlushes int64
	// DrainFlushes counts flushes forced by Close or FlushNow.
	DrainFlushes int64
	// Errors counts Do calls that returned an error outcome.
	Errors int64
}

// MeanBatch returns the average flush size, or 0 before any flush.
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
// reqs. It is called outside the collector's lock, possibly from several
// goroutines at once (a size-triggered flush can overlap a timer flush of
// the next batch), so it must be safe for concurrent use. If the returned
// slice is shorter than reqs, the missing waiters fail with ErrClosed;
// extra entries are ignored.
type FlushFunc[Req, Res any] func(reqs []Req) []Outcome[Res]

// Collector is a generic gather/flush engine: concurrent Do calls gather
// until the batch reaches MaxBatch or Timeout elapses after its first
// request, then the whole batch is handed to one FlushFunc call. The
// cluster router (internal/cluster) specializes it to per-node batched
// HTTP retrievals. All methods are safe for concurrent use.
type Collector[Req, Res any] struct {
	flushFn FlushFunc[Req, Res]
	opts    QueueOptions

	mu      sync.Mutex
	pending []collectorWaiter[Req, Res]
	gen     uint64 // bumped on every flush; stale timers check it
	closed  bool
	stats   QueueStats
}

// collectorWaiter is one pending Do call.
type collectorWaiter[Req, Res any] struct {
	req Req
	ch  chan Outcome[Res]
}

// NewCollector creates a collector that serves gathered batches through
// flush.
func NewCollector[Req, Res any](flush FlushFunc[Req, Res], opts QueueOptions) (*Collector[Req, Res], error) {
	if flush == nil {
		return nil, errNilFlush
	}
	opts.fillDefaults()
	return &Collector[Req, Res]{flushFn: flush, opts: opts}, nil
}

// Do enqueues the request and blocks until its batch is flushed,
// returning this request's share of the batch outcome.
func (c *Collector[Req, Res]) Do(req Req) (Res, error) {
	ch := make(chan Outcome[Res], 1)
	w := collectorWaiter[Req, Res]{req: req, ch: ch}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		var zero Res
		return zero, ErrClosed
	}
	c.pending = append(c.pending, w)
	c.stats.Enqueued++
	switch {
	case len(c.pending) >= c.opts.MaxBatch:
		ws := c.take()
		c.stats.SizeFlushes++
		c.mu.Unlock()
		c.flush(ws)
	case len(c.pending) == 1:
		// First request of a fresh batch: arm its flush timer.
		gen := c.gen
		timer := c.opts.Clock.After(c.opts.Timeout)
		c.mu.Unlock()
		go c.awaitTimer(gen, timer)
	default:
		c.mu.Unlock()
	}

	out := <-ch
	return out.Res, out.Err
}

// Close drains the pending batch and rejects subsequent Do calls with
// ErrClosed. Waiters of the drained batch receive their results.
func (c *Collector[Req, Res]) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	ws := c.take()
	if len(ws) > 0 {
		c.stats.DrainFlushes++
	}
	c.mu.Unlock()
	if len(ws) > 0 {
		c.flush(ws)
	}
	return nil
}

// FlushNow flushes whatever has gathered without waiting for the size or
// timeout trigger (counted as a drain flush). The collector stays open.
func (c *Collector[Req, Res]) FlushNow() {
	c.mu.Lock()
	ws := c.take()
	if len(ws) > 0 {
		c.stats.DrainFlushes++
	}
	c.mu.Unlock()
	if len(ws) > 0 {
		c.flush(ws)
	}
}

// Stats returns a snapshot of the cumulative counters.
func (c *Collector[Req, Res]) Stats() QueueStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// ResetStats zeroes the cumulative counters (pending requests are
// unaffected and flush normally).
func (c *Collector[Req, Res]) ResetStats() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats = QueueStats{}
}

// Pending returns the current batch occupancy, for diagnostics and tests.
func (c *Collector[Req, Res]) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// take removes the pending batch and invalidates its timer, counting the
// flush in the same critical section as the caller's trigger counter so
// Stats snapshots always see the trigger breakdown sum to Flushes.
// Callers hold c.mu.
func (c *Collector[Req, Res]) take() []collectorWaiter[Req, Res] {
	ws := c.pending
	c.pending = nil
	c.gen++
	if len(ws) > 0 {
		c.stats.Flushes++
	}
	return ws
}

// awaitTimer flushes the batch of generation gen when its timer fires; if
// that batch already flushed (by size, FlushNow, or drain), the
// generation moved on and the timer is stale.
func (c *Collector[Req, Res]) awaitTimer(gen uint64, timer <-chan time.Time) {
	<-timer
	c.mu.Lock()
	if c.gen != gen || len(c.pending) == 0 {
		c.mu.Unlock()
		return
	}
	ws := c.take()
	c.stats.TimeoutFlushes++
	c.mu.Unlock()
	c.flush(ws)
}

// flush hands one gathered batch to the FlushFunc and fans each outcome
// out to its waiter, counting errors.
func (c *Collector[Req, Res]) flush(ws []collectorWaiter[Req, Res]) {
	reqs := make([]Req, len(ws))
	for i, w := range ws {
		reqs[i] = w.req
	}
	outs := c.flushFn(reqs)

	var errs int64
	for i, w := range ws {
		out := Outcome[Res]{Err: ErrClosed}
		if i < len(outs) {
			out = outs[i]
		}
		if out.Err != nil {
			errs++
		}
		w.ch <- out
	}
	if errs > 0 {
		c.mu.Lock()
		c.stats.Errors += errs
		c.mu.Unlock()
	}
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
