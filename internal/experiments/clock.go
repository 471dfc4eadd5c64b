package experiments

import (
	"sync"
	"time"
)

// nowNanos returns a monotonic nanosecond timestamp for micro-timing.
func nowNanos() int64 { return time.Now().UnixNano() }

// FakeClock is a manually-advanced clock satisfying batch.Clock. Timers
// created with After fire when Advance moves the clock past their
// deadline, so tests of timeout-driven code (the batch collector's flush
// timer) are deterministic: no sleeps, no scheduler races.
type FakeClock struct {
	mu     sync.Mutex
	cond   *sync.Cond
	now    time.Time
	timers []fakeTimer
}

type fakeTimer struct {
	at time.Time
	ch chan time.Time
}

// NewFakeClock creates a fake clock at an arbitrary fixed epoch.
func NewFakeClock() *FakeClock {
	c := &FakeClock{now: time.Unix(1_000_000, 0)}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Now returns the fake current time.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// After returns a channel that fires once the clock has been advanced by
// at least d. A non-positive d fires immediately.
func (c *FakeClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch := make(chan time.Time, 1)
	if d <= 0 {
		ch <- c.now
		return ch
	}
	c.timers = append(c.timers, fakeTimer{at: c.now.Add(d), ch: ch})
	c.cond.Broadcast()
	return ch
}

// Advance moves the clock forward, firing every timer whose deadline has
// been reached.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	remaining := c.timers[:0]
	for _, t := range c.timers {
		if !t.at.After(c.now) {
			t.ch <- c.now
		} else {
			remaining = append(remaining, t)
		}
	}
	c.timers = remaining
}

// Timers returns the number of pending timers.
func (c *FakeClock) Timers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.timers)
}

// BlockUntil waits until at least n timers are pending — the
// synchronization point tests use to know timeout-driven code has armed
// its timer before Advance fires it.
func (c *FakeClock) BlockUntil(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.timers) < n {
		c.cond.Wait()
	}
}
