package batch_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"proximity/internal/batch"
)

// double serves a batch by doubling each request.
func double(reqs []int) []batch.Outcome[int] {
	outs := make([]batch.Outcome[int], len(reqs))
	for i, r := range reqs {
		outs[i].Res = 2 * r
	}
	return outs
}

// waitPending polls until the collector holds n pending requests.
func waitPending(t *testing.T, c *batch.Collector[int, int], n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if c.Pending() == n {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
	t.Fatalf("collector never reached %d pending (have %d)", n, c.Pending())
}

// TestQueueFlushSemantics drives every collector flush trigger
// deterministically on the fake clock: size flushes need no time to
// pass, timeout flushes fire only when the clock is advanced, Close
// drains what gathered, and an all-or-nothing backend error (FanError)
// reaches every waiter of the flush.
func TestQueueFlushSemantics(t *testing.T) {
	errBackend := errors.New("backend down")
	cases := []struct {
		name     string
		maxBatch int
		requests int
		action   string // "", "advance", or "close"
		fail     bool

		wantFlushes int64
		wantSize    int64
		wantTimeout int64
		wantDrain   int64
	}{
		{name: "flush on size", maxBatch: 4, requests: 4, wantFlushes: 1, wantSize: 1},
		{name: "flush on timeout", maxBatch: 16, requests: 2, action: "advance", wantFlushes: 1, wantTimeout: 1},
		{name: "timeout flush of a single straggler", maxBatch: 16, requests: 1, action: "advance", wantFlushes: 1, wantTimeout: 1},
		{name: "drain on close", maxBatch: 16, requests: 3, action: "close", wantFlushes: 1, wantDrain: 1},
		{name: "error fan-out to all waiters", maxBatch: 3, requests: 3, fail: true, wantFlushes: 1, wantSize: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			flush := double
			if tc.fail {
				flush = func(reqs []int) []batch.Outcome[int] { return batch.FanError[int](len(reqs), errBackend) }
			}
			clock := newFakeClock()
			c, err := batch.NewCollector(flush, batch.QueueOptions{
				MaxBatch: tc.maxBatch,
				Timeout:  time.Millisecond,
				Clock:    clock,
			})
			if err != nil {
				t.Fatal(err)
			}
			results := make([]int, tc.requests)
			errs := make([]error, tc.requests)
			var wg sync.WaitGroup
			for i := 0; i < tc.requests; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					results[i], errs[i] = c.Do(i + 1)
				}(i)
			}
			switch tc.action {
			case "advance":
				waitPending(t, c, tc.requests)
				clock.BlockUntil(1)
				clock.Advance(time.Millisecond)
			case "close":
				waitPending(t, c, tc.requests)
				if err := c.Close(); err != nil {
					t.Fatal(err)
				}
			}
			wg.Wait()

			for i := range results {
				if tc.fail {
					if !errors.Is(errs[i], errBackend) {
						t.Errorf("request %d error = %v, want %v", i, errs[i], errBackend)
					}
					continue
				}
				if errs[i] != nil || results[i] != 2*(i+1) {
					t.Errorf("request %d = %d, %v; want %d, nil", i, results[i], errs[i], 2*(i+1))
				}
			}
			st := c.Stats()
			if st.Enqueued != int64(tc.requests) {
				t.Errorf("Enqueued = %d, want %d", st.Enqueued, tc.requests)
			}
			if st.Flushes != tc.wantFlushes || st.SizeFlushes != tc.wantSize ||
				st.TimeoutFlushes != tc.wantTimeout || st.DrainFlushes != tc.wantDrain {
				t.Errorf("flush stats = %+v, want flushes=%d size=%d timeout=%d drain=%d",
					st, tc.wantFlushes, tc.wantSize, tc.wantTimeout, tc.wantDrain)
			}
			if tc.fail && st.Errors != int64(tc.requests) {
				t.Errorf("Errors = %d, want %d", st.Errors, tc.requests)
			}
			if tc.action == "close" {
				if _, err := c.Do(1); !errors.Is(err, batch.ErrClosed) {
					t.Errorf("Do after Close = %v, want ErrClosed", err)
				}
			}
		})
	}
}

// TestQueueSequentialBatchesKeepTimersStraight exercises generation
// handling: a size-flushed batch's stale timer must not flush the next
// batch early, and the next batch's own timer must still work.
func TestQueueSequentialBatchesKeepTimersStraight(t *testing.T) {
	clock := newFakeClock()
	c, err := batch.NewCollector(double, batch.QueueOptions{
		MaxBatch: 2,
		Timeout:  time.Millisecond,
		Clock:    clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	do := func() chan error {
		done := make(chan error, 1)
		go func() {
			_, err := c.Do(1)
			done <- err
		}()
		return done
	}

	// Batch 1 flushes by size; its timer (generation 0) is now stale.
	d1, d2 := do(), do()
	if err := <-d1; err != nil {
		t.Fatal(err)
	}
	if err := <-d2; err != nil {
		t.Fatal(err)
	}

	// Batch 2 gathers one request. Firing the stale timer must not
	// flush it...
	d3 := do()
	waitPending(t, c, 1)
	clock.BlockUntil(2) // stale timer + batch 2's timer
	clock.Advance(time.Millisecond)
	if err := <-d3; err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.SizeFlushes != 1 || st.TimeoutFlushes != 1 || st.Flushes != 2 {
		t.Errorf("stats = %+v, want 1 size flush and 1 timeout flush", st)
	}
}

// fakeClock is a manually-advanced batch.Clock. Timers
// created with After fire when Advance moves the clock past their
// deadline, so tests of timeout-driven code (the batch collector's flush
// timer) are deterministic: no sleeps, no scheduler races.
type fakeClock struct {
	mu     sync.Mutex
	cond   *sync.Cond
	now    time.Time
	timers []fakeTimer
}

type fakeTimer struct {
	at time.Time
	ch chan time.Time
}

// newFakeClock creates a fake clock at an arbitrary fixed epoch.
func newFakeClock() *fakeClock {
	c := &fakeClock{now: time.Unix(1_000_000, 0)}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Now returns the fake current time.
func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// After returns a channel that fires once the clock has been advanced by
// at least d. A non-positive d fires immediately.
func (c *fakeClock) After(d time.Duration) <-chan time.Time {
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
func (c *fakeClock) Advance(d time.Duration) {
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

// BlockUntil waits until at least n timers are pending — the
// synchronization point tests use to know timeout-driven code has armed
// its timer before Advance fires it.
func (c *fakeClock) BlockUntil(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.timers) < n {
		c.cond.Wait()
	}
}
