package batch_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"proximity/internal/batch"
)

// TestCollectorSizeFlush: under many concurrent callers every request
// is served its own result, no flush carries more than MaxBatch, and no
// two flushes of one collector overlap.
func TestCollectorSizeFlush(t *testing.T) {
	const maxBatch = 3
	var inFlight, overlaps, oversized atomic.Int64
	c, err := batch.NewCollector(func(reqs []int) []batch.Outcome[int] {
		if inFlight.Add(1) > 1 {
			overlaps.Add(1)
		}
		defer inFlight.Add(-1)
		if len(reqs) > maxBatch {
			oversized.Add(1)
		}
		return double(reqs)
	}, batch.QueueOptions{MaxBatch: maxBatch})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const goroutines, rounds = 16, 20
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				req := g*rounds + i
				if res, err := c.Do(req); err != nil || res != 2*req {
					t.Errorf("Do(%d) = %d, %v; want %d, nil", req, res, err, 2*req)
				}
			}
		}(g)
	}
	wg.Wait()
	if overlaps.Load() != 0 || oversized.Load() != 0 {
		t.Errorf("%d overlapping flushes, %d over MaxBatch %d", overlaps.Load(), oversized.Load(), maxBatch)
	}
	st := c.Stats()
	if st.Enqueued != goroutines*rounds || st.Flushes < goroutines*rounds/maxBatch {
		t.Errorf("stats = %+v, want %d enqueued in at least %d flushes", st, goroutines*rounds, goroutines*rounds/maxBatch)
	}
}

// TestCollectorPartialFailure: one request's error must not fail its
// batch-mate — the per-outcome contract the cluster submitter's
// replica-retry depends on.
func TestCollectorPartialFailure(t *testing.T) {
	h := newHeldFlush(poisoned(1))
	c, err := batch.NewCollector(h.flush, batch.QueueOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	errs := make([]error, 3)
	vals := make([]int, 3)
	do := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			vals[i], errs[i] = c.Do(i)
		}()
	}
	do(2) // holds the flight while 0 and 1 queue behind it
	<-h.calls
	do(0)
	do(1)
	waitPending(t, c, 2)
	h.release <- struct{}{}
	if b := <-h.calls; len(b) != 2 {
		t.Fatalf("queued batch has %d requests, want 2", len(b))
	}
	h.release <- struct{}{}
	wg.Wait()
	if errs[0] != nil || vals[0] != 0 {
		t.Errorf("request 0: val %d err %v, want 0, nil", vals[0], errs[0])
	}
	if !errors.Is(errs[1], errPoisoned) {
		t.Errorf("poisoned request 1: err %v, want %v", errs[1], errPoisoned)
	}
}

// TestCollectorShortFlushResult: a misbehaving FlushFunc that returns too
// few outcomes fails the unmatched waiters instead of hanging them.
func TestCollectorShortFlushResult(t *testing.T) {
	short := func(reqs []int) []batch.Outcome[int] { return nil }
	c, err := batch.NewCollector(short, batch.QueueOptions{MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Do(1); !errors.Is(err, batch.ErrClosed) {
		t.Errorf("short flush result: got %v, want ErrClosed", err)
	}
}

func TestCollectorClosed(t *testing.T) {
	c, err := batch.NewCollector(double, batch.QueueOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do(1); !errors.Is(err, batch.ErrClosed) {
		t.Errorf("Do after Close: got %v, want ErrClosed", err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestNewCollectorValidation(t *testing.T) {
	if _, err := batch.NewCollector[int, int](nil, batch.QueueOptions{}); err == nil {
		t.Error("nil flush func should error")
	}
}
