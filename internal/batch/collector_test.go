package batch

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// echoFlush doubles each request, failing requests equal to poison.
func echoFlush(poison int) FlushFunc[int, int] {
	return func(reqs []int) []Outcome[int] {
		outs := make([]Outcome[int], len(reqs))
		for i, r := range reqs {
			if r == poison {
				outs[i] = Outcome[int]{Err: errors.New("poisoned")}
				continue
			}
			outs[i] = Outcome[int]{Res: 2 * r}
		}
		return outs
	}
}

func TestCollectorSizeFlush(t *testing.T) {
	c, err := NewCollector(echoFlush(-1), QueueOptions{MaxBatch: 4, Timeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	results := make([]int, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := c.Do(i)
			if err != nil {
				t.Errorf("Do(%d): %v", i, err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if r != 2*i {
			t.Errorf("Do(%d) = %d, want %d", i, r, 2*i)
		}
	}
	st := c.Stats()
	if st.Enqueued != 4 || st.SizeFlushes != 1 || st.Flushes != 1 {
		t.Errorf("stats = %+v, want 4 enqueued in 1 size flush", st)
	}
}

// TestCollectorPartialFailure: one request's error must not fail its
// batch-mates — the per-outcome contract the cluster submitter's
// replica-retry depends on.
func TestCollectorPartialFailure(t *testing.T) {
	c, err := NewCollector(echoFlush(1), QueueOptions{MaxBatch: 2, Timeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	errs := make([]error, 2)
	vals := make([]int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], errs[i] = c.Do(i)
		}(i)
	}
	wg.Wait()
	if errs[0] != nil || vals[0] != 0 {
		t.Errorf("request 0: val %d err %v, want 0, nil", vals[0], errs[0])
	}
	if errs[1] == nil {
		t.Error("poisoned request 1 should fail")
	}
	if st := c.Stats(); st.Errors != 1 {
		t.Errorf("errors = %d, want 1", st.Errors)
	}
}

// TestCollectorShortFlushResult: a misbehaving FlushFunc that returns too
// few outcomes fails the unmatched waiters instead of hanging them.
func TestCollectorShortFlushResult(t *testing.T) {
	short := func(reqs []int) []Outcome[int] { return nil }
	c, err := NewCollector(short, QueueOptions{MaxBatch: 1, Timeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Do(1); !errors.Is(err, ErrClosed) {
		t.Errorf("short flush result: got %v, want ErrClosed", err)
	}
}

func TestCollectorClosed(t *testing.T) {
	c, err := NewCollector(echoFlush(-1), QueueOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do(1); !errors.Is(err, ErrClosed) {
		t.Errorf("Do after Close: got %v, want ErrClosed", err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestNewCollectorValidation(t *testing.T) {
	if _, err := NewCollector[int, int](nil, QueueOptions{}); err == nil {
		t.Error("nil flush func should error")
	}
}
