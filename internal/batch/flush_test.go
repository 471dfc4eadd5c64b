package batch_test

import (
	"errors"
	"reflect"
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

// poisoned serves like double but fails the request equal to poison.
func poisoned(poison int) batch.FlushFunc[int, int] {
	return func(reqs []int) []batch.Outcome[int] {
		outs := double(reqs)
		for i, r := range reqs {
			if r == poison {
				outs[i] = batch.Outcome[int]{Err: errPoisoned}
			}
		}
		return outs
	}
}

var errPoisoned = errors.New("poisoned")

// heldFlush is a FlushFunc that announces each call's batch on calls and
// then blocks until the test sends on release, so a test decides when a
// flight lands and what queues behind it.
type heldFlush struct {
	calls   chan []int
	release chan struct{}
	serve   batch.FlushFunc[int, int]
}

func newHeldFlush(serve batch.FlushFunc[int, int]) *heldFlush {
	// calls is buffered past any test's flush count, so a flush never
	// waits to announce itself.
	return &heldFlush{calls: make(chan []int, 64), release: make(chan struct{}), serve: serve}
}

func (h *heldFlush) flush(reqs []int) []batch.Outcome[int] {
	h.calls <- append([]int(nil), reqs...)
	<-h.release
	return h.serve(reqs)
}

// waitPending polls until the collector holds n queued requests.
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

// TestQueueFlushSemantics drives the group-commit protocol with a held
// FlushFunc, so no case depends on timing: a lone Do flushes at once,
// the calls queued during a flight share the next flush (capped at
// MaxBatch), Close serves the calls already queued, a partial failure
// stays with its request, and an all-error flight fails the queue
// behind it without another call.
func TestQueueFlushSemantics(t *testing.T) {
	errBackend := errors.New("backend down")
	fail := func(reqs []int) []batch.Outcome[int] { return batch.FanError[int](len(reqs), errBackend) }
	cases := []struct {
		name     string
		maxBatch int
		queued   int // Do calls issued while the first flush is held
		serve    batch.FlushFunc[int, int]
		close    bool

		wantSizes []int // batch size of each FlushFunc call, in order
		wantErr   map[int]error
	}{
		{name: "lone call flushes at once", serve: double, wantSizes: []int{1}},
		{name: "flush on size", maxBatch: 2, queued: 5, serve: double, wantSizes: []int{1, 2, 2, 1}},
		{name: "queued calls share one flush", queued: 6, serve: double, wantSizes: []int{1, 6}},
		{name: "drain on close", queued: 3, serve: double, close: true, wantSizes: []int{1, 3}},
		{name: "partial failure stays per request", maxBatch: 2, queued: 4, serve: poisoned(3),
			wantSizes: []int{1, 2, 2}, wantErr: map[int]error{3: errPoisoned}},
		{name: "error fan-out to all waiters", queued: 3, serve: fail,
			wantSizes: []int{1}, wantErr: map[int]error{1: errBackend, 2: errBackend, 3: errBackend, 4: errBackend}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHeldFlush(tc.serve)
			c, err := batch.NewCollector(h.flush, batch.QueueOptions{MaxBatch: tc.maxBatch})
			if err != nil {
				t.Fatal(err)
			}
			n := tc.queued + 1
			results := make([]int, n)
			errs := make([]error, n)
			var wg sync.WaitGroup
			do := func(i int) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					results[i], errs[i] = c.Do(i + 1)
				}()
			}
			done := make(chan struct{})

			do(0)
			sizes := []int{len(<-h.calls)} // flushed with nothing else arriving
			for i := 1; i < n; i++ {
				do(i)
			}
			waitPending(t, c, tc.queued)
			go func() {
				wg.Wait()
				close(done)
			}()
			closed := make(chan error, 1)
			if tc.close {
				go func() { closed <- c.Close() }()
			}
			// Land each flight; the next one, if any, announces itself
			// before any caller can return.
			for landed := false; !landed; {
				h.release <- struct{}{}
				select {
				case b := <-h.calls:
					sizes = append(sizes, len(b))
				case <-done:
					landed = true
				}
			}

			if !reflect.DeepEqual(sizes, tc.wantSizes) {
				t.Errorf("flush sizes = %v, want %v", sizes, tc.wantSizes)
			}
			for i := range results {
				req := i + 1
				if want := tc.wantErr[req]; want != nil {
					if !errors.Is(errs[i], want) {
						t.Errorf("request %d error = %v, want %v", req, errs[i], want)
					}
					continue
				}
				if errs[i] != nil || results[i] != 2*req {
					t.Errorf("request %d = %d, %v; want %d, nil", req, results[i], errs[i], 2*req)
				}
			}
			st := c.Stats()
			want := batch.QueueStats{Enqueued: int64(n), Flushes: int64(len(tc.wantSizes))}
			if st != want {
				t.Errorf("stats = %+v, want %+v", st, want)
			}
			if tc.close {
				if err := <-closed; err != nil {
					t.Fatal(err)
				}
				if _, err := c.Do(1); !errors.Is(err, batch.ErrClosed) {
					t.Errorf("Do after Close = %v, want ErrClosed", err)
				}
			}
		})
	}
}

// TestQueueSequentialBatchesKeepTimersStraight: once a flight chain
// ends, the collector is idle again — the next Do flushes at once as a
// batch of one, after a chain that succeeded and after one that failed.
func TestQueueSequentialBatchesKeepTimersStraight(t *testing.T) {
	fails := true
	h := newHeldFlush(func(reqs []int) []batch.Outcome[int] {
		if fails {
			return batch.FanError[int](len(reqs), errPoisoned)
		}
		return double(reqs)
	})
	c, err := batch.NewCollector(h.flush, batch.QueueOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lone := func() error {
		done := make(chan error, 1)
		go func() {
			_, err := c.Do(1)
			done <- err
		}()
		if b := <-h.calls; len(b) != 1 {
			t.Fatalf("an idle collector flushed a batch of %d, want 1", len(b))
		}
		h.release <- struct{}{}
		return <-done
	}
	if err := lone(); !errors.Is(err, errPoisoned) {
		t.Fatalf("failed chain: got %v, want %v", err, errPoisoned)
	}
	fails = false // the flush above has returned; the next reads it
	for i := 0; i < 2; i++ {
		if err := lone(); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Flushes != 3 || st.Enqueued != 3 {
		t.Errorf("stats = %+v, want 3 flushes of one", st)
	}
}
